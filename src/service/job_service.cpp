#include "service/job_service.hpp"

#include <algorithm>
#include <limits>

#include "compiler/powermove.hpp"
#include "service/fingerprint.hpp"

namespace powermove::service {

JobService::JobService(JobServiceOptions options)
    : options_(std::move(options)), obs_(obs::bundleOrPrivate(options_.obs)),
      metric_(obs_->metrics)
{
    const unsigned hw_raw = std::thread::hardware_concurrency();
    const std::size_t hw = hw_raw == 0 ? 1 : hw_raw;
    if (options_.num_shards == 0)
        options_.num_shards = std::min<std::size_t>(hw, 4);
    if (options_.workers_per_shard == 0)
        options_.workers_per_shard =
            std::max<std::size_t>(1, hw / options_.num_shards);

    if (!options_.cache_dir.empty())
        disk_ = std::make_shared<DiskCache>(DiskCacheOptions{
            options_.cache_dir, options_.disk_cache_bytes, obs_});

    shards_.reserve(options_.num_shards);
    for (std::size_t s = 0; s < options_.num_shards; ++s) {
        shards_.push_back(std::make_unique<Shard>(options_.cache_capacity));
        shards_.back()->depth_gauge = &obs_->metrics.gauge(
            "powermove_shard_queue_depth", {{"shard", std::to_string(s)}});
    }
    obs_->log.info("job_service_start",
                   {{"shards", options_.num_shards},
                    {"workers_per_shard", options_.workers_per_shard},
                    {"max_queue", options_.max_queue},
                    {"cache_dir", options_.cache_dir}});
    // Workers start only after every shard exists: a worker touches no
    // shard but its own, so construction order cannot race.
    for (const auto &shard : shards_) {
        shard->workers.reserve(options_.workers_per_shard);
        for (std::size_t w = 0; w < options_.workers_per_shard; ++w)
            shard->workers.emplace_back(
                [this, &shard_ref = *shard] { workerLoop(shard_ref); });
    }
}

JobService::~JobService()
{
    for (const auto &shard : shards_) {
        {
            const std::lock_guard<std::mutex> lock(shard->mutex);
            shard->stopping = true;
        }
        shard->work_ready.notify_all();
    }
    for (const auto &shard : shards_)
        for (std::thread &worker : shard->workers)
            worker.join();
}

JobService::Shard &
JobService::shardFor(std::uint64_t fingerprint)
{
    return *shards_[fingerprint % shards_.size()];
}

void
JobService::publishDepth(Shard &shard)
{
    shard.depth_gauge->set(static_cast<double>(shard.queued_jobs));
    // The other shards' gauges may move concurrently, so the imbalance
    // is as fresh as the last depth change, not one atomic snapshot.
    double min_depth = std::numeric_limits<double>::infinity();
    double max_depth = 0.0;
    for (const auto &other : shards_) {
        const double depth = other->depth_gauge->value();
        min_depth = std::min(min_depth, depth);
        max_depth = std::max(max_depth, depth);
    }
    metric_.shard_imbalance->set(max_depth - min_depth);
}

JobTicket
JobService::submit(CompileJob job, int priority, double deadline_ms)
{
    return submit(JobRequest{std::move(job), priority, deadline_ms});
}

JobTicket
JobService::submit(JobRequest request)
{
    const std::uint64_t fingerprint = jobFingerprint(request.job);
    const JobId id = next_id_.fetch_add(1, std::memory_order_relaxed);
    metric_.submitted->add(1);
    createRecord(id, fingerprint, request.priority);

    Waiter waiter;
    waiter.id = id;
    std::future<JobResult> future = waiter.promise.get_future();
    if (request.deadline_ms > 0.0) {
        waiter.has_deadline = true;
        waiter.deadline =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(
                    request.deadline_ms));
    }

    Shard &shard = shardFor(fingerprint);
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (shard.stopping)
        fatal("submit on a stopping JobService");

    // An identical job is queued or compiling: attach, and promote the
    // queued entry if this duplicate outranks it.
    if (const auto it = shard.pending.find(fingerprint);
        it != shard.pending.end()) {
        PendingJob &pending = it->second;
        if (!pending.running && request.priority > pending.priority) {
            pending.priority = request.priority;
            // The old heap entry goes stale (priority mismatch on pop).
            shard.queue.push(
                QueueEntry{pending.priority, pending.seq, fingerprint});
        }
        waiter.coalesced = true;
        pending.waiters.push_back(std::move(waiter));
        // Under the shard lock: once it drops, a worker may resolve the
        // job, and a late Admitted would overwrite its terminal state.
        recordState(id, JobState::Admitted);
        lock.unlock();
        metric_.tier(TierIndex::Coalesced).add(1);
        shard.work_ready.notify_one();
        return JobTicket{id, std::move(future)};
    }

    // Shard-local memory cache: answer at submit, no worker involved.
    if (auto cached = shard.cache.lookup(fingerprint)) {
        lock.unlock();
        metric_.tier(TierIndex::Memory).add(1);
        recordState(id, JobState::Cached, {}, "memory");
        traceJob(id, "memory");
        waiter.promise.set_value(JobResult{std::move(cached.machine),
                                           std::move(cached.result),
                                           fingerprint, true,
                                           ResultSource::Memory});
        return JobTicket{id, std::move(future)};
    }

    // Admission control: beyond the queue bound the service pushes
    // back instead of buffering, so overload degrades loudly.
    if (options_.max_queue != 0 && shard.queued_jobs >= options_.max_queue) {
        lock.unlock();
        const std::string reason =
            "rejected: shard queue full (" +
            std::to_string(options_.max_queue) + " jobs queued)";
        recordState(id, JobState::Rejected, reason);
        traceJob(id, {});
        waiter.promise.set_exception(
            std::make_exception_ptr(RejectedError(reason)));
        return JobTicket{id, std::move(future)};
    }

    PendingJob pending;
    pending.job = std::move(request.job);
    pending.priority = request.priority;
    pending.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    pending.waiters.push_back(std::move(waiter));
    shard.queue.push(QueueEntry{pending.priority, pending.seq, fingerprint});
    shard.pending.emplace(fingerprint, std::move(pending));
    ++shard.queued_jobs;
    publishDepth(shard);
    recordState(id, JobState::Admitted); // under the lock, as above
    lock.unlock();

    shard.work_ready.notify_one();
    return JobTicket{id, std::move(future)};
}

std::optional<JobStatus>
JobService::status(JobId id) const
{
    const std::lock_guard<std::mutex> lock(records_mutex_);
    const auto it = records_.find(id);
    if (it == records_.end())
        return std::nullopt;
    return it->second;
}

void
JobService::waitIdle()
{
    for (const auto &shard : shards_) {
        std::unique_lock<std::mutex> lock(shard->mutex);
        shard->idle.wait(lock, [&] { return shard->pending.empty(); });
    }
}

JobServiceStats
JobService::stats() const
{
    JobServiceStats stats;
    // Workers bump the miss tier and the failure count under their
    // shard's lock, so holding every shard lock reads the pair whole
    // and `compiled` never counts a failing run, even transiently.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto &shard : shards_) {
        locks.emplace_back(shard->mutex);
        stats.queued += shard->pending.size();
    }
    stats.failed = metric_.compile_failures->value();
    stats.compiled = metric_.tier(TierIndex::Miss).value() - stats.failed;
    locks.clear();
    stats.submitted = metric_.submitted->value();
    stats.rejected = metric_.state(JobState::Rejected).value();
    stats.expired = metric_.state(JobState::Expired).value();
    stats.coalesced = metric_.tier(TierIndex::Coalesced).value();
    stats.memory_hits = metric_.tier(TierIndex::Memory).value();
    stats.disk_hits = metric_.tier(TierIndex::Disk).value();
    stats.num_shards = options_.num_shards;
    stats.workers_per_shard = options_.workers_per_shard;
    if (disk_)
        stats.disk = disk_->stats();
    stats.pass_totals = metric_.passTotals();
    return stats;
}

void
JobService::createRecord(JobId id, std::uint64_t fingerprint, int priority)
{
    JobStatus record;
    record.id = id;
    record.fingerprint = fingerprint;
    record.priority = priority;
    record.state = JobState::Queued;
    record.timeline.record(JobState::Queued);
    metric_.state(JobState::Queued).add(1);
    const std::lock_guard<std::mutex> lock(records_mutex_);
    records_.emplace(id, std::move(record));
}

void
JobService::recordState(JobId id, JobState state, std::string error,
                        std::string detail)
{
    metric_.state(state).add(1);
    const bool terminal = jobStateIsTerminal(state);
    int priority = 0;
    double wait_us = 0.0;
    double run_us = -1.0;
    double total_ms = 0.0;
    const bool log_debug = obs_->log.enabled(obs::LogLevel::Debug);
    std::string log_error;
    if (log_debug)
        log_error = error;
    {
        const std::lock_guard<std::mutex> lock(records_mutex_);
        const auto it = records_.find(id);
        if (it == records_.end())
            return; // already pruned
        it->second.state = state;
        it->second.timeline.record(state, std::move(detail));
        if (!error.empty())
            it->second.error = std::move(error);
        if (terminal) {
            priority = it->second.priority;
            // Wait covers the queue (submit to Running, or the whole
            // record when the job never ran); run covers the worker
            // (Running to terminal).
            const Timeline &timeline = it->second.timeline;
            if (timeline.find(JobState::Running) != nullptr) {
                wait_us = timeline.between(JobState::Queued, JobState::Running)
                              .micros();
                run_us = timeline.between(JobState::Running, state).micros();
            } else {
                wait_us = timeline.total().micros();
            }
            total_ms = timeline.total().micros() / 1000.0;
            finished_order_.push_back(id);
            if (options_.max_finished_records != 0) {
                while (finished_order_.size() >
                       options_.max_finished_records) {
                    records_.erase(finished_order_.front());
                    finished_order_.pop_front();
                }
            }
        }
    }
    if (!terminal)
        return;
    const std::size_t cls = priorityClassIndex(priority);
    metric_.wait_us[cls]->observe(wait_us);
    if (run_us >= 0.0)
        metric_.run_us[cls]->observe(run_us);
    if (options_.slow_job_ms > 0.0 && total_ms >= options_.slow_job_ms)
        obs_->log.warn("slow_job", {{"job", id},
                                    {"state", jobStateName(state)},
                                    {"total_ms", total_ms},
                                    {"priority", priority}});
    if (log_debug) {
        if (log_error.empty())
            obs_->log.debug("job_finished",
                            {{"job", id},
                             {"state", jobStateName(state)},
                             {"total_ms", total_ms}});
        else
            obs_->log.debug("job_finished",
                            {{"job", id},
                             {"state", jobStateName(state)},
                             {"total_ms", total_ms},
                             {"error", log_error}});
    }
}

void
JobService::traceJob(JobId id, std::string_view source,
                     const std::vector<PassProfile> *passes,
                     const JobTraceIo *io)
{
    if (options_.obs == nullptr)
        return; // spans go only into a caller's bundle
    Timeline timeline;
    {
        const std::lock_guard<std::mutex> lock(records_mutex_);
        const auto it = records_.find(id);
        if (it == records_.end())
            return; // pruned before its trace was stitched
        timeline = it->second.timeline;
    }
    appendJobTrace(options_.obs->trace, id, timeline, passes, source, io);
}

void
JobService::expire(std::vector<Waiter> &waiters)
{
    for (Waiter &waiter : waiters) {
        recordState(waiter.id, JobState::Expired,
                    "expired: deadline passed while queued");
        traceJob(waiter.id, {});
        waiter.promise.set_exception(std::make_exception_ptr(
            ExpiredError("deadline passed while queued")));
    }
    waiters.clear();
}

std::shared_ptr<const Machine>
JobService::internMachine(Shard &shard, const MachineConfig &config,
                          std::unique_lock<std::mutex> &lock)
{
    const std::uint64_t key = fingerprintMachineConfig(config);
    if (const auto it = shard.machines.find(key); it != shard.machines.end()) {
        if (auto machine = it->second.lock())
            return machine;
    }
    std::erase_if(shard.machines,
                  [](const auto &entry) { return entry.second.expired(); });

    // Build outside the lock: machine construction is O(sites) and must
    // not stall submitters or sibling workers of this shard.
    lock.unlock();
    std::shared_ptr<const Machine> machine;
    try {
        machine = std::make_shared<const Machine>(config);
    } catch (...) {
        lock.lock();
        throw;
    }
    lock.lock();
    auto &slot = shard.machines[key];
    if (auto existing = slot.lock())
        return existing;
    slot = machine;
    return machine;
}

void
JobService::workerLoop(Shard &shard)
{
    std::unique_lock<std::mutex> lock(shard.mutex);
    for (;;) {
        shard.work_ready.wait(
            lock, [&] { return shard.stopping || !shard.queue.empty(); });
        if (shard.queue.empty()) {
            if (shard.stopping)
                return; // drained: every admitted job was resolved
            continue;
        }
        const QueueEntry entry = shard.queue.top();
        shard.queue.pop();

        const auto it = shard.pending.find(entry.fingerprint);
        // Stale heap entries: the job already ran, or a promotion
        // superseded this entry (the fresher one carries the higher
        // priority). Skip without touching anything.
        if (it == shard.pending.end() || it->second.running ||
            it->second.priority != entry.priority)
            continue;

        const std::uint64_t fingerprint = entry.fingerprint;
        // The map reference stays valid while unlocked: only this
        // worker erases this entry once running, rehashing never
        // invalidates references, and concurrent submits only append
        // waiters under the lock — never touch the job payload.
        PendingJob &pending = it->second;
        pending.running = true;
        --shard.queued_jobs;
        publishDepth(shard);

        // Deadlines bound queue wait: anyone overdue by now expires
        // before the compilation starts.
        const Clock::time_point now = Clock::now();
        std::vector<Waiter> expired_waiters;
        std::vector<Waiter> live;
        for (Waiter &waiter : pending.waiters) {
            if (waiter.has_deadline && waiter.deadline < now)
                expired_waiters.push_back(std::move(waiter));
            else
                live.push_back(std::move(waiter));
        }
        pending.waiters = std::move(live);

        if (pending.waiters.empty()) {
            // Everyone expired: skip the compilation entirely.
            shard.pending.erase(it);
            const bool now_idle = shard.pending.empty();
            lock.unlock();
            expire(expired_waiters);
            if (now_idle)
                shard.idle.notify_all();
            lock.lock();
            continue;
        }

        std::vector<JobId> live_ids;
        live_ids.reserve(pending.waiters.size());
        for (const Waiter &waiter : pending.waiters)
            live_ids.push_back(waiter.id);

        std::shared_ptr<const Machine> machine;
        std::shared_ptr<const CompileResult> result;
        std::exception_ptr error;
        bool from_disk = false;
        JobTraceIo io;
        try {
            machine = internMachine(shard, pending.job.machine, lock);
            CompilerOptions options = pending.job.options;
            const Circuit &circuit = pending.job.circuit;
            lock.unlock();
            expire(expired_waiters);

            if (disk_) {
                io.read = true;
                io.read_start = JobTraceIo::Clock::now();
                result = disk_->load(
                    diskCacheKey(fingerprint, options_.derive_job_seeds),
                    *machine);
                io.read_end = JobTraceIo::Clock::now();
                io.read_hit = result != nullptr;
            }
            if (result) {
                from_disk = true;
            } else {
                for (const JobId job_id : live_ids)
                    recordState(job_id, JobState::Running);
                if (options_.derive_job_seeds)
                    options.seed = deriveJobSeed(
                        options.seed,
                        seedFingerprintJob(circuit, pending.job.machine,
                                           options));
                const PowerMoveCompiler compiler(*machine, options);
                result = std::make_shared<const CompileResult>(
                    compiler.compile(circuit));
                if (disk_) {
                    io.write = true;
                    io.write_start = JobTraceIo::Clock::now();
                    disk_->store(
                        diskCacheKey(fingerprint,
                                     options_.derive_job_seeds),
                        *result);
                    io.write_end = JobTraceIo::Clock::now();
                }
            }
            lock.lock();
        } catch (...) {
            error = std::current_exception();
            if (!lock.owns_lock())
                lock.lock();
        }

        if (result)
            metric_.memory_cache_evictions->add(
                shard.cache.insert(fingerprint, {result, machine}));
        // Account before fulfilling any promise, and under the shard
        // lock so stats() reads miss and failure together. A job that
        // reached a worker was a disk hit or a full miss (compiled or
        // failed); coalesced and memory were attributed at submit.
        metric_.tier(from_disk && !error ? TierIndex::Disk : TierIndex::Miss)
            .add(1);
        if (error)
            metric_.compile_failures->add(1);
        std::vector<Waiter> waiters = std::move(pending.waiters);
        shard.pending.erase(fingerprint);
        const bool now_idle = shard.pending.empty();
        lock.unlock();
        if (!error && !from_disk)
            metric_.foldPassProfiles(result->pass_profiles);

        // Leftover expired waiters exist only on the error path (the
        // unlock above never ran); resolve them as Expired, not Failed.
        expire(expired_waiters);

        std::string error_text;
        if (error) {
            try {
                std::rethrow_exception(error);
            } catch (const std::exception &e) {
                error_text = e.what();
            } catch (...) {
                error_text = "unknown error";
            }
        }

        JobResult outcome{machine, result, fingerprint, from_disk};
        for (Waiter &waiter : waiters) {
            if (error) {
                recordState(waiter.id, JobState::Failed, error_text);
                traceJob(waiter.id, {}, nullptr,
                         waiter.coalesced ? nullptr : &io);
                waiter.promise.set_exception(error);
                continue;
            }
            recordState(waiter.id,
                        from_disk ? JobState::Cached : JobState::Done, {},
                        from_disk ? "disk" : std::string());
            // The waiter that created the entry is served by the disk or
            // the compile and its lane carries the per-pass spans and
            // the real disk I/O spans; every waiter that attached to it
            // was counted as coalesced at submit, resolves as Coalesced
            // (even when the creator expired in the queue), and its
            // lane shows lifecycle only.
            if (waiter.coalesced) {
                traceJob(waiter.id, "coalesced");
                outcome.source = ResultSource::Coalesced;
            } else if (from_disk) {
                traceJob(waiter.id, "disk", nullptr, &io);
                outcome.source = ResultSource::Disk;
            } else {
                traceJob(waiter.id, "compiled", &result->pass_profiles,
                         &io);
                outcome.source = ResultSource::Compiled;
            }
            waiter.promise.set_value(outcome);
        }

        if (now_idle)
            shard.idle.notify_all();
        lock.lock();
    }
}

} // namespace powermove::service
