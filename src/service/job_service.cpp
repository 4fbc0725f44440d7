#include "service/job_service.hpp"

#include <algorithm>
#include <limits>

#include "compiler/powermove.hpp"
#include "service/fingerprint.hpp"

namespace powermove::service {

JobService::JobService(JobServiceOptions options) : options_(std::move(options))
{
    const unsigned hw_raw = std::thread::hardware_concurrency();
    const std::size_t hw = hw_raw == 0 ? 1 : hw_raw;
    if (options_.num_shards == 0)
        options_.num_shards = std::min<std::size_t>(hw, 4);
    if (options_.workers_per_shard == 0)
        options_.workers_per_shard =
            std::max<std::size_t>(1, hw / options_.num_shards);

    obs_ = options_.obs;
    if (obs_ != nullptr)
        metric_ = std::make_unique<ServiceMetricHandles>(obs_->metrics);

    if (!options_.cache_dir.empty())
        disk_ = std::make_shared<DiskCache>(DiskCacheOptions{
            options_.cache_dir, options_.disk_cache_bytes, obs_});

    shards_.reserve(options_.num_shards);
    for (std::size_t s = 0; s < options_.num_shards; ++s) {
        shards_.push_back(std::make_unique<Shard>(options_.cache_capacity));
        if (obs_ != nullptr)
            shards_.back()->depth_gauge = &obs_->metrics.gauge(
                "powermove_shard_queue_depth", {{"shard", std::to_string(s)}});
    }
    if (obs_ != nullptr)
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
    {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++submitted_;
    }
    if (metric_ != nullptr)
        metric_->submitted->add(1);
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
        {
            const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++coalesced_;
        }
        if (metric_ != nullptr)
            metric_->tier_total[static_cast<std::size_t>(
                                    TierIndex::Coalesced)]
                ->add(1);
        shard.work_ready.notify_one();
        return JobTicket{id, std::move(future)};
    }

    // Shard-local memory cache: answer at submit, no worker involved.
    if (auto cached = shard.cache.lookup(fingerprint)) {
        lock.unlock();
        {
            const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++memory_hits_;
        }
        if (metric_ != nullptr)
            metric_->tier_total[static_cast<std::size_t>(TierIndex::Memory)]
                ->add(1);
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
        {
            const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            ++rejected_;
        }
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
    if (shard.depth_gauge != nullptr)
        shard.depth_gauge->set(static_cast<double>(shard.queued_jobs));
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
    {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        stats.submitted = submitted_;
        stats.rejected = rejected_;
        stats.expired = expired_;
        stats.coalesced = coalesced_;
        stats.memory_hits = memory_hits_;
        stats.disk_hits = disk_hits_;
        stats.compiled = compiled_;
        stats.failed = failed_;
        stats.pass_totals = pass_totals_;
    }
    std::size_t min_depth = std::numeric_limits<std::size_t>::max();
    std::size_t max_depth = 0;
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        stats.queued += shard->pending.size();
        min_depth = std::min(min_depth, shard->queued_jobs);
        max_depth = std::max(max_depth, shard->queued_jobs);
    }
    if (metric_ != nullptr)
        metric_->shard_imbalance->set(
            static_cast<double>(max_depth - min_depth));
    stats.num_shards = options_.num_shards;
    stats.workers_per_shard = options_.workers_per_shard;
    if (disk_)
        stats.disk = disk_->stats();
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
    if (metric_ != nullptr)
        metric_->state_total[static_cast<std::size_t>(JobState::Queued)]
            ->add(1);
    const std::lock_guard<std::mutex> lock(records_mutex_);
    records_.emplace(id, std::move(record));
}

void
JobService::recordState(JobId id, JobState state, std::string error,
                        std::string detail)
{
    const bool terminal = jobStateIsTerminal(state);
    int priority = 0;
    double wait_us = 0.0;
    double run_us = -1.0;
    double total_ms = 0.0;
    std::string log_error;
    if (obs_ != nullptr)
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
            if (obs_ != nullptr) {
                // Wait covers the queue (submit to Running, or the
                // whole record when the job never ran); run covers the
                // worker (Running to terminal).
                const Timeline &timeline = it->second.timeline;
                if (timeline.find(JobState::Running) != nullptr) {
                    wait_us = timeline
                                  .between(JobState::Queued,
                                           JobState::Running)
                                  .micros();
                    run_us =
                        timeline.between(JobState::Running, state).micros();
                } else {
                    wait_us = timeline.total().micros();
                }
                total_ms = timeline.total().micros() / 1000.0;
            }
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
    if (obs_ == nullptr)
        return;
    metric_->state_total[static_cast<std::size_t>(state)]->add(1);
    if (!terminal)
        return;
    const std::size_t cls = priorityClassIndex(priority);
    metric_->wait_us[cls]->observe(wait_us);
    if (run_us >= 0.0)
        metric_->run_us[cls]->observe(run_us);
    if (options_.slow_job_ms > 0.0 && total_ms >= options_.slow_job_ms)
        obs_->log.warn("slow_job", {{"job", id},
                                    {"state", jobStateName(state)},
                                    {"total_ms", total_ms},
                                    {"priority", priority}});
    if (obs_->log.enabled(obs::LogLevel::Debug)) {
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
    if (obs_ == nullptr)
        return;
    Timeline timeline;
    {
        const std::lock_guard<std::mutex> lock(records_mutex_);
        const auto it = records_.find(id);
        if (it == records_.end())
            return; // pruned before its trace was stitched
        timeline = it->second.timeline;
    }
    appendJobTrace(obs_->trace, id, timeline, passes, source, io);
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
        if (shard.depth_gauge != nullptr)
            shard.depth_gauge->set(static_cast<double>(shard.queued_jobs));

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
            {
                const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
                expired_ += expired_waiters.size();
            }
            for (Waiter &waiter : expired_waiters) {
                recordState(waiter.id, JobState::Expired,
                            "expired: deadline passed while queued");
                traceJob(waiter.id, {});
                waiter.promise.set_exception(std::make_exception_ptr(
                    ExpiredError("deadline passed while queued")));
            }
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

            if (!expired_waiters.empty()) {
                const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
                expired_ += expired_waiters.size();
            }
            for (Waiter &waiter : expired_waiters) {
                recordState(waiter.id, JobState::Expired,
                            "expired: deadline passed while queued");
                traceJob(waiter.id, {});
                waiter.promise.set_exception(std::make_exception_ptr(
                    ExpiredError("deadline passed while queued")));
            }
            expired_waiters.clear();

            if (disk_) {
                if (obs_ != nullptr) {
                    io.read = true;
                    io.read_start = JobTraceIo::Clock::now();
                }
                result = disk_->load(
                    diskCacheKey(fingerprint, options_.derive_job_seeds),
                    *machine);
                if (obs_ != nullptr) {
                    io.read_end = JobTraceIo::Clock::now();
                    io.read_hit = result != nullptr;
                }
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
                    if (obs_ != nullptr) {
                        io.write = true;
                        io.write_start = JobTraceIo::Clock::now();
                    }
                    disk_->store(
                        diskCacheKey(fingerprint,
                                     options_.derive_job_seeds),
                        *result);
                    if (obs_ != nullptr)
                        io.write_end = JobTraceIo::Clock::now();
                }
            }
            lock.lock();
        } catch (...) {
            error = std::current_exception();
            if (!lock.owns_lock())
                lock.lock();
        }

        if (result) {
            const std::size_t evictions_before = shard.cache.evictions();
            shard.cache.insert(fingerprint, {result, machine});
            if (metric_ != nullptr &&
                shard.cache.evictions() > evictions_before)
                metric_->memory_cache_evictions->add(
                    shard.cache.evictions() - evictions_before);
        }
        std::vector<Waiter> waiters = std::move(pending.waiters);
        shard.pending.erase(fingerprint);
        const bool now_idle = shard.pending.empty();
        lock.unlock();

        // Account before fulfilling any promise: a waiter that observes
        // its result (or exception) must already see it in stats().
        {
            const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
            expired_ += expired_waiters.size();
            if (error) {
                ++failed_;
            } else if (from_disk) {
                ++disk_hits_;
            } else {
                ++compiled_;
                if (!result->pass_profiles.empty())
                    mergePassProfiles(pass_totals_, result->pass_profiles);
            }
        }
        if (metric_ != nullptr) {
            // Tier attribution for the job that reached a worker: the
            // disk tier answered, or it was a full miss (compiled fresh
            // or failed). Coalesced/memory were attributed at submit.
            metric_->tier_total[static_cast<std::size_t>(
                                    from_disk && !error ? TierIndex::Disk
                                                        : TierIndex::Miss)]
                ->add(1);
            if (!error && !from_disk)
                metric_->foldPassProfiles(obs_->metrics,
                                          result->pass_profiles);
        }

        // Leftover expired waiters exist only on the error path (the
        // unlock above never ran); resolve them as Expired, not Failed.
        for (Waiter &waiter : expired_waiters) {
            recordState(waiter.id, JobState::Expired,
                        "expired: deadline passed while queued");
            traceJob(waiter.id, {});
            waiter.promise.set_exception(std::make_exception_ptr(
                ExpiredError("deadline passed while queued")));
        }

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
