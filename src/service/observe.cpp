#include "service/observe.hpp"

#include <algorithm>
#include <iterator>
#include <string>

namespace powermove::service {

std::string_view
tierName(TierIndex tier)
{
    switch (tier) {
    case TierIndex::Coalesced:
        return "coalesced";
    case TierIndex::Memory:
        return "memory";
    case TierIndex::Disk:
        return "disk";
    case TierIndex::Miss:
        return "miss";
    }
    return "unknown";
}

std::size_t
priorityClassIndex(int priority)
{
    if (priority < 0)
        return 0;
    return priority == 0 ? 1 : 2;
}

std::string_view
priorityClassName(int priority)
{
    static constexpr std::string_view kNames[kNumPriorityClasses] = {
        "low", "normal", "high"};
    return kNames[priorityClassIndex(priority)];
}

ServiceMetricHandles::ServiceMetricHandles(obs::MetricsRegistry &registry)
    : registry_(registry)
{
    submitted = &registry.counter("powermove_jobs_submitted_total");
    for (std::size_t s = 0; s < state_total.size(); ++s)
        state_total[s] = &registry.counter(
            "powermove_job_states_total",
            {{"state",
              std::string(jobStateName(static_cast<JobState>(s)))}});
    for (std::size_t t = 0; t < kNumTiers; ++t)
        tier_total[t] = &registry.counter(
            "powermove_jobs_tier_total",
            {{"tier", std::string(tierName(static_cast<TierIndex>(t)))}});
    compile_failures = &registry.counter("powermove_compile_failures_total");
    static constexpr int kClassRepresentative[kNumPriorityClasses] = {-1, 0,
                                                                      1};
    for (std::size_t p = 0; p < kNumPriorityClasses; ++p) {
        const std::string cls(priorityClassName(kClassRepresentative[p]));
        wait_us[p] = &registry.histogram("powermove_job_wait_us",
                                         obs::defaultLatencyBoundsUs(),
                                         {{"priority", cls}});
        run_us[p] = &registry.histogram("powermove_job_run_us",
                                        obs::defaultLatencyBoundsUs(),
                                        {{"priority", cls}});
    }
    for (std::size_t p = 0; p < kNumPasses; ++p) {
        const std::string pass(passName(static_cast<PassId>(p)));
        pass_wall_us[p] = &registry.histogram("powermove_pass_wall_us",
                                              obs::passWallBoundsUs(),
                                              {{"pass", pass}});
        pass_invocations[p] = &registry.counter(
            "powermove_pass_invocations_total", {{"pass", pass}});
    }
    memory_cache_evictions =
        &registry.counter("powermove_memory_cache_evictions_total");
    shard_imbalance = &registry.gauge("powermove_shard_imbalance");
}

void
ServiceMetricHandles::foldPassProfiles(
    const std::vector<PassProfile> &profiles)
{
    const std::lock_guard<std::mutex> lock(pass_counters_mutex_);
    for (const PassProfile &profile : profiles) {
        const std::size_t index = static_cast<std::size_t>(profile.pass);
        if (index >= kNumPasses)
            continue;
        pass_wall_us[index]->observe(profile.wall_time.micros());
        pass_invocations[index]->add(profile.invocations);
        auto &handles = pass_counters_[index];
        for (const PassCounter &counter : profile.counters) {
            auto it = std::find_if(handles.begin(), handles.end(),
                                   [&](const auto &handle) {
                                       return handle.first == counter.name;
                                   });
            if (it == handles.end()) {
                handles.emplace_back(
                    counter.name,
                    &registry_.counter(
                        "powermove_pass_counter_total",
                        {{"pass", std::string(passName(profile.pass))},
                         {"counter", counter.name}}));
                it = std::prev(handles.end());
            }
            it->second->add(counter.value);
        }
    }
}

std::vector<PassProfile>
ServiceMetricHandles::passTotals() const
{
    std::vector<PassProfile> totals;
    const std::lock_guard<std::mutex> lock(pass_counters_mutex_);
    for (std::size_t p = 0; p < kNumPasses; ++p) {
        PassProfile total;
        total.pass = static_cast<PassId>(p);
        total.invocations = pass_invocations[p]->value();
        if (total.invocations == 0)
            continue;
        total.wall_time = Duration::micros(pass_wall_us[p]->sum());
        for (const auto &[name, handle] : pass_counters_[p])
            total.counters.push_back({name, handle->value()});
        totals.push_back(std::move(total));
    }
    return totals;
}

void
appendJobTrace(obs::TraceCollector &trace, std::uint64_t job_id,
               const Timeline &timeline,
               const std::vector<PassProfile> *passes,
               std::string_view source, const JobTraceIo *io)
{
    const std::vector<TimelineEvent> &events = timeline.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TimelineEvent &event = events[i];
        std::vector<std::pair<std::string, std::string>> args;
        if (!event.detail.empty())
            args.emplace_back("detail", event.detail);
        if (jobStateIsTerminal(event.state)) {
            if (!source.empty())
                args.emplace_back("source", std::string(source));
            trace.addInstant(std::string(jobStateName(event.state)), "job",
                             job_id, event.at, std::move(args));
            continue;
        }
        // A non-terminal state occupies the lane until the next event;
        // a dangling non-terminal tail (snapshot of a live job) gets a
        // zero-length span rather than a fabricated end.
        const auto end = i + 1 < events.size() ? events[i + 1].at : event.at;
        trace.addComplete(std::string(jobStateName(event.state)), "job",
                          job_id, event.at, end, std::move(args));
    }

    if (passes != nullptr) {
        if (const TimelineEvent *running = timeline.find(JobState::Running)) {
            // Profiles carry total wall time per pass, not start/stop
            // stamps: lay the passes out sequentially from the start of
            // `running` so the lane shows measured durations at
            // synthetic offsets.
            auto cursor = running->at;
            for (const PassProfile &profile : *passes) {
                const auto width =
                    std::chrono::duration_cast<
                        obs::TraceCollector::Clock::duration>(
                        std::chrono::duration<double, std::micro>(
                            profile.wall_time.micros()));
                std::vector<std::pair<std::string, std::string>> args;
                args.emplace_back("invocations",
                                  std::to_string(profile.invocations));
                args.emplace_back("offsets", "synthetic");
                for (const PassCounter &counter : profile.counters)
                    args.emplace_back(counter.name,
                                      std::to_string(counter.value));
                trace.addComplete(std::string(passName(profile.pass)),
                                  "pass", job_id, cursor, cursor + width,
                                  std::move(args));
                cursor += width;
            }
        }
    }

    if (io != nullptr) {
        if (io->read)
            trace.addComplete("disk-read", "cache", job_id, io->read_start,
                              io->read_end,
                              {{"tier", "disk"},
                               {"hit", io->read_hit ? "true" : "false"}});
        if (io->write)
            trace.addComplete("disk-write", "cache", job_id, io->write_start,
                              io->write_end, {{"tier", "disk"}});
    }
}

} // namespace powermove::service
