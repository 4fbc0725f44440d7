/**
 * @file
 * Content-addressed LRU cache of compilation results.
 *
 * Keys are job fingerprints (service/fingerprint.hpp); values are
 * shared, immutable CompileResults, so evicting an entry never
 * invalidates a result already handed to a client. The cache is a plain
 * data structure with *no internal locking* — each JobService shard
 * guards its cache with the shard mutex so that lookup-miss /
 * mark-in-flight can be one atomic step.
 */

#ifndef POWERMOVE_SERVICE_CACHE_HPP
#define POWERMOVE_SERVICE_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "arch/machine.hpp"
#include "compiler/result.hpp"

namespace powermove::service {

/**
 * One cached compilation. The machine rides along because a
 * MachineSchedule references its Machine by raw pointer: the cache
 * entry must keep the referent alive for as long as the result is
 * servable, so that evicting an interned machine elsewhere can never
 * dangle a cached schedule.
 */
struct CachedCompile
{
    std::shared_ptr<const CompileResult> result;
    std::shared_ptr<const Machine> machine;

    explicit operator bool() const { return result != nullptr; }
};

/** Bounded LRU map: job fingerprint -> shared compile result. */
class CompileCache
{
  public:
    /**
     * @param capacity maximum resident entries; 0 disables caching
     *                 (every lookup misses, inserts are dropped)
     */
    explicit CompileCache(std::size_t capacity) : capacity_(capacity) {}

    /** The cached entry for @p key, refreshing its recency; falsy on a miss. */
    CachedCompile
    lookup(std::uint64_t key)
    {
        const auto it = slots_.find(key);
        if (it == slots_.end())
            return {};
        order_.splice(order_.begin(), order_, it->second.position);
        return it->second.value;
    }

    /**
     * Inserts (or refreshes) @p key, evicting least-recently-used
     * entries beyond capacity. Returns the number of entries evicted.
     */
    std::size_t
    insert(std::uint64_t key, CachedCompile value)
    {
        if (capacity_ == 0)
            return 0;
        if (const auto it = slots_.find(key); it != slots_.end()) {
            it->second.value = std::move(value);
            order_.splice(order_.begin(), order_, it->second.position);
            return 0;
        }
        order_.push_front(key);
        slots_.emplace(key, Slot{std::move(value), order_.begin()});
        std::size_t evicted = 0;
        for (; slots_.size() > capacity_; ++evicted) {
            slots_.erase(order_.back());
            order_.pop_back();
        }
        return evicted;
    }

  private:
    struct Slot
    {
        CachedCompile value;
        std::list<std::uint64_t>::iterator position;
    };

    std::size_t capacity_;
    std::list<std::uint64_t> order_; // front = most recently used
    std::unordered_map<std::uint64_t, Slot> slots_;
};

} // namespace powermove::service

#endif // POWERMOVE_SERVICE_CACHE_HPP
