/**
 * @file
 * Persistent content-addressed on-disk compile cache.
 *
 * Schedules are expensive to compute, deterministic, and addressed by
 * the service's FNV-1a job fingerprints — exactly the profile of an
 * artifact worth caching durably. The DiskCache spills binary-serialized
 * CompileResults into one file per fingerprint (`<dir>/<fp hex>.pmc`) so
 * results survive process restarts and are shared between concurrent
 * service instances pointed at the same directory.
 *
 * Durability contract:
 *
 *  - Every entry is a versioned header (magic, format version,
 *    fingerprint, payload size, FNV-1a payload checksum) followed by the
 *    serialized result. load() re-checks all five; any mismatch — a
 *    truncated write, a flipped bit, a stale format — is treated as a
 *    miss and the offending file is deleted. Corruption can cost a
 *    recompile, never a wrong schedule and never a crash.
 *  - store() writes to a unique temp file in the cache directory and
 *    renames it into place, so readers (in this process or another) only
 *    ever observe complete entries; a torn write leaves at most a stale
 *    temp file that the next construction sweeps up.
 *  - The resident set is LRU-bounded by a byte budget. Construction
 *    scans the directory (recency seeded from file mtimes) so the bound
 *    holds across restarts too.
 *
 * Determinism contract: serialization is exact — doubles travel as
 * IEEE-754 bit patterns, and deserialization rebuilds the MachineSchedule
 * by replaying its instruction stream — so a result served from disk is
 * byte-identical to the freshly compiled one (disk_cache_test locks
 * this).
 *
 * Thread safety: every public member may be called from any thread. The
 * index mutex is held only for map bookkeeping; serialization and file
 * I/O run outside it, so shards of a JobService sharing one DiskCache do
 * not serialize their loads behind a single lock.
 */

#ifndef POWERMOVE_SERVICE_DISK_CACHE_HPP
#define POWERMOVE_SERVICE_DISK_CACHE_HPP

#include <cstdint>
#include <filesystem>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "arch/machine.hpp"
#include "compiler/result.hpp"
#include "obs/observability.hpp"

namespace powermove::service {

/** Disk-cache construction knobs. */
struct DiskCacheOptions
{
    /** Cache directory; created (with parents) if absent. */
    std::string dir;
    /** Resident byte budget across all entries; 0 disables storing. */
    std::uint64_t max_bytes = 256ull << 20;
    /**
     * Observability bundle; null gives the cache a private bundle with
     * logging off, whose counters stats() still reads.
     */
    std::shared_ptr<obs::Observability> obs;
};

/**
 * Counters read back from the metrics registry (cumulative; shared by
 * every cache on one bundle), plus this cache's residency.
 */
struct DiskCacheStats
{
    /** load() calls that returned a result. */
    std::size_t hits = 0;
    /** load() calls that found nothing servable. */
    std::size_t misses = 0;
    /** Entries written (temp-file + rename completed). */
    std::size_t stores = 0;
    /** Entries dropped because a header/checksum/decode check failed. */
    std::size_t corrupt = 0;
    /** Entries dropped to respect the byte budget. */
    std::size_t evictions = 0;
    /** Currently indexed entries. */
    std::size_t entries = 0;
    /** Currently indexed payload+header bytes. */
    std::uint64_t bytes = 0;
};

/** Persistent fingerprint-addressed store of CompileResults. */
class DiskCache
{
  public:
    /** On-disk format version; bump on any serialization change. */
    static constexpr std::uint32_t kFormatVersion = 1;

    /**
     * Opens (creating if needed) the cache at @p options.dir and indexes
     * the entries already present, oldest-mtime first, evicting down to
     * the byte budget. Stale temp files from torn writes are removed.
     * Throws ConfigError when the directory cannot be created.
     */
    explicit DiskCache(DiskCacheOptions options);

    DiskCache(const DiskCache &) = delete;
    DiskCache &operator=(const DiskCache &) = delete;

    /**
     * Loads the entry for @p fingerprint, reconstructing its schedule
     * against @p machine (which must be the machine of the job that
     * produced the fingerprint). Returns nullptr on a miss; a corrupt or
     * truncated entry counts as a miss and is deleted.
     */
    std::shared_ptr<const CompileResult> load(std::uint64_t fingerprint,
                                              const Machine &machine);

    /**
     * Persists @p result under @p fingerprint (atomic temp + rename),
     * then evicts least-recently-used entries beyond the byte budget.
     * Failures to write are swallowed: the disk tier is an accelerator,
     * never a correctness dependency.
     */
    void store(std::uint64_t fingerprint, const CompileResult &result);

    /** True if @p fingerprint is currently indexed (no I/O). */
    bool contains(std::uint64_t fingerprint) const;

    /** The counters from the registry and the index's residency. */
    DiskCacheStats stats() const;

    /** The resolved cache directory. */
    const std::filesystem::path &dir() const { return dir_; }

  private:
    /** `<dir>/<16-digit hex fingerprint>.pmc`. */
    std::filesystem::path entryPath(std::uint64_t fingerprint) const;

    /** Indexes @p fingerprint at @p bytes as most recently used. */
    void indexEntry(std::uint64_t fingerprint, std::uint64_t bytes,
                    std::unique_lock<std::mutex> &lock);

    /** Drops @p fingerprint from the index (file deletion is external). */
    void dropIndexEntry(std::uint64_t fingerprint);

    /**
     * Collects eviction victims beyond the byte budget; the caller
     * deletes the files outside the lock.
     */
    std::vector<std::filesystem::path>
    collectEvictions(std::unique_lock<std::mutex> &lock);

    /** Publishes the residency gauges; the caller holds the index lock. */
    void publishResidency();

    std::filesystem::path dir_;
    std::uint64_t max_bytes_;

    /** options.obs, or a private bundle; handles resolved at construction. */
    std::shared_ptr<obs::Observability> obs_;
    struct MetricHandles
    {
        obs::Counter *hits = nullptr;
        obs::Counter *misses = nullptr;
        obs::Counter *stores = nullptr;
        obs::Counter *corrupt = nullptr;
        obs::Counter *evictions = nullptr;
        obs::Counter *read_bytes = nullptr;
        obs::Counter *write_bytes = nullptr;
        obs::Gauge *entries = nullptr;
        obs::Gauge *resident_bytes = nullptr;
    };
    MetricHandles metric_;

    mutable std::mutex mutex_;
    struct IndexEntry
    {
        std::uint64_t bytes = 0;
        std::list<std::uint64_t>::iterator position;
    };
    std::list<std::uint64_t> order_; // front = most recently used
    std::unordered_map<std::uint64_t, IndexEntry> index_;
    std::uint64_t resident_bytes_ = 0;
    std::uint64_t temp_counter_ = 0;
};

/**
 * Serializes @p result into the cache's canonical little-endian byte
 * encoding (payload only, no header). Exposed for tests and tooling.
 */
std::string serializeCompileResult(const CompileResult &result);

/**
 * The canonical encoding of @p result's *deterministic* content only:
 * the schedule, fidelity metrics, stage/move counts, and pass-profile
 * invocations and counters — wall-clock measurements (compile time,
 * per-pass wall times) are excluded. Two independent compilations of
 * the same job are bit-identical iff their witnesses are equal, which
 * is exactly the equality the determinism tests assert across the
 * compiled/memory/disk serving tiers.
 */
std::string serializeResultWitness(const CompileResult &result);

/**
 * Decodes a serializeCompileResult() payload against @p machine.
 * Returns nullptr on any structural violation (truncation, out-of-range
 * site or qubit ids, counts exceeding the payload) — never throws on
 * malformed bytes and never fabricates a partial result.
 */
std::shared_ptr<const CompileResult>
deserializeCompileResult(std::string_view payload, const Machine &machine);

} // namespace powermove::service

#endif // POWERMOVE_SERVICE_DISK_CACHE_HPP
