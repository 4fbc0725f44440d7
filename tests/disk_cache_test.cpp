/**
 * @file
 * Tests for the persistent on-disk compile cache: exact round-trips,
 * restart persistence, corruption tolerance, byte-budget eviction, and
 * cross-instance sharing through the JobService.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/powermove.hpp"
#include "isa/validator.hpp"
#include "service/disk_cache.hpp"
#include "service/fingerprint.hpp"
#include "service/job_service.hpp"

namespace powermove::service {
namespace {

namespace fs = std::filesystem;

/** A fresh empty directory under the system temp dir, removed on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("powermove_disk_cache_" + tag + "_" +
                 std::to_string(static_cast<unsigned long>(::getpid()))))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }

    ~TempDir() { fs::remove_all(path_); }

    const fs::path &path() const { return path_; }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/** DiskCacheOptions built field-by-field (no aggregate-init warnings). */
DiskCacheOptions
cacheOptions(const std::string &dir, std::uint64_t max_bytes = 256ull << 20)
{
    DiskCacheOptions options;
    options.dir = dir;
    options.max_bytes = max_bytes;
    return options;
}

/** A small distinct job: a 4-qubit chain with @p variant CZ blocks. */
CompileJob
smallJob(std::size_t variant = 1)
{
    Circuit circuit(4);
    for (std::size_t i = 0; i < variant; ++i) {
        circuit.append(CzGate{0, 1});
        circuit.append(CzGate{2, 3});
        circuit.barrier();
        circuit.append(CzGate{1, 2});
        circuit.barrier();
    }
    return CompileJob{std::move(circuit), MachineConfig::forQubits(4), {}};
}

/** One shard of @p workers workers over the disk cache at @p dir. */
JobServiceOptions
diskServiceOptions(std::size_t workers, const std::string &dir)
{
    JobServiceOptions options;
    options.num_shards = 1;
    options.workers_per_shard = workers;
    options.cache_dir = dir;
    return options;
}

/** Submits @p job and waits for its result. */
JobResult
run(JobService &svc, const CompileJob &job)
{
    return svc.submit(job).result.get();
}

/** Compiles @p job exactly as the service would (derived seed). */
CompileResult
compileDirect(const CompileJob &job, const Machine &machine)
{
    const PowerMoveCompiler compiler(machine, effectiveOptions(job));
    return compiler.compile(job.circuit);
}

/** The single `.pmc` entry file in @p dir; fails the test if not 1. */
fs::path
soleEntryFile(const fs::path &dir)
{
    std::vector<fs::path> entries;
    for (const auto &item : fs::directory_iterator(dir))
        if (item.path().extension() == ".pmc")
            entries.push_back(item.path());
    EXPECT_EQ(entries.size(), 1u);
    return entries.empty() ? fs::path() : entries.front();
}

TEST(DiskCacheTest, SerializationRoundTripIsByteIdentical)
{
    const CompileJob job = smallJob();
    const Machine machine(job.machine);
    const CompileResult fresh = compileDirect(job, machine);

    const std::string bytes = serializeCompileResult(fresh);
    ASSERT_FALSE(bytes.empty());

    const auto decoded = deserializeCompileResult(bytes, machine);
    ASSERT_TRUE(decoded);
    validateAgainstCircuit(decoded->schedule, job.circuit);

    // The canonical encoding is the byte-identity witness: an exact
    // decode re-encodes to exactly the same bytes.
    EXPECT_EQ(serializeCompileResult(*decoded), bytes);
    EXPECT_EQ(decoded->num_stages, fresh.num_stages);
    EXPECT_EQ(decoded->num_coll_moves, fresh.num_coll_moves);
    EXPECT_DOUBLE_EQ(decoded->metrics.fidelity(), fresh.metrics.fidelity());
    EXPECT_EQ(decoded->schedule.instructions().size(),
              fresh.schedule.instructions().size());
}

TEST(DiskCacheTest, TruncatedPayloadNeverDecodes)
{
    const CompileJob job = smallJob();
    const Machine machine(job.machine);
    const std::string bytes =
        serializeCompileResult(compileDirect(job, machine));

    // Every proper prefix must be rejected cleanly — no partial result,
    // no crash. (Step 7 keeps the loop cheap; 1 would also pass.)
    for (std::size_t len = 0; len < bytes.size(); len += 7) {
        const auto decoded = deserializeCompileResult(
            std::string_view(bytes.data(), len), machine);
        EXPECT_EQ(decoded, nullptr) << "prefix of " << len << " decoded";
    }
}

TEST(DiskCacheTest, StoreThenLoadHits)
{
    const TempDir dir("store_load");
    const CompileJob job = smallJob();
    const Machine machine(job.machine);
    const CompileResult fresh = compileDirect(job, machine);
    const std::uint64_t key = jobFingerprint(job);

    DiskCache cache(cacheOptions(dir.str()));
    EXPECT_FALSE(cache.contains(key));
    EXPECT_EQ(cache.load(key, machine), nullptr); // cold miss

    cache.store(key, fresh);
    EXPECT_TRUE(cache.contains(key));
    const auto loaded = cache.load(key, machine);
    ASSERT_TRUE(loaded);
    EXPECT_EQ(serializeCompileResult(*loaded),
              serializeCompileResult(fresh));

    const DiskCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.corrupt, 0u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytes, 0u);
}

TEST(DiskCacheTest, EntriesSurviveRestart)
{
    const TempDir dir("restart");
    const CompileJob job = smallJob();
    const Machine machine(job.machine);
    const CompileResult fresh = compileDirect(job, machine);
    const std::uint64_t key = jobFingerprint(job);

    {
        DiskCache first(cacheOptions(dir.str()));
        first.store(key, fresh);
    } // destroyed: only the files remain

    DiskCache second(cacheOptions(dir.str()));
    EXPECT_TRUE(second.contains(key)); // re-indexed from the directory
    const auto loaded = second.load(key, machine);
    ASSERT_TRUE(loaded);
    EXPECT_EQ(serializeCompileResult(*loaded),
              serializeCompileResult(fresh));
}

TEST(DiskCacheTest, TruncatedEntryFileIsAMissAndIsDeleted)
{
    const TempDir dir("truncated");
    const CompileJob job = smallJob();
    const Machine machine(job.machine);
    const std::uint64_t key = jobFingerprint(job);

    DiskCache cache(cacheOptions(dir.str()));
    cache.store(key, compileDirect(job, machine));
    const fs::path entry = soleEntryFile(dir.path());
    ASSERT_FALSE(entry.empty());

    // Chop the file mid-payload, as a crash mid-write (pre-rename this
    // cannot happen, but a torn disk can produce anything).
    const auto full_size = fs::file_size(entry);
    fs::resize_file(entry, full_size / 2);

    EXPECT_EQ(cache.load(key, machine), nullptr);
    EXPECT_FALSE(cache.contains(key));
    EXPECT_FALSE(fs::exists(entry)); // the bad entry is swept
    EXPECT_EQ(cache.stats().corrupt, 1u);

    // The slot is immediately reusable.
    cache.store(key, compileDirect(job, machine));
    EXPECT_TRUE(cache.load(key, machine) != nullptr);
}

TEST(DiskCacheTest, FlippedPayloadBitFailsTheChecksum)
{
    const TempDir dir("bitflip");
    const CompileJob job = smallJob();
    const Machine machine(job.machine);
    const std::uint64_t key = jobFingerprint(job);

    DiskCache cache(cacheOptions(dir.str()));
    cache.store(key, compileDirect(job, machine));
    const fs::path entry = soleEntryFile(dir.path());
    ASSERT_FALSE(entry.empty());

    // Flip one bit near the end of the payload.
    const auto size = fs::file_size(entry);
    std::fstream file(entry,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file);
    file.seekg(static_cast<std::streamoff>(size - 3));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(static_cast<std::streamoff>(size - 3));
    file.write(&byte, 1);
    file.close();

    EXPECT_EQ(cache.load(key, machine), nullptr);
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_FALSE(fs::exists(entry));
}

TEST(DiskCacheTest, GarbageEntryIndexedOnStartupIsAMiss)
{
    const TempDir dir("garbage");
    const std::uint64_t key = 0xdeadbeefcafe1234ull;
    {
        char name[64];
        std::snprintf(name, sizeof name, "%016llx.pmc",
                      static_cast<unsigned long long>(key));
        std::ofstream file(dir.path() / name, std::ios::binary);
        file << "this is not a cache entry";
    }

    DiskCache cache(cacheOptions(dir.str()));
    EXPECT_TRUE(cache.contains(key)); // indexed by name, unverified
    const Machine machine(MachineConfig::forQubits(4));
    EXPECT_EQ(cache.load(key, machine), nullptr); // verification rejects
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_FALSE(cache.contains(key));
}

TEST(DiskCacheTest, ByteBudgetEvictsLeastRecentlyUsed)
{
    const TempDir dir("evict");
    const CompileJob probe = smallJob(1);
    const Machine machine(probe.machine);
    const std::uint64_t entry_bytes =
        serializeCompileResult(compileDirect(probe, machine)).size() + 36;

    // Room for roughly two entries of variant-1 size; variants 2 and 3
    // are larger, so after three stores only the newest survive.
    DiskCache cache(cacheOptions(dir.str(), entry_bytes * 2));
    std::vector<std::uint64_t> keys;
    for (std::size_t variant = 1; variant <= 3; ++variant) {
        const CompileJob job = smallJob(variant);
        keys.push_back(jobFingerprint(job));
        cache.store(keys.back(), compileDirect(job, machine));
    }

    const DiskCacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.bytes, entry_bytes * 2);
    EXPECT_FALSE(cache.contains(keys[0])); // oldest gone
    EXPECT_TRUE(cache.contains(keys[2]));  // newest always kept
}

TEST(DiskCacheTest, ServiceWarmRestartServesBitIdenticalFromDisk)
{
    const TempDir dir("service_restart");
    const CompileJob job = smallJob();
    const Machine machine(job.machine);
    const std::string fresh_bytes =
        serializeResultWitness(compileDirect(job, machine));

    const JobServiceOptions options = diskServiceOptions(2, dir.str());
    {
        JobService cold(options);
        const JobResult out = run(cold, job);
        EXPECT_EQ(out.source, ResultSource::Compiled);
        EXPECT_EQ(serializeResultWitness(*out.result), fresh_bytes);
        EXPECT_EQ(cold.stats().disk.stores, 1u);
    } // service gone; memory cache gone; only the disk entry remains

    JobService warm(options);
    const JobResult out = run(warm, job);
    EXPECT_TRUE(out.from_cache);
    EXPECT_EQ(out.source, ResultSource::Disk);
    // The acceptance bar: compiled-fresh and served-from-disk results
    // are byte-identical under the canonical encoding.
    EXPECT_EQ(serializeResultWitness(*out.result), fresh_bytes);

    const JobServiceStats stats = warm.stats();
    EXPECT_EQ(stats.disk_hits, 1u);
    EXPECT_EQ(stats.compiled, 0u); // nothing compiled
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.disk.hits, 1u);

    // Second submission is now a memory hit, not another disk read.
    const JobResult again = run(warm, job);
    EXPECT_EQ(again.source, ResultSource::Memory);
    EXPECT_EQ(warm.stats().disk.hits, 1u);
}

TEST(DiskCacheTest, TwoLiveServicesShareOneCacheDirectory)
{
    const TempDir dir("shared");
    const JobServiceOptions options = diskServiceOptions(2, dir.str());

    // Both instances are alive at once, as two processes would be.
    JobService a(options);
    JobService b(options);

    std::vector<std::string> via_a(4);
    std::vector<std::string> via_b(4);
    std::thread feeder([&] {
        for (std::size_t v = 0; v < via_b.size(); ++v)
            via_b[v] =
                serializeResultWitness(*run(b, smallJob(v + 1)).result);
    });
    for (std::size_t v = 0; v < via_a.size(); ++v)
        via_a[v] = serializeResultWitness(*run(a, smallJob(v + 1)).result);
    feeder.join();

    // Wherever each result came from — fresh, raced, or read back from
    // the shared directory — both services agree byte-for-byte.
    for (std::size_t v = 0; v < via_a.size(); ++v)
        EXPECT_EQ(via_a[v], via_b[v]) << "variant " << (v + 1);

    // A third, cold instance sees the merged population.
    JobService c(options);
    for (std::size_t v = 0; v < via_a.size(); ++v) {
        const JobResult out = run(c, smallJob(v + 1));
        EXPECT_EQ(out.source, ResultSource::Disk) << "variant " << (v + 1);
        EXPECT_EQ(serializeResultWitness(*out.result), via_a[v]);
    }
    EXPECT_EQ(c.stats().disk_hits, via_a.size());
}

TEST(DiskCacheTest, DeriveToggleNeverAliasesDiskEntries)
{
    // Same fingerprint, different seeding rule: the disk keys differ, so
    // a cache populated with derived-seed schedules can never answer a
    // verbatim-seed service (or vice versa) with the wrong schedule.
    EXPECT_EQ(diskCacheKey(42, true), 42u);
    EXPECT_NE(diskCacheKey(42, false), 42u);
    EXPECT_NE(diskCacheKey(42, false), diskCacheKey(43, false));

    const TempDir dir("derive_toggle");
    const CompileJob job = smallJob();

    const JobServiceOptions derived = diskServiceOptions(1, dir.str());
    JobServiceOptions verbatim = derived;
    verbatim.derive_job_seeds = false;

    {
        JobService svc(derived);
        (void)run(svc, job);
        EXPECT_EQ(svc.stats().disk.stores, 1u);
    }
    {
        JobService svc(verbatim);
        const JobResult out = run(svc, job);
        // Compiled fresh — a miss, not a cross-rule disk hit — even
        // though the derived-seed entry for this very fingerprint is
        // sitting in the directory.
        EXPECT_EQ(out.source, ResultSource::Compiled);
        EXPECT_EQ(svc.stats().disk.hits, 0u);
    }
}

} // namespace
} // namespace powermove::service
