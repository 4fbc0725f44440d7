#include "service/disk_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <vector>

#include "common/error.hpp"
#include "service/fingerprint.hpp"

namespace powermove::service {

namespace {

/*
 * Payload encoding: little-endian u64 for every integer, IEEE-754 bit
 * patterns for doubles, length-prefixed bytes for strings, one tag byte
 * per instruction. The encoding is canonical — one result has exactly
 * one serialization — which is what lets the tests use byte equality of
 * serializations as the "bit-identical schedule" witness.
 */

class ByteWriter
{
  public:
    void
    u8(std::uint8_t value)
    {
        buffer_.push_back(static_cast<char>(value));
    }

    void
    u64(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            buffer_.push_back(static_cast<char>(value >> (8 * i)));
    }

    void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

    void
    str(std::string_view text)
    {
        u64(text.size());
        buffer_.append(text.data(), text.size());
    }

    std::string take() { return std::move(buffer_); }

  private:
    std::string buffer_;
};

/** Bounds-checked reader: every getter reports failure instead of
 *  reading past the end, so truncated payloads decode to "corrupt". */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view data) : data_(data) {}

    bool
    u8(std::uint8_t &out)
    {
        if (pos_ + 1 > data_.size())
            return false;
        out = static_cast<std::uint8_t>(data_[pos_++]);
        return true;
    }

    bool
    u64(std::uint64_t &out)
    {
        if (pos_ + 8 > data_.size())
            return false;
        out = 0;
        for (int i = 0; i < 8; ++i)
            out |= static_cast<std::uint64_t>(
                       static_cast<unsigned char>(data_[pos_ + i]))
                   << (8 * i);
        pos_ += 8;
        return true;
    }

    bool
    f64(double &out)
    {
        std::uint64_t bits = 0;
        if (!u64(bits))
            return false;
        out = std::bit_cast<double>(bits);
        return true;
    }

    bool
    str(std::string &out)
    {
        std::uint64_t size = 0;
        if (!u64(size) || size > remaining())
            return false;
        out.assign(data_.data() + pos_, static_cast<std::size_t>(size));
        pos_ += static_cast<std::size_t>(size);
        return true;
    }

    /**
     * Reads an element count that must leave at least @p min_elem_bytes
     * of payload per element — rejecting absurd counts before any
     * allocation sized by them.
     */
    bool
    count(std::uint64_t &out, std::size_t min_elem_bytes)
    {
        if (!u64(out))
            return false;
        return min_elem_bytes == 0 ||
               out <= remaining() / min_elem_bytes;
    }

    std::size_t remaining() const { return data_.size() - pos_; }
    bool done() const { return pos_ == data_.size(); }

  private:
    std::string_view data_;
    std::size_t pos_ = 0;
};

constexpr std::uint8_t kTagOneQLayer = 1;
constexpr std::uint8_t kTagMoveBatch = 2;
constexpr std::uint8_t kTagRydberg = 3;

void
writeBreakdown(ByteWriter &out, const FidelityBreakdown &metrics)
{
    out.u64(metrics.one_q_gates);
    out.u64(metrics.cz_gates);
    out.u64(metrics.excitation_exposures);
    out.u64(metrics.transfers);
    out.u64(metrics.pulses);
    out.f64(metrics.exec_time.micros());
    out.f64(metrics.total_idle.micros());
    out.f64(metrics.one_q_factor);
    out.f64(metrics.two_q_factor);
    out.f64(metrics.excitation_factor);
    out.f64(metrics.transfer_factor);
    out.f64(metrics.decoherence_factor);
}

bool
readBreakdown(ByteReader &in, FidelityBreakdown &metrics)
{
    std::uint64_t counts[5];
    for (std::uint64_t &value : counts)
        if (!in.u64(value))
            return false;
    metrics.one_q_gates = static_cast<std::size_t>(counts[0]);
    metrics.cz_gates = static_cast<std::size_t>(counts[1]);
    metrics.excitation_exposures = static_cast<std::size_t>(counts[2]);
    metrics.transfers = static_cast<std::size_t>(counts[3]);
    metrics.pulses = static_cast<std::size_t>(counts[4]);

    double micros = 0.0;
    if (!in.f64(micros))
        return false;
    metrics.exec_time = Duration::micros(micros);
    if (!in.f64(micros))
        return false;
    metrics.total_idle = Duration::micros(micros);
    return in.f64(metrics.one_q_factor) && in.f64(metrics.two_q_factor) &&
           in.f64(metrics.excitation_factor) &&
           in.f64(metrics.transfer_factor) &&
           in.f64(metrics.decoherence_factor);
}

void
writeSchedule(ByteWriter &out, const MachineSchedule &schedule)
{
    out.u64(schedule.initialSites().size());
    for (const SiteId site : schedule.initialSites())
        out.u64(site);

    out.u64(schedule.instructions().size());
    for (const Instruction &instruction : schedule.instructions()) {
        if (const auto *one_q = std::get_if<OneQLayerOp>(&instruction)) {
            out.u8(kTagOneQLayer);
            out.u64(one_q->gate_count);
            out.u64(one_q->depth);
        } else if (const auto *batch = std::get_if<MoveBatchOp>(&instruction)) {
            out.u8(kTagMoveBatch);
            out.u64(batch->batch.groups.size());
            for (const CollMove &group : batch->batch.groups) {
                out.u64(group.moves.size());
                for (const QubitMove &move : group.moves) {
                    out.u64(move.qubit);
                    out.u64(move.from);
                    out.u64(move.to);
                }
            }
        } else {
            const auto &rydberg = std::get<RydbergOp>(instruction);
            out.u8(kTagRydberg);
            out.u64(rydberg.gates.size());
            for (const CzGate &gate : rydberg.gates) {
                out.u64(gate.a);
                out.u64(gate.b);
            }
            out.u64(rydberg.block_index);
        }
    }
}

/**
 * Rebuilds the schedule by replaying its instruction stream through the
 * MachineSchedule mutators, which re-derives every cached counter the
 * same way the compiler originally did. Returns false on any structural
 * violation.
 */
bool
readSchedule(ByteReader &in, const Machine &machine,
             std::unique_ptr<MachineSchedule> &out)
{
    const std::uint64_t num_sites = machine.numSites();
    const std::uint64_t num_qubits_limit = num_sites;

    std::uint64_t num_qubits = 0;
    if (!in.count(num_qubits, 8) || num_qubits > num_qubits_limit)
        return false;
    std::vector<SiteId> initial_sites;
    initial_sites.reserve(static_cast<std::size_t>(num_qubits));
    for (std::uint64_t q = 0; q < num_qubits; ++q) {
        std::uint64_t site = 0;
        if (!in.u64(site) || site >= num_sites)
            return false;
        initial_sites.push_back(static_cast<SiteId>(site));
    }
    out = std::make_unique<MachineSchedule>(machine,
                                            std::move(initial_sites));

    std::uint64_t num_instructions = 0;
    if (!in.count(num_instructions, 1))
        return false;
    for (std::uint64_t i = 0; i < num_instructions; ++i) {
        std::uint8_t tag = 0;
        if (!in.u8(tag))
            return false;
        if (tag == kTagOneQLayer) {
            std::uint64_t gate_count = 0;
            std::uint64_t depth = 0;
            if (!in.u64(gate_count) || !in.u64(depth))
                return false;
            // addOneQLayer() asserts these; a violation is corruption.
            if (gate_count == 0 || depth == 0 || depth > gate_count)
                return false;
            out->addOneQLayer(static_cast<std::size_t>(gate_count),
                              static_cast<std::size_t>(depth));
        } else if (tag == kTagMoveBatch) {
            std::uint64_t num_groups = 0;
            if (!in.count(num_groups, 8))
                return false;
            AodBatch batch;
            batch.groups.reserve(static_cast<std::size_t>(num_groups));
            std::size_t moved = 0;
            for (std::uint64_t g = 0; g < num_groups; ++g) {
                std::uint64_t num_moves = 0;
                if (!in.count(num_moves, 24))
                    return false;
                CollMove group;
                group.moves.reserve(static_cast<std::size_t>(num_moves));
                for (std::uint64_t m = 0; m < num_moves; ++m) {
                    std::uint64_t qubit = 0, from = 0, to = 0;
                    if (!in.u64(qubit) || !in.u64(from) || !in.u64(to))
                        return false;
                    if (qubit >= num_qubits || from >= num_sites ||
                        to >= num_sites)
                        return false;
                    group.moves.push_back(
                        QubitMove{static_cast<QubitId>(qubit),
                                  static_cast<SiteId>(from),
                                  static_cast<SiteId>(to)});
                }
                moved += group.moves.size();
                batch.groups.push_back(std::move(group));
            }
            // addMoveBatch() silently drops empty batches; a serialized
            // schedule never contains one, so treat it as corruption
            // rather than altering the instruction count.
            if (moved == 0)
                return false;
            out->addMoveBatch(std::move(batch));
        } else if (tag == kTagRydberg) {
            std::uint64_t num_gates = 0;
            if (!in.count(num_gates, 16) || num_gates == 0)
                return false;
            std::vector<CzGate> gates;
            gates.reserve(static_cast<std::size_t>(num_gates));
            for (std::uint64_t g = 0; g < num_gates; ++g) {
                std::uint64_t a = 0, b = 0;
                if (!in.u64(a) || !in.u64(b))
                    return false;
                if (a >= num_qubits || b >= num_qubits)
                    return false;
                gates.push_back(CzGate{static_cast<QubitId>(a),
                                       static_cast<QubitId>(b)});
            }
            std::uint64_t block_index = 0;
            if (!in.u64(block_index))
                return false;
            out->addRydberg(std::move(gates),
                            static_cast<std::size_t>(block_index));
        } else {
            return false;
        }
    }
    return true;
}

void
writeProfiles(ByteWriter &out, const std::vector<PassProfile> &profiles)
{
    out.u64(profiles.size());
    for (const PassProfile &profile : profiles) {
        out.u8(static_cast<std::uint8_t>(profile.pass));
        out.f64(profile.wall_time.micros());
        out.u64(profile.invocations);
        out.u64(profile.counters.size());
        for (const PassCounter &counter : profile.counters) {
            out.str(counter.name);
            out.u64(counter.value);
        }
    }
}

bool
readProfiles(ByteReader &in, std::vector<PassProfile> &profiles)
{
    std::uint64_t num_profiles = 0;
    if (!in.count(num_profiles, 25))
        return false;
    profiles.reserve(static_cast<std::size_t>(num_profiles));
    for (std::uint64_t p = 0; p < num_profiles; ++p) {
        PassProfile profile;
        std::uint8_t pass = 0;
        if (!in.u8(pass) || pass >= kNumPasses)
            return false;
        profile.pass = static_cast<PassId>(pass);
        double micros = 0.0;
        std::uint64_t invocations = 0;
        std::uint64_t num_counters = 0;
        if (!in.f64(micros) || !in.u64(invocations) ||
            !in.count(num_counters, 16))
            return false;
        profile.wall_time = Duration::micros(micros);
        profile.invocations = static_cast<std::size_t>(invocations);
        profile.counters.reserve(static_cast<std::size_t>(num_counters));
        for (std::uint64_t c = 0; c < num_counters; ++c) {
            PassCounter counter;
            if (!in.str(counter.name) || !in.u64(counter.value))
                return false;
            profile.counters.push_back(std::move(counter));
        }
        profiles.push_back(std::move(profile));
    }
    return true;
}

/*
 * Entry file layout: a 36-byte header followed by the payload.
 *
 *   offset  size  field
 *        0     4  magic "PMDC"
 *        4     4  format version (little-endian u32)
 *        8     8  job fingerprint
 *       16     8  payload size in bytes
 *       24     8  payload checksum (4-lane FNV-1a, payloadChecksum())
 *       32     4  reserved (zero)
 */
constexpr char kMagic[4] = {'P', 'M', 'D', 'C'};
constexpr std::size_t kHeaderSize = 36;

/*
 * Payload checksum: four FNV-1a-64 lanes fed 8-byte little-endian words
 * round-robin, folded (with the total size) by a final FNV pass. Plain
 * FNV-1a is one dependent multiply per byte — a megabyte payload stalls
 * the multiplier pipeline for milliseconds, and the checksum sits on
 * the warm path of every disk-cache load. Four word-wide lanes keep the
 * multiplies independent and cut the critical path by ~32x.
 */
std::uint64_t
payloadChecksum(std::string_view payload)
{
    std::uint64_t lanes[4] = {
        Fnv1a::kOffsetBasis ^ 1, Fnv1a::kOffsetBasis ^ 2,
        Fnv1a::kOffsetBasis ^ 3, Fnv1a::kOffsetBasis ^ 4};
    const std::size_t words = payload.size() / 8;
    const char *cursor = payload.data();
    for (std::size_t w = 0; w < words; ++w, cursor += 8) {
        std::uint64_t word = 0; // canonical LE (a plain load on LE hosts)
        for (int b = 0; b < 8; ++b)
            word |= static_cast<std::uint64_t>(
                        static_cast<unsigned char>(cursor[b]))
                    << (8 * b);
        lanes[w & 3] = (lanes[w & 3] ^ word) * Fnv1a::kPrime;
    }
    Fnv1a fold;
    fold.addBytes(cursor, payload.size() - 8 * words); // tail bytes
    for (const std::uint64_t lane : lanes)
        fold.add(lane);
    fold.add(payload.size());
    return fold.digest();
}

void
writeU32(char *out, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<char>(value >> (8 * i));
}

void
writeU64(char *out, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<char>(value >> (8 * i));
}

std::uint32_t
readU32(const char *in)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[i]))
                 << (8 * i);
    return value;
}

std::uint64_t
readU64(const char *in)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
                 << (8 * i);
    return value;
}

} // namespace

std::string
serializeCompileResult(const CompileResult &result)
{
    ByteWriter out;
    writeSchedule(out, result.schedule);
    writeBreakdown(out, result.metrics);
    out.f64(result.compile_time.micros());
    out.u64(result.num_stages);
    out.u64(result.num_coll_moves);
    writeProfiles(out, result.pass_profiles);
    return out.take();
}

std::string
serializeResultWitness(const CompileResult &result)
{
    ByteWriter out;
    writeSchedule(out, result.schedule);
    writeBreakdown(out, result.metrics);
    out.u64(result.num_stages);
    out.u64(result.num_coll_moves);
    // Profiles without their wall times: invocation counts and pass
    // counters are deterministic, the clock readings are not.
    out.u64(result.pass_profiles.size());
    for (const PassProfile &profile : result.pass_profiles) {
        out.u8(static_cast<std::uint8_t>(profile.pass));
        out.u64(profile.invocations);
        out.u64(profile.counters.size());
        for (const PassCounter &counter : profile.counters) {
            out.str(counter.name);
            out.u64(counter.value);
        }
    }
    return out.take();
}

std::shared_ptr<const CompileResult>
deserializeCompileResult(std::string_view payload, const Machine &machine)
{
    ByteReader in(payload);
    std::unique_ptr<MachineSchedule> schedule;
    FidelityBreakdown metrics;
    double compile_micros = 0.0;
    std::uint64_t num_stages = 0;
    std::uint64_t num_coll_moves = 0;
    std::vector<PassProfile> profiles;
    try {
        if (!readSchedule(in, machine, schedule) ||
            !readBreakdown(in, metrics) || !in.f64(compile_micros) ||
            !in.u64(num_stages) || !in.u64(num_coll_moves) ||
            !readProfiles(in, profiles) || !in.done())
            return nullptr;
    } catch (...) {
        // Replay tripped a schedule invariant the field checks missed;
        // corrupt data must read as a miss, never as an exception.
        return nullptr;
    }
    return std::make_shared<const CompileResult>(CompileResult{
        std::move(*schedule), metrics, Duration::micros(compile_micros),
        static_cast<std::size_t>(num_stages),
        static_cast<std::size_t>(num_coll_moves), std::move(profiles)});
}

DiskCache::DiskCache(DiskCacheOptions options)
    : dir_(options.dir), max_bytes_(options.max_bytes),
      obs_(obs::bundleOrPrivate(std::move(options.obs)))
{
    if (dir_.empty())
        throw ConfigError("disk cache directory must not be empty");
    obs::MetricsRegistry &reg = obs_->metrics;
    metric_.hits = &reg.counter("powermove_disk_cache_hits_total");
    metric_.misses = &reg.counter("powermove_disk_cache_misses_total");
    metric_.stores = &reg.counter("powermove_disk_cache_stores_total");
    metric_.corrupt = &reg.counter("powermove_disk_cache_corrupt_total");
    metric_.evictions = &reg.counter("powermove_disk_cache_evictions_total");
    metric_.read_bytes = &reg.counter("powermove_disk_cache_read_bytes_total");
    metric_.write_bytes =
        &reg.counter("powermove_disk_cache_write_bytes_total");
    metric_.entries = &reg.gauge("powermove_disk_cache_entries");
    metric_.resident_bytes = &reg.gauge("powermove_disk_cache_resident_bytes");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        throw ConfigError("cannot create disk cache directory '" +
                          dir_.string() + "': " + ec.message());

    // Index the survivors of previous processes, oldest first so the
    // in-memory LRU order continues where the last run left off, and
    // sweep temp files a torn write may have stranded.
    struct Found
    {
        std::uint64_t fingerprint;
        std::uint64_t bytes;
        std::filesystem::file_time_type mtime;
    };
    std::vector<Found> found;
    for (const auto &entry : std::filesystem::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        const std::filesystem::path &path = entry.path();
        if (path.extension() == ".tmp") {
            std::filesystem::remove(path, ec);
            continue;
        }
        if (path.extension() != ".pmc")
            continue;
        const std::string stem = path.stem().string();
        char *end = nullptr;
        const std::uint64_t fingerprint =
            std::strtoull(stem.c_str(), &end, 16);
        if (end == stem.c_str() || *end != '\0')
            continue;
        found.push_back(Found{fingerprint,
                              static_cast<std::uint64_t>(entry.file_size(ec)),
                              entry.last_write_time(ec)});
    }
    std::sort(found.begin(), found.end(),
              [](const Found &a, const Found &b) { return a.mtime < b.mtime; });

    std::unique_lock<std::mutex> lock(mutex_);
    for (const Found &entry : found)
        indexEntry(entry.fingerprint, entry.bytes, lock);
    const std::vector<std::filesystem::path> victims = collectEvictions(lock);
    const std::size_t entries = index_.size();
    const std::uint64_t resident = resident_bytes_;
    publishResidency();
    lock.unlock();
    for (const std::filesystem::path &victim : victims)
        std::filesystem::remove(victim, ec);
    obs_->log.info("disk_cache_open", {{"dir", dir_.string()},
                                       {"entries", entries},
                                       {"bytes", resident},
                                       {"swept", victims.size()}});
}

std::filesystem::path
DiskCache::entryPath(std::uint64_t fingerprint) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.pmc",
                  static_cast<unsigned long long>(fingerprint));
    return dir_ / name;
}

std::shared_ptr<const CompileResult>
DiskCache::load(std::uint64_t fingerprint, const Machine &machine)
{
    const std::filesystem::path path = entryPath(fingerprint);

    // All file I/O runs outside the index lock; a concurrent eviction
    // just makes the open fail, which reads as a miss.
    std::string blob;
    {
        std::FILE *file = std::fopen(path.c_str(), "rb");
        if (file == nullptr) {
            metric_.misses->add(1);
            return nullptr;
        }
        char buffer[1 << 16];
        std::size_t got = 0;
        while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
            blob.append(buffer, got);
        std::fclose(file);
    }

    bool ok = blob.size() >= kHeaderSize &&
              std::memcmp(blob.data(), kMagic, sizeof(kMagic)) == 0 &&
              readU32(blob.data() + 4) == kFormatVersion &&
              readU64(blob.data() + 8) == fingerprint;
    std::shared_ptr<const CompileResult> result;
    if (ok) {
        const std::uint64_t payload_size = readU64(blob.data() + 16);
        const std::uint64_t checksum = readU64(blob.data() + 24);
        const std::string_view payload(blob.data() + kHeaderSize,
                                       blob.size() - kHeaderSize);
        ok = payload_size == payload.size() &&
             checksum == payloadChecksum(payload);
        if (ok) {
            result = deserializeCompileResult(payload, machine);
            ok = result != nullptr;
        }
    }

    std::unique_lock<std::mutex> lock(mutex_);
    if (!ok) {
        dropIndexEntry(fingerprint);
        publishResidency();
        lock.unlock();
        std::error_code ec;
        std::filesystem::remove(path, ec);
        metric_.misses->add(1);
        metric_.corrupt->add(1);
        metric_.read_bytes->add(blob.size());
        obs_->log.warn("disk_cache_corrupt",
                       {{"path", path.string()}, {"bytes", blob.size()}});
        return nullptr;
    }
    // Refresh recency (and adopt entries another process wrote).
    indexEntry(fingerprint, blob.size(), lock);
    publishResidency();
    lock.unlock();
    metric_.hits->add(1);
    metric_.read_bytes->add(blob.size());
    return result;
}

void
DiskCache::store(std::uint64_t fingerprint, const CompileResult &result)
{
    if (max_bytes_ == 0)
        return;

    const std::string payload = serializeCompileResult(result);
    std::string blob(kHeaderSize, '\0');
    std::memcpy(blob.data(), kMagic, sizeof(kMagic));
    writeU32(blob.data() + 4, kFormatVersion);
    writeU64(blob.data() + 8, fingerprint);
    writeU64(blob.data() + 16, payload.size());
    writeU64(blob.data() + 24, payloadChecksum(payload));
    blob += payload;

    std::uint64_t temp_id = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        temp_id = ++temp_counter_;
    }
    char temp_name[64];
    std::snprintf(temp_name, sizeof(temp_name), "w%016llx-%llu.tmp",
                  static_cast<unsigned long long>(fingerprint),
                  static_cast<unsigned long long>(temp_id));
    const std::filesystem::path temp_path = dir_ / temp_name;

    std::FILE *file = std::fopen(temp_path.c_str(), "wb");
    if (file == nullptr)
        return;
    const bool wrote =
        std::fwrite(blob.data(), 1, blob.size(), file) == blob.size();
    const bool closed = std::fclose(file) == 0;
    std::error_code ec;
    if (!wrote || !closed) {
        std::filesystem::remove(temp_path, ec);
        return;
    }

    // rename() is atomic within one filesystem: readers in any process
    // see either the old entry or the complete new one, never a torn
    // intermediate.
    std::filesystem::rename(temp_path, entryPath(fingerprint), ec);
    if (ec) {
        std::filesystem::remove(temp_path, ec);
        return;
    }

    std::unique_lock<std::mutex> lock(mutex_);
    indexEntry(fingerprint, blob.size(), lock);
    const std::vector<std::filesystem::path> victims = collectEvictions(lock);
    const std::uint64_t resident = resident_bytes_;
    publishResidency();
    lock.unlock();
    for (const std::filesystem::path &victim : victims)
        std::filesystem::remove(victim, ec);
    metric_.stores->add(1);
    metric_.write_bytes->add(blob.size());
    if (!victims.empty())
        obs_->log.debug("disk_cache_evict",
                        {{"victims", victims.size()}, {"bytes", resident}});
}

bool
DiskCache::contains(std::uint64_t fingerprint) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return index_.find(fingerprint) != index_.end();
}

DiskCacheStats
DiskCache::stats() const
{
    DiskCacheStats stats;
    stats.hits = metric_.hits->value();
    stats.misses = metric_.misses->value();
    stats.stores = metric_.stores->value();
    stats.corrupt = metric_.corrupt->value();
    stats.evictions = metric_.evictions->value();
    const std::lock_guard<std::mutex> lock(mutex_);
    stats.entries = index_.size();
    stats.bytes = resident_bytes_;
    return stats;
}

void
DiskCache::indexEntry(std::uint64_t fingerprint, std::uint64_t bytes,
                      std::unique_lock<std::mutex> &)
{
    if (const auto it = index_.find(fingerprint); it != index_.end()) {
        resident_bytes_ += bytes - it->second.bytes;
        it->second.bytes = bytes;
        order_.splice(order_.begin(), order_, it->second.position);
        return;
    }
    order_.push_front(fingerprint);
    index_.emplace(fingerprint, IndexEntry{bytes, order_.begin()});
    resident_bytes_ += bytes;
}

void
DiskCache::dropIndexEntry(std::uint64_t fingerprint)
{
    const auto it = index_.find(fingerprint);
    if (it == index_.end())
        return;
    resident_bytes_ -= it->second.bytes;
    order_.erase(it->second.position);
    index_.erase(it);
}

void
DiskCache::publishResidency()
{
    metric_.entries->set(static_cast<double>(index_.size()));
    metric_.resident_bytes->set(static_cast<double>(resident_bytes_));
}

std::vector<std::filesystem::path>
DiskCache::collectEvictions(std::unique_lock<std::mutex> &)
{
    std::vector<std::filesystem::path> victims;
    // Keep at least the most recent entry resident: a single result
    // larger than the whole budget must still be servable, or a warm
    // restart could never hit.
    while (resident_bytes_ > max_bytes_ && index_.size() > 1) {
        const std::uint64_t victim = order_.back();
        victims.push_back(entryPath(victim));
        dropIndexEntry(victim);
        metric_.evictions->add(1);
    }
    return victims;
}

} // namespace powermove::service
