#include "route/router.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"
#include "common/geometry.hpp"

namespace powermove {

namespace {

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

// Packed idle-sort key widths: (y << 42) | (x << 21) | qubit sorts
// ascending by (y, x, id), the parking order of step 1.
constexpr std::uint32_t kKeyBits = 21;
constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << kKeyBits) - 1;

/** Adds @p by to an epoch-stamped count; a stale stamp reads as 0. */
void
bumpStamped(std::vector<std::uint64_t> &stamps, std::vector<int> &counts,
            SiteId site, std::uint64_t epoch, int by)
{
    if (stamps[site] != epoch) {
        stamps[site] = epoch;
        counts[site] = 0;
    }
    counts[site] += by;
}

} // namespace

ContinuousRouter::ContinuousRouter(const Machine &machine,
                                   RouterOptions options)
    : ContinuousRouter(machine, options, own_rng_)
{}

ContinuousRouter::ContinuousRouter(const Machine &machine,
                                   RouterOptions options, Rng &rng)
    : machine_(machine), options_(options), own_rng_(options.seed), rng_(&rng)
{
    initGeometry();
}

void
ContinuousRouter::initGeometry()
{
    const auto &config = machine_.config();
    compute_cols_ = config.compute_cols;
    compute_rows_ = config.compute_rows;
    storage_cols_ = config.storage_cols;
    storage_rows_ = config.storage_rows;
    storage_top_row_ = machine_.storageTopRow();
    num_compute_ = machine_.numComputeSites();
    num_sites_ = machine_.numSites();

    coord_x_.resize(num_sites_);
    coord_y_.resize(num_sites_);
    phys_x_.resize(num_sites_);
    phys_y_.resize(num_sites_);
    for (SiteId s = 0; s < num_sites_; ++s) {
        const SiteCoord coord = machine_.coordOf(s);
        coord_x_[s] = coord.x;
        coord_y_[s] = coord.y;
        const PhysCoord phys = machine_.physOf(s);
        phys_x_[s] = phys.x;
        phys_y_[s] = phys.y;
    }
    PM_ASSERT(static_cast<std::uint64_t>(
                  std::max(compute_cols_, storage_cols_)) < kKeyMask &&
                  static_cast<std::uint64_t>(storage_top_row_ +
                                             storage_rows_) < kKeyMask,
              "machine too large for the packed idle-sort keys");

    row_words_ = static_cast<std::size_t>((compute_cols_ + 63) / 64);
    col_words_ = static_cast<std::size_t>((storage_rows_ + 63) / 64);

    // Every in-range bit free: @p lines masks of @p bits bits each.
    // initFrom() copies these, then clears the occupied sites' bits.
    const auto all_free = [](std::int32_t bits, std::size_t words,
                             std::int32_t lines) {
        std::vector<std::uint64_t> masks(
            words * static_cast<std::size_t>(lines), kAllOnes);
        if (bits % 64 != 0) {
            for (std::size_t end = words; end <= masks.size(); end += words)
                masks[end - 1] = (std::uint64_t{1} << (bits % 64)) - 1;
        }
        return masks;
    };
    all_free_rows_ = all_free(compute_cols_, row_words_, compute_rows_);
    all_free_cols_ = all_free(storage_rows_, col_words_, storage_cols_);

    statics_epoch_.assign(num_sites_, 0);
    statics_at_.assign(num_sites_, 0);
    first_idle_epoch_.assign(num_sites_, 0);
    holds_epoch_.assign(num_sites_, 0);
    holds_at_.assign(num_sites_, 0);

    if (options_.residency) {
        PM_ASSERT(options_.use_storage, "atom reuse requires the storage zone");
        policy_ = makeResidencyPolicy(*options_.residency, options_.lookahead,
                                      machine_.params());
    }
}

void
ContinuousRouter::initFrom(const Layout &layout)
{
    const std::size_t num_qubits = layout.numQubits();
    PM_ASSERT(num_qubits < kKeyMask,
              "circuit too wide for the packed idle-sort keys");

    planned_.assign(num_sites_, 0);
    site_of_.resize(num_qubits);
    residents_.clear();
    resident_pos_.assign(num_qubits, kNpos);
    free_rows_ = all_free_rows_;
    free_cols_ = all_free_cols_;

    for (QubitId q = 0; q < num_qubits; ++q) {
        const SiteId site = layout.siteOf(q);
        PM_ASSERT(site != kInvalidSite,
                  "router requires a fully placed layout");
        site_of_[q] = site;
        plannedInc(site);
        if (site < num_compute_)
            addResident(q);
    }

    // Stamps below the current epoch are stale whatever their value, so
    // the stamped arrays only need (zeroed) storage of the right size.
    if (partner_epoch_.size() != num_qubits) {
        partner_epoch_.assign(num_qubits, 0);
        partner_.assign(num_qubits, kNoQubit);
        labeled_epoch_.assign(num_qubits, 0);
        target_epoch_.assign(num_qubits, 0);
        target_.assign(num_qubits, kInvalidSite);
        follower_epoch_.assign(num_qubits, 0);
        follower_.assign(num_qubits, kNoQubit);
    }

    initialized_ = true;
}

// ---------------------------------------------------- bitmask maintenance

std::pair<std::size_t, std::uint64_t>
ContinuousRouter::freeBitPos(SiteId site) const
{
    if (site < num_compute_) {
        const std::size_t cols = static_cast<std::size_t>(compute_cols_);
        const std::size_t x = site % cols;
        return {site / cols * row_words_ + x / 64,
                std::uint64_t{1} << (x % 64)};
    }
    const std::size_t index = site - num_compute_;
    const std::size_t cols = static_cast<std::size_t>(storage_cols_);
    const std::size_t r = index / cols;
    return {index % cols * col_words_ + r / 64,
            std::uint64_t{1} << (r % 64)};
}

void
ContinuousRouter::setFree(SiteId site, bool free)
{
    auto &masks = site < num_compute_ ? free_rows_ : free_cols_;
    const auto [word, bit] = freeBitPos(site);
    masks[word] = free ? masks[word] | bit : masks[word] & ~bit;
}

bool
ContinuousRouter::freeBit(SiteId site) const
{
    const auto &masks = site < num_compute_ ? free_rows_ : free_cols_;
    const auto [word, bit] = freeBitPos(site);
    return (masks[word] & bit) != 0;
}

void
ContinuousRouter::plannedInc(SiteId site)
{
    if (planned_[site]++ == 0)
        setFree(site, false);
}

void
ContinuousRouter::plannedDec(SiteId site)
{
    if (--planned_[site] == 0)
        setFree(site, true);
}

// -------------------------------------------------------- free-site search

std::int32_t
ContinuousRouter::firstFreeStorageRow(std::int32_t column) const
{
    const std::uint64_t *words =
        &free_cols_[static_cast<std::size_t>(column) * col_words_];
    for (std::size_t w = 0; w < col_words_; ++w) {
        if (words[w] != 0) {
            return static_cast<std::int32_t>(w * 64 +
                                             std::countr_zero(words[w]));
        }
    }
    return -1;
}

SiteId
ContinuousRouter::claimStorageSlot(std::int32_t origin_x) const
{
    // Lexicographic minimum of (|dx|, y, x) over planned-free storage
    // slots, scanning columns outward so the first hit at column
    // distance dx settles the answer after comparing both sides — the
    // same selection the oracle's forward cursors make, since every park
    // is planned before any storage qubit departs for its gate.
    const std::int32_t cols = storage_cols_;
    const std::int32_t span = cols + std::abs(origin_x);
    for (std::int32_t dx = 0; dx < span; ++dx) {
        std::int32_t best_x = -1;
        std::int32_t best_r = 0;
        for (int side = 0; side < 2; ++side) {
            if (side == 1 && dx == 0)
                continue;
            const std::int32_t x = side == 0 ? origin_x - dx : origin_x + dx;
            if (x < 0 || x >= cols)
                continue;
            const std::int32_t r = firstFreeStorageRow(x);
            if (r < 0)
                continue;
            if (best_x < 0 || r < best_r || (r == best_r && x < best_x)) {
                best_x = x;
                best_r = r;
            }
        }
        if (best_x >= 0) {
            return static_cast<SiteId>(
                num_compute_ +
                static_cast<std::size_t>(best_r) *
                    static_cast<std::size_t>(cols) +
                static_cast<std::size_t>(best_x));
        }
    }
    fatal("storage zone is full; enlarge the machine");
}

namespace {

/** Largest set bit index <= @p c over @p words, or -1. */
std::int32_t
nearestSetBitAtOrBelow(const std::uint64_t *words, std::int32_t c)
{
    std::size_t wi = static_cast<std::size_t>(c) / 64;
    std::uint64_t w = words[wi] & (kAllOnes >> (63 - c % 64));
    while (true) {
        if (w != 0) {
            return static_cast<std::int32_t>(wi * 64 + 63 -
                                             std::countl_zero(w));
        }
        if (wi == 0)
            return -1;
        w = words[--wi];
    }
}

/** Smallest set bit index >= @p c over @p num_words words, or -1. */
std::int32_t
nearestSetBitAtOrAbove(const std::uint64_t *words, std::int32_t c,
                       std::size_t num_words)
{
    std::size_t wi = static_cast<std::size_t>(c) / 64;
    std::uint64_t w = words[wi] & (kAllOnes << (c % 64));
    while (true) {
        if (w != 0)
            return static_cast<std::int32_t>(wi * 64 + std::countr_zero(w));
        if (++wi >= num_words)
            return -1;
        w = words[wi];
    }
}

} // namespace

SiteId
ContinuousRouter::findNearestFreeCompute(SiteId origin) const
{
    // The reference ring search returns the unique argmin of
    // (euclidean distance, y, x) over planned-free compute sites —
    // visit order never matters, only that the argmin is visited. This
    // walk enumerates rows by growing |dy| in both directions; per row
    // the distance-minimal candidates are the nearest free columns on
    // either side of the origin column (distance is monotone in |dx|
    // within a row), found by two bit scans. Both finalists go through
    // the reference comparator on the same euclidean doubles.
    const double from_x = phys_x_[origin];
    const double from_y = phys_y_[origin];
    const std::int32_t origin_col = coord_x_[origin];
    const std::int32_t origin_row = coord_y_[origin];
    const std::int32_t rows = compute_rows_;
    const std::int32_t cols = compute_cols_;

    SiteId best = kInvalidSite;
    double best_dist = std::numeric_limits<double>::infinity();
    std::int32_t best_y = 0;
    std::int32_t best_x = 0;

    const auto consider = [&](std::int32_t x, std::int32_t y) {
        const SiteId site = static_cast<SiteId>(
            static_cast<std::size_t>(y) * static_cast<std::size_t>(cols) +
            static_cast<std::size_t>(x));
        const double dist =
            euclidean(PhysCoord{from_x, from_y},
                      PhysCoord{phys_x_[site], phys_y_[site]})
                .microns();
        const bool better =
            dist < best_dist ||
            (dist == best_dist &&
             (y < best_y || (y == best_y && x < best_x)));
        if (best == kInvalidSite || better) {
            best = site;
            best_dist = dist;
            best_y = y;
            best_x = x;
        }
    };

    const auto scan_row = [&](std::int32_t y) {
        const std::uint64_t *words =
            &free_rows_[static_cast<std::size_t>(y) * row_words_];
        const std::int32_t left =
            nearestSetBitAtOrBelow(words, std::min(origin_col, cols - 1));
        if (left >= 0)
            consider(left, y);
        // A storage-zone origin can sit right of the last compute
        // column; every candidate is then on the "left" side already.
        if (origin_col < cols) {
            const std::int32_t right = nearestSetBitAtOrAbove(
                words, std::max(origin_col, 0), row_words_);
            if (right >= 0 && right != left)
                consider(right, y);
        }
    };

    // Every candidate in row y satisfies dist >= |row phys y - from_y|
    // up to two rounding errors (one in the squared sum, one in the
    // sqrt), so the bound shifted down two ulps prunes conservatively:
    // a row it rejects cannot contain the argmin.
    const auto row_lower_bound = [&](std::int32_t y) {
        const double row_y =
            phys_y_[static_cast<std::size_t>(y) *
                    static_cast<std::size_t>(cols)];
        double bound = std::abs(row_y - from_y);
        bound = std::nextafter(bound,
                               -std::numeric_limits<double>::infinity());
        bound = std::nextafter(bound,
                               -std::numeric_limits<double>::infinity());
        return bound;
    };

    // Walk rows outward from the origin row: "up" decreases y from the
    // nearest in-zone row, "down" increases it; a storage-zone origin
    // sits below every compute row, so only "up" is live. Each
    // direction visits rows in non-decreasing real |dy| and stops once
    // its next row's lower bound exceeds the incumbent distance.
    std::int32_t up = std::min(origin_row, rows - 1);
    std::int32_t down = origin_row < rows ? origin_row + 1 : rows;
    while (up >= 0 || down < rows) {
        if (up >= 0) {
            if (best != kInvalidSite && row_lower_bound(up) > best_dist) {
                up = -1;
            } else {
                scan_row(up);
                --up;
            }
        }
        if (down < rows) {
            if (best != kInvalidSite && row_lower_bound(down) > best_dist) {
                down = rows;
            } else {
                scan_row(down);
                ++down;
            }
        }
    }
    return best;
}

// -------------------------------------------------------------- residents

void
ContinuousRouter::addResident(QubitId qubit)
{
    resident_pos_[qubit] = residents_.size();
    residents_.push_back(qubit);
}

void
ContinuousRouter::removeResident(QubitId qubit)
{
    const std::size_t pos = resident_pos_[qubit];
    PM_ASSERT(pos != kNpos, "qubit is not a compute-zone resident");
    const QubitId last = residents_.back();
    residents_[pos] = last;
    resident_pos_[last] = pos;
    residents_.pop_back();
    resident_pos_[qubit] = kNpos;
}

// --------------------------------------------------------------- residency

void
ContinuousRouter::beginBlock(const std::vector<Stage> &stages,
                             std::size_t num_qubits, bool final_block)
{
    if (policy_ == nullptr)
        return;
    // Close the previous block's surviving residencies at its end (the
    // current global stage, one past its last transition). Persistent
    // policies skip this: their survivors stay resident and are
    // re-validated by partition() at the next transition.
    if (!lifetimes_sized_ || !policy_->persistsAcrossBlocks()) {
        lifetimes_.reset(num_qubits, global_stage_);
        lifetimes_sized_ = true;
    }
    analysis_.beginBlock(stages, num_qubits, final_block);
    stage_cursor_ = 0;
}

void
ContinuousRouter::endProgram()
{
    if (policy_ == nullptr)
        return;
    lifetimes_.reset(0, global_stage_);
    lifetimes_sized_ = false;
}

std::uint64_t
ContinuousRouter::idleKey(QubitId qubit) const
{
    const SiteId site = site_of_[qubit];
    return (static_cast<std::uint64_t>(coord_y_[site]) << (2 * kKeyBits)) |
           (static_cast<std::uint64_t>(coord_x_[site]) << kKeyBits) | qubit;
}

void
ContinuousRouter::partitionIdle(const Stage &stage, TransitionPlan &plan)
{
    PM_ASSERT(stage_cursor_ < analysis_.numStages(),
              "beginBlock() must announce the block's stages before routing");
    const std::size_t stage_index = stage_cursor_++;
    const std::size_t global_index = global_stage_++;

    // The policy sees the idle residents in ascending qubit order and
    // only decides membership; the releases park in the router's
    // (y, x, id) order and the holds settle in it.
    candidates_.clear();
    for (const QubitId q : residents_) {
        if (partner_epoch_[q] != epoch_)
            candidates_.push_back(q);
    }
    std::sort(candidates_.begin(), candidates_.end());
    releases_.clear();
    const std::size_t gate_sites = stage.gates.size();
    const std::size_t capacity =
        num_compute_ > gate_sites ? num_compute_ - gate_sites : 0;
    policy_->partition(
        ResidencyQuery{candidates_, stage_index, analysis_, capacity},
        holds_, releases_);
    PM_ASSERT(holds_.size() + releases_.size() == candidates_.size(),
              "residency policy must partition every candidate");

    for (const QubitId q : holds_)
        bumpStamped(holds_epoch_, holds_at_, site_of_[q], epoch_, 1);
    for (const QubitId q : releases_) {
        // A release with no further use in the block is just correct
        // parking; one with a known upcoming use is a genuine window,
        // pressure or cost miss.
        ++plan.num_lookahead_misses;
        if (analysis_.effectiveNextUse(stage_index, q) == kNoNextUse)
            ++plan.num_parked_no_reuse;
        else
            ++plan.num_window_misses;
        lifetimes_.release(q, global_index);
        idle_keys_.push_back(idleKey(q));
    }

    // A hold that pays off: the qubit enters its next gate while still
    // resident, having skipped at least one storage round trip.
    for (const auto &gate : stage.gates) {
        for (const QubitId q : {gate.a, gate.b}) {
            if (lifetimes_.isResident(q)) {
                ++plan.num_reuse_hits;
                lifetimes_.release(q, global_index);
            }
        }
    }
}

void
ContinuousRouter::settleHolds(TransitionPlan &plan)
{
    relocated_.clear();
    if (holds_.empty())
        return;
    const std::size_t global_index = global_stage_ - 1; // this transition
    // A hold survives in place only if its site ends the transition
    // with the held qubit alone; a site claimed by an interaction or
    // shared with another idle atom would blockade during the pulse.
    idle_keys_.clear();
    for (const QubitId q : holds_)
        idle_keys_.push_back(idleKey(q));
    std::sort(idle_keys_.begin(), idle_keys_.end());
    for (const std::uint64_t key : idle_keys_) {
        const QubitId q = static_cast<QubitId>(key & kKeyMask);
        const SiteId site = site_of_[q];
        if (planned_[site] == 1) {
            ++plan.num_held;
            lifetimes_.hold(q, global_index);
            continue;
        }
        // Relocate to the nearest surviving compute site. One always
        // survives: every policy holds at most the compute sites the
        // stage's gate pairs leave free (ResidencyQuery::capacity).
        const SiteId dest = findNearestFreeCompute(site);
        PM_ASSERT(dest != kInvalidSite,
                  "a hold within capacity found no free compute site");
        plannedDec(site);
        plannedInc(dest);
        target_[q] = dest;
        target_epoch_[q] = epoch_;
        relocated_.push_back(q);
        ++plan.num_held;
        ++plan.num_reuse_relocated;
        lifetimes_.hold(q, global_index);
    }
}

// ------------------------------------------------------------------- plan

TransitionPlan
ContinuousRouter::planStageTransition(Layout &layout, const Stage &stage)
{
    PM_ASSERT(stage.qubitsDisjoint(), "stage gates must act on disjoint qubits");
    if (!initialized_ || site_of_.size() != layout.numQubits())
        initFrom(layout);
    const std::size_t num_qubits = site_of_.size();
    ++epoch_;
    const std::uint64_t epoch = epoch_;

    for (const auto &gate : stage.gates) {
        PM_ASSERT(gate.a < num_qubits && gate.b < num_qubits,
                  "stage gate outside circuit width");
        partner_[gate.a] = gate.b;
        partner_epoch_[gate.a] = epoch;
        partner_[gate.b] = gate.a;
        partner_epoch_[gate.b] = epoch;
    }

    TransitionPlan plan;

    // ---- Step 1: hold or park next-stage idle compute residents. ---------
    holds_.clear();
    if (options_.use_storage) {
        idle_keys_.clear();
        if (policy_ != nullptr) {
            partitionIdle(stage, plan);
        } else {
            for (const QubitId q : residents_) {
                if (partner_epoch_[q] != epoch)
                    idle_keys_.push_back(idleKey(q));
            }
        }
        // Ascending packed (y, x, id) keys reproduce the reference
        // farthest-from-storage parking order exactly.
        std::sort(idle_keys_.begin(), idle_keys_.end());
        for (const std::uint64_t key : idle_keys_) {
            const QubitId q = static_cast<QubitId>(key & kKeyMask);
            const SiteId from = site_of_[q];
            const SiteId slot = claimStorageSlot(coord_x_[from]);
            plannedDec(from);
            plannedInc(slot);
            plan.moves.push_back({q, from, slot});
            ++plan.num_parked;
        }
    }

    // ---- Step 2: label the interacting qubits (Fig. 4 cases). ------------
    const auto statics_at = [&](SiteId site) {
        return statics_epoch_[site] == epoch ? statics_at_[site] : 0;
    };
    const auto bump_statics = [&](SiteId site, int by) {
        bumpStamped(statics_epoch_, statics_at_, site, epoch, by);
    };
    const auto set_target = [&](QubitId q, SiteId site) {
        target_[q] = site;
        target_epoch_[q] = epoch;
    };
    const auto holds_at = [&](SiteId site) {
        return holds_epoch_[site] == epoch ? holds_at_[site] : 0;
    };
    const auto set_label = [&](QubitId q, MoveLabel l) {
        PM_ASSERT(labeled_epoch_[q] != epoch,
                  "qubit labeled twice within one stage");
        labeled_epoch_[q] = epoch;
        plan.labels.emplace_back(q, l);
    };

    undecided_order_.clear();
    for (const auto &gate : stage.gates) {
        const QubitId qi = gate.a;
        const QubitId qj = gate.b;
        const SiteId si = site_of_[qi];
        const SiteId sj = site_of_[qj];
        const bool storage_i = si >= num_compute_;
        const bool storage_j = sj >= num_compute_;

        if (storage_i && storage_j) {
            // (b) Both in storage: the interaction site is found later.
            set_label(qi, MoveLabel::Mobile);
            set_label(qj, MoveLabel::Undecided);
            follower_[qj] = qi;
            follower_epoch_[qj] = epoch;
            undecided_order_.push_back(qj);
        } else if (storage_i != storage_j) {
            // (c) One in storage, one in the compute zone.
            const QubitId storage_q = storage_i ? qi : qj;
            const QubitId compute_q = storage_i ? qj : qi;
            const SiteId compute_site = storage_i ? sj : si;
            set_label(storage_q, MoveLabel::Mobile);
            if (statics_at(compute_site) > 0) {
                set_label(compute_q, MoveLabel::Undecided);
                follower_[compute_q] = storage_q;
                follower_epoch_[compute_q] = epoch;
                undecided_order_.push_back(compute_q);
            } else {
                set_label(compute_q, MoveLabel::Static);
                bump_statics(compute_site, 1);
                set_target(storage_q, compute_site);
            }
        } else {
            // (d) Both in the compute zone.
            if (si == sj) {
                // Already adjacent (repeated gate): nobody moves.
                set_label(qi, MoveLabel::Static);
                set_label(qj, MoveLabel::Static);
                bump_statics(si, 2);
                continue;
            }
            // Keep the pair at the site hosting fewer holds, so a hold is
            // not displaced by an avoidable static claim; the RNG decides
            // ties, which is every pair when nothing is held.
            const int holds_i = holds_at(si);
            const int holds_j = holds_at(sj);
            const bool pick_first = holds_i != holds_j
                                        ? holds_i > holds_j
                                        : rng_->nextBool(0.5);
            const QubitId mover = pick_first ? qi : qj;
            const QubitId stay = pick_first ? qj : qi;
            const SiteId stay_site = pick_first ? sj : si;
            set_label(mover, MoveLabel::Mobile);
            if (statics_at(stay_site) > 0) {
                set_label(stay, MoveLabel::Undecided);
                follower_[stay] = mover;
                follower_epoch_[stay] = epoch;
                undecided_order_.push_back(stay);
            } else {
                set_label(stay, MoveLabel::Static);
                bump_statics(stay_site, 1);
                set_target(mover, stay_site);
            }
        }
    }

    // ---- Step 2.5 (storage-free mode): evict clustered idle qubits. ------
    evicted_.clear();
    if (!options_.use_storage) {
        for (QubitId q = 0; q < num_qubits; ++q) {
            if (partner_epoch_[q] == epoch)
                continue;
            const SiteId site = site_of_[q];
            if (statics_at(site) > 0) {
                evicted_.push_back(q);
            } else if (first_idle_epoch_[site] == epoch) {
                evicted_.push_back(q);
            } else {
                first_idle_epoch_[site] = epoch;
            }
        }
    }

    // ---- Occupancy bookkeeping before resolving open destinations. -------
    // Order is irrelevant (planned is only read once both loops settle),
    // so departures and known arrivals share one pass over the labels.
    for (const auto &[q, l] : plan.labels) {
        if (l == MoveLabel::Static)
            continue;
        plannedDec(site_of_[q]);
        if (l == MoveLabel::Mobile && target_epoch_[q] == epoch)
            plannedInc(target_[q]);
    }
    for (const QubitId q : evicted_)
        plannedDec(site_of_[q]);

    // ---- Step 3: resolve undecided qubits, partners follow. --------------
    for (const QubitId undecided : undecided_order_) {
        const SiteId site = findNearestFreeCompute(site_of_[undecided]);
        if (site == kInvalidSite)
            fatal("compute zone has no free site; enlarge the machine");
        plannedInc(site);
        plannedInc(site);
        set_target(undecided, site);
        PM_ASSERT(follower_epoch_[undecided] == epoch &&
                      follower_[undecided] != kNoQubit,
                  "undecided qubit lost its partner");
        set_target(follower_[undecided], site);
    }

    // Evicted idle qubits scatter after interaction sites are fixed.
    for (const QubitId q : evicted_) {
        const SiteId site = findNearestFreeCompute(site_of_[q]);
        if (site == kInvalidSite)
            fatal("compute zone has no free site; enlarge the machine");
        plannedInc(site);
        set_target(q, site);
        ++plan.num_evicted;
    }

    // ---- Step 4: settle the holds. ---------------------------------------
    settleHolds(plan);

    // ---- Emit gate-related, eviction and hold moves in decision order. ---
    for (const auto &[q, l] : plan.labels) {
        if (l == MoveLabel::Static)
            continue;
        PM_ASSERT(target_epoch_[q] == epoch, "mover without a destination");
        if (target_[q] != site_of_[q])
            plan.moves.push_back({q, site_of_[q], target_[q]});
    }
    for (const auto *settled : {&evicted_, &relocated_}) {
        for (const QubitId q : *settled)
            plan.moves.push_back({q, site_of_[q], target_[q]});
    }

    // ---- Apply transactionally (all departures, then all arrivals). ------
    for (const auto &move : plan.moves)
        layout.unplace(move.qubit);
    for (const auto &move : plan.moves)
        layout.place(move.qubit, move.to);

    // Each qubit moves at most once per transition (parked, labeled,
    // evicted and held are mutually exclusive), so one pass keeps the site
    // mirror and the resident list in sync with the applied layout; the
    // planned array already equals the settled occupancy by the
    // inc/dec bookkeeping above.
    for (const auto &move : plan.moves) {
        site_of_[move.qubit] = move.to;
        const bool was_compute = move.from < num_compute_;
        const bool is_compute = move.to < num_compute_;
        if (was_compute && !is_compute)
            removeResident(move.qubit);
        else if (!was_compute && is_compute)
            addResident(move.qubit);
    }

    for (const auto &gate : stage.gates) {
        PM_ASSERT(layout.siteOf(gate.a) == layout.siteOf(gate.b),
                  "router failed to co-locate a gate pair");
        PM_ASSERT(layout.zoneOf(gate.a) == ZoneKind::Compute,
                  "gate pair must sit in the compute zone");
    }
    for (const QubitId q : holds_) {
        PM_ASSERT(!lifetimes_.isResident(q) ||
                      layout.occupancy(site_of_[q]) == 1,
                  "held qubit must end the transition alone in compute");
    }
    return plan;
}

// ------------------------------------------------------------------ audit

bool
ContinuousRouter::auditAgainstLayout(const Layout &layout,
                                     std::string *why) const
{
    const auto fail = [&](const std::string &message) {
        if (why != nullptr)
            *why = message;
        return false;
    };
    if (!initialized_)
        return fail("router has no incremental state yet");
    if (layout.numQubits() != site_of_.size())
        return fail("qubit count mismatch against the audited layout");

    std::vector<int> expected(num_sites_, 0);
    std::size_t expected_residents = 0;
    for (QubitId q = 0; q < site_of_.size(); ++q) {
        const SiteId site = layout.siteOf(q);
        if (site == kInvalidSite)
            return fail("layout qubit " + std::to_string(q) + " is unplaced");
        if (site_of_[q] != site) {
            return fail("site mirror diverged at qubit " + std::to_string(q));
        }
        ++expected[site];
        if (site < num_compute_)
            ++expected_residents;
    }
    if (expected != planned_)
        return fail("planned occupancy diverged from the layout");

    if (residents_.size() != expected_residents)
        return fail("resident count diverged from the layout");
    for (std::size_t i = 0; i < residents_.size(); ++i) {
        const QubitId q = residents_[i];
        if (resident_pos_[q] != i)
            return fail("resident position index diverged at slot " +
                        std::to_string(i));
        if (site_of_[q] >= num_compute_)
            return fail("storage-zone qubit " + std::to_string(q) +
                        " sits in the resident list");
    }

    for (SiteId site = 0; site < num_sites_; ++site) {
        if (freeBit(site) != (planned_[site] == 0)) {
            return fail("free bitmask diverged at site " +
                        std::to_string(site));
        }
    }
    for (QubitId q = 0; q < site_of_.size(); ++q) {
        if (lifetimes_.isResident(q) &&
            (site_of_[q] >= num_compute_ || planned_[site_of_[q]] != 1))
            return fail("held qubit " + std::to_string(q) +
                        " does not sit alone in the compute zone");
    }
    return true;
}

} // namespace powermove
