#include "oracles/reference_router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace powermove {

// ------------------------------------------------------- free-site search

StorageSlotIndex::StorageSlotIndex(const Machine &machine)
    : machine_(machine),
      cursor_(static_cast<std::size_t>(machine.config().storage_cols), 0)
{}

void
StorageSlotIndex::beginTransition()
{
    cursor_.assign(cursor_.size(), 0);
}

std::int32_t
StorageSlotIndex::firstFreeRow(std::int32_t column,
                               const std::vector<int> &planned)
{
    const std::int32_t top = machine_.storageTopRow();
    const std::int32_t rows = machine_.config().storage_rows;
    std::int32_t r = cursor_[static_cast<std::size_t>(column)];
    while (r < rows &&
           planned[machine_.siteAt(SiteCoord{column, top + r})] != 0) {
        ++r;
    }
    cursor_[static_cast<std::size_t>(column)] = r;
    return r < rows ? top + r : -1;
}

SiteId
StorageSlotIndex::claimSlot(SiteCoord origin, const std::vector<int> &planned)
{
    // Prefer a vertical drop (same column), then the shallowest row.
    // Scanning columns outward from the origin lets the first hit at
    // column distance dx settle the answer after comparing both sides.
    const std::int32_t cols = machine_.config().storage_cols;
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (attempt > 0)
            beginTransition();
        for (std::int32_t dx = 0; dx < cols + std::abs(origin.x); ++dx) {
            SiteId best = kInvalidSite;
            SiteCoord best_coord{0, 0};
            for (const std::int32_t x : {origin.x - dx, origin.x + dx}) {
                if (x < 0 || x >= cols || (dx == 0 && x != origin.x))
                    continue;
                const std::int32_t y = firstFreeRow(x, planned);
                if (y < 0)
                    continue;
                const SiteCoord coord{x, y};
                if (best == kInvalidSite || coord.y < best_coord.y ||
                    (coord.y == best_coord.y && coord.x < best_coord.x)) {
                    best = machine_.siteAt(coord);
                    best_coord = coord;
                }
            }
            if (best != kInvalidSite)
                return best;
        }
    }
    fatal("storage zone is full; enlarge the machine");
}

namespace {

/**
 * Expanding Chebyshev-ring search for the euclidean-nearest planned-
 * empty compute site seen from @p origin (either zone), ties broken by
 * (y, x). A candidate at ring r can only be beaten by sites within
 * euclidean distance best_dist, so the search stops once r * pitch
 * exceeds the incumbent. kInvalidSite when the compute zone is full.
 */
SiteId
findNearestFreeComputeSite(const Machine &machine, SiteId origin,
                           const std::vector<int> &planned)
{
    const PhysCoord from = machine.physOf(origin);
    const auto &config = machine.config();
    const std::int32_t cols = config.compute_cols;
    const std::int32_t rows = config.compute_rows;
    const double pitch = machine.params().site_pitch.microns();
    const SiteCoord center = machine.coordOf(origin);
    // A storage-zone origin (Fig. 4b) needs rings spanning the lattice.
    const std::int32_t max_ring =
        cols + rows + config.gap_rows + config.storage_rows;

    SiteId best = kInvalidSite;
    double best_dist = std::numeric_limits<double>::infinity();
    SiteCoord best_coord{0, 0};

    const auto consider = [&](std::int32_t x, std::int32_t y) {
        if (x < 0 || x >= cols || y < 0 || y >= rows)
            return;
        const SiteId site = machine.siteAt(SiteCoord{x, y});
        if (planned[site] != 0)
            return;
        const double dist = euclidean(from, machine.physOf(site)).microns();
        const SiteCoord coord{x, y};
        const bool better =
            dist < best_dist ||
            (dist == best_dist &&
             (coord.y < best_coord.y ||
              (coord.y == best_coord.y && coord.x < best_coord.x)));
        if (best == kInvalidSite || better) {
            best = site;
            best_dist = dist;
            best_coord = coord;
        }
    };

    for (std::int32_t ring = 0; ring <= max_ring; ++ring) {
        if (best != kInvalidSite &&
            (static_cast<double>(ring) - 1.0) * pitch > best_dist) {
            break;
        }
        if (ring == 0) {
            consider(center.x, center.y);
            continue;
        }
        for (std::int32_t x = center.x - ring; x <= center.x + ring; ++x) {
            consider(x, center.y - ring);
            consider(x, center.y + ring);
        }
        for (std::int32_t y = center.y - ring + 1; y <= center.y + ring - 1;
             ++y) {
            consider(center.x - ring, y);
            consider(center.x + ring, y);
        }
    }
    return best;
}

} // namespace

// ----------------------------------------------------------------- router

ReferenceContinuousRouter::ReferenceContinuousRouter(const Machine &machine,
                                                     RouterOptions options)
    : ReferenceContinuousRouter(machine, options, own_rng_)
{}

ReferenceContinuousRouter::ReferenceContinuousRouter(const Machine &machine,
                                                     RouterOptions options,
                                                     Rng &rng)
    : machine_(machine), options_(options), own_rng_(options.seed), rng_(&rng),
      storage_index_(machine)
{
    if (options_.residency) {
        policy_ = makeResidencyPolicy(*options_.residency, options_.lookahead,
                                      machine.params());
    }
}

SiteId
ReferenceContinuousRouter::findEmptyComputeSite(
    SiteId origin, const std::vector<int> &planned) const
{
    const SiteId best = findNearestFreeComputeSite(machine_, origin, planned);
    if (best == kInvalidSite)
        fatal("compute zone has no free site; enlarge the machine");
    return best;
}

void
ReferenceContinuousRouter::beginBlock(const std::vector<Stage> &stages,
                                      std::size_t num_qubits,
                                      bool final_block)
{
    if (policy_ == nullptr)
        return;
    if (!lifetimes_sized_ || !policy_->persistsAcrossBlocks()) {
        lifetimes_.reset(num_qubits, global_stage_);
        lifetimes_sized_ = true;
    }
    analysis_.beginBlock(stages, num_qubits, final_block);
    stage_cursor_ = 0;
}

void
ReferenceContinuousRouter::endProgram()
{
    if (policy_ == nullptr)
        return;
    lifetimes_.reset(0, global_stage_);
    lifetimes_sized_ = false;
}

TransitionPlan
ReferenceContinuousRouter::planStageTransition(Layout &layout,
                                               const Stage &stage)
{
    PM_ASSERT(stage.qubitsDisjoint(), "stage gates must act on disjoint qubits");
    PM_ASSERT(layout.allPlaced(), "router requires a fully placed layout");
    std::size_t stage_index = 0;
    std::size_t global_index = 0;
    if (policy_ != nullptr) {
        PM_ASSERT(stage_cursor_ < analysis_.numStages(),
                  "beginBlock() must announce the block's stages before "
                  "routing");
        stage_index = stage_cursor_++;
        global_index = global_stage_++;
    }

    const std::size_t num_qubits = layout.numQubits();
    auto &partner = partner_;
    partner.assign(num_qubits, kNoQubit);
    for (const auto &gate : stage.gates) {
        PM_ASSERT(gate.a < num_qubits && gate.b < num_qubits,
                  "stage gate outside circuit width");
        partner[gate.a] = gate.b;
        partner[gate.b] = gate.a;
    }

    // Planned occupancy of every site once the whole transition settles.
    auto &planned = planned_;
    planned.assign(machine_.numSites(), 0);
    for (QubitId q = 0; q < num_qubits; ++q)
        ++planned[layout.siteOf(q)];

    TransitionPlan plan;
    auto &target = target_;
    target.assign(num_qubits, kInvalidSite);

    // Farthest-from-storage qubits choose their slots first: with y
    // growing toward storage this is ascending current y. Keeping the
    // vertical order also keeps the parking moves AOD-compatible.
    const auto vertical_order = [&](QubitId a, QubitId b) {
        const auto ca = machine_.coordOf(layout.siteOf(a));
        const auto cb = machine_.coordOf(layout.siteOf(b));
        if (ca.y != cb.y)
            return ca.y < cb.y;
        if (ca.x != cb.x)
            return ca.x < cb.x;
        return a < b;
    };

    // ---- Step 1: hold or park next-stage idle compute residents. ---------
    auto &holds = holds_;
    holds.clear();
    auto &holds_at = holds_at_;
    if (options_.use_storage) {
        storage_index_.beginTransition();
        auto &idle_in_compute = idle_in_compute_;
        idle_in_compute.clear();
        for (QubitId q = 0; q < num_qubits; ++q) {
            if (partner[q] == kNoQubit &&
                layout.zoneOf(q) == ZoneKind::Compute) {
                idle_in_compute.push_back(q);
            }
        }
        if (policy_ != nullptr) {
            // The policy splits the candidates (ascending qubit id);
            // only the releases park.
            auto &releases = releases_;
            releases.clear();
            const std::size_t gate_sites = stage.gates.size();
            const std::size_t num_compute = machine_.numComputeSites();
            const std::size_t capacity =
                num_compute > gate_sites ? num_compute - gate_sites : 0;
            policy_->partition(ResidencyQuery{idle_in_compute, stage_index,
                                              analysis_, capacity},
                               holds, releases);
            PM_ASSERT(holds.size() + releases.size() ==
                          idle_in_compute.size(),
                      "residency policy must partition every candidate");
            holds_at.assign(machine_.numSites(), 0);
            for (const QubitId q : holds)
                ++holds_at[layout.siteOf(q)];
            for (const QubitId q : releases) {
                ++plan.num_lookahead_misses;
                if (analysis_.effectiveNextUse(stage_index, q) == kNoNextUse)
                    ++plan.num_parked_no_reuse;
                else
                    ++plan.num_window_misses;
                lifetimes_.release(q, global_index);
            }
            idle_in_compute.swap(releases);
            for (const auto &gate : stage.gates) {
                for (const QubitId q : {gate.a, gate.b}) {
                    if (lifetimes_.isResident(q)) {
                        ++plan.num_reuse_hits;
                        lifetimes_.release(q, global_index);
                    }
                }
            }
        }
        std::sort(idle_in_compute.begin(), idle_in_compute.end(),
                  vertical_order);
        for (const QubitId q : idle_in_compute) {
            const SiteId from = layout.siteOf(q);
            const SiteId slot =
                storage_index_.claimSlot(machine_.coordOf(from), planned);
            --planned[from];
            ++planned[slot];
            target[q] = slot;
            plan.moves.push_back({q, from, slot});
            ++plan.num_parked;
        }
    }

    // ---- Step 2: label the interacting qubits (Fig. 4 cases). ------------
    auto &label = label_;
    label.assign(num_qubits, MoveLabel::Static);
    auto &labeled = labeled_;
    labeled.assign(num_qubits, false);
    auto &statics_at = statics_at_;
    statics_at.assign(machine_.numSites(), 0);
    auto &undecided_order = undecided_order_;
    undecided_order.clear();
    auto &follower = follower_;
    follower.assign(num_qubits, kNoQubit);

    const auto set_label = [&](QubitId q, MoveLabel l) {
        PM_ASSERT(!labeled[q], "qubit labeled twice within one stage");
        label[q] = l;
        labeled[q] = true;
        plan.labels.emplace_back(q, l);
    };

    for (const auto &gate : stage.gates) {
        const QubitId qi = gate.a;
        const QubitId qj = gate.b;
        const SiteId si = layout.siteOf(qi);
        const SiteId sj = layout.siteOf(qj);
        const ZoneKind zi = machine_.zoneOf(si);
        const ZoneKind zj = machine_.zoneOf(sj);

        if (zi == ZoneKind::Storage && zj == ZoneKind::Storage) {
            // (b) Both in storage: the interaction site is found later.
            set_label(qi, MoveLabel::Mobile);
            set_label(qj, MoveLabel::Undecided);
            follower[qj] = qi;
            undecided_order.push_back(qj);
        } else if (zi != zj) {
            // (c) One in storage, one in the compute zone.
            const QubitId storage_q = zi == ZoneKind::Storage ? qi : qj;
            const QubitId compute_q = zi == ZoneKind::Storage ? qj : qi;
            set_label(storage_q, MoveLabel::Mobile);
            if (statics_at[layout.siteOf(compute_q)] > 0) {
                set_label(compute_q, MoveLabel::Undecided);
                follower[compute_q] = storage_q;
                undecided_order.push_back(compute_q);
            } else {
                set_label(compute_q, MoveLabel::Static);
                ++statics_at[layout.siteOf(compute_q)];
                target[storage_q] = layout.siteOf(compute_q);
            }
        } else {
            // (d) Both in the compute zone.
            if (si == sj) {
                // Already adjacent (repeated gate): nobody moves.
                set_label(qi, MoveLabel::Static);
                set_label(qj, MoveLabel::Static);
                statics_at[si] += 2;
                continue;
            }
            // The pair stays at the site hosting fewer holds; the RNG
            // decides ties.
            const int holds_i = policy_ != nullptr ? holds_at[si] : 0;
            const int holds_j = policy_ != nullptr ? holds_at[sj] : 0;
            const bool pick_first = holds_i != holds_j
                                        ? holds_i > holds_j
                                        : rng_->nextBool(0.5);
            const QubitId mover = pick_first ? qi : qj;
            const QubitId stay = pick_first ? qj : qi;
            set_label(mover, MoveLabel::Mobile);
            if (statics_at[layout.siteOf(stay)] > 0) {
                set_label(stay, MoveLabel::Undecided);
                follower[stay] = mover;
                undecided_order.push_back(stay);
            } else {
                set_label(stay, MoveLabel::Static);
                ++statics_at[layout.siteOf(stay)];
                target[mover] = layout.siteOf(stay);
            }
        }
    }

    // ---- Step 2.5 (storage-free mode): evict clustered idle qubits. ------
    // An idle qubit co-located with a static qubit (its site is about to
    // host an interaction) or with another idle qubit (unwanted blockade
    // pair during the pulse) must scatter to a free site.
    auto &evicted = evicted_;
    evicted.clear();
    if (!options_.use_storage) {
        auto &first_idle_at = first_idle_at_;
        first_idle_at.assign(machine_.numSites(), kNoQubit);
        for (QubitId q = 0; q < num_qubits; ++q) {
            if (partner[q] != kNoQubit)
                continue;
            const SiteId site = layout.siteOf(q);
            if (statics_at[site] > 0) {
                evicted.push_back(q);
            } else if (first_idle_at[site] != kNoQubit) {
                evicted.push_back(q);
            } else {
                first_idle_at[site] = q;
            }
        }
    }

    // ---- Occupancy bookkeeping before resolving open destinations. -------
    for (QubitId q = 0; q < num_qubits; ++q) {
        if (labeled[q] && label[q] != MoveLabel::Static)
            --planned[layout.siteOf(q)];
    }
    for (const QubitId q : evicted)
        --planned[layout.siteOf(q)];
    for (QubitId q = 0; q < num_qubits; ++q) {
        if (labeled[q] && label[q] == MoveLabel::Mobile &&
            target[q] != kInvalidSite) {
            ++planned[target[q]];
        }
    }

    // ---- Step 3: resolve undecided qubits, partners follow. --------------
    for (const QubitId undecided : undecided_order) {
        const SiteId site =
            findEmptyComputeSite(layout.siteOf(undecided), planned);
        planned[site] += 2;
        target[undecided] = site;
        const QubitId buddy = follower[undecided];
        PM_ASSERT(buddy != kNoQubit, "undecided qubit lost its partner");
        target[buddy] = site;
    }

    // Evicted idle qubits scatter after interaction sites are fixed.
    for (const QubitId q : evicted) {
        const SiteId site = findEmptyComputeSite(layout.siteOf(q), planned);
        planned[site] += 1;
        target[q] = site;
        ++plan.num_evicted;
    }

    // ---- Step 4: settle the holds, farthest from storage first. ----------
    auto &relocated = relocated_;
    relocated.clear();
    std::sort(holds.begin(), holds.end(), vertical_order);
    for (const QubitId q : holds) {
        const SiteId site = layout.siteOf(q);
        if (planned[site] == 1) {
            ++plan.num_held;
            lifetimes_.hold(q, global_index);
            continue;
        }
        const SiteId dest = findNearestFreeComputeSite(machine_, site, planned);
        PM_ASSERT(dest != kInvalidSite,
                  "a hold within capacity found no free compute site");
        --planned[site];
        ++planned[dest];
        target[q] = dest;
        relocated.push_back(q);
        ++plan.num_held;
        ++plan.num_reuse_relocated;
        lifetimes_.hold(q, global_index);
    }

    // ---- Emit gate-related and eviction moves in decision order. ---------
    for (const auto &[q, l] : plan.labels) {
        if (l == MoveLabel::Static)
            continue;
        PM_ASSERT(target[q] != kInvalidSite, "mover without a destination");
        if (target[q] != layout.siteOf(q))
            plan.moves.push_back({q, layout.siteOf(q), target[q]});
    }
    for (const auto *settled : {&evicted, &relocated}) {
        for (const QubitId q : *settled)
            plan.moves.push_back({q, layout.siteOf(q), target[q]});
    }

    // ---- Apply transactionally (all departures, then all arrivals). ------
    for (const auto &move : plan.moves)
        layout.unplace(move.qubit);
    for (const auto &move : plan.moves)
        layout.place(move.qubit, move.to);

    for (const auto &gate : stage.gates) {
        PM_ASSERT(layout.siteOf(gate.a) == layout.siteOf(gate.b),
                  "router failed to co-locate a gate pair");
        PM_ASSERT(layout.zoneOf(gate.a) == ZoneKind::Compute,
                  "gate pair must sit in the compute zone");
    }
    return plan;
}

} // namespace powermove
