#include "reuse/router.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace powermove {

ReuseAwareRouter::ReuseAwareRouter(const Machine &machine,
                                   ReuseRouterOptions options)
    : machine_(machine), options_(options), own_rng_(options.seed),
      rng_(&own_rng_), occupancy_(machine), storage_index_(machine),
      policy_(makeResidencyPolicy(options.residency, options.lookahead,
                                  machine.params())),
      num_compute_sites_(machine.computeSites().size())
{
    PM_ASSERT(options_.lookahead >= 1, "reuse lookahead must be >= 1");
}

ReuseAwareRouter::ReuseAwareRouter(const Machine &machine,
                                   ReuseRouterOptions options, Rng &rng)
    : machine_(machine), options_(options), own_rng_(options.seed),
      rng_(&rng), occupancy_(machine), storage_index_(machine),
      policy_(makeResidencyPolicy(options.residency, options.lookahead,
                                  machine.params())),
      num_compute_sites_(machine.computeSites().size())
{
    PM_ASSERT(options_.lookahead >= 1, "reuse lookahead must be >= 1");
}

void
ReuseAwareRouter::beginBlock(const std::vector<Stage> &stages,
                             std::size_t num_qubits, bool final_block)
{
    PM_ASSERT(!residency_sized_ || num_qubits == num_qubits_,
              "circuit width must not change across blocks");
    num_qubits_ = num_qubits;
    if (!residency_sized_ || !policy_->persistsAcrossBlocks()) {
        // Close the previous block's surviving residencies at its end
        // (the current global stage, one past its last transition).
        // Persistent policies skip this: their survivors stay resident
        // and are re-validated by partition() at the next transition.
        occupancy_.resetResidency(num_qubits, global_stage_);
        residency_sized_ = true;
    }
    analysis_.beginBlock(stages, num_qubits, final_block);
    stage_cursor_ = 0;
}

void
ReuseAwareRouter::endProgram()
{
    // Settle every span still open after the last transition; without
    // this, holds surviving the final block would never be credited to
    // the stats (the old code only settled them in the *next*
    // beginBlock(), which never comes for the last block).
    occupancy_.resetResidency(num_qubits_, global_stage_);
    residency_sized_ = false;
}

TransitionPlan
ReuseAwareRouter::planStageTransition(Layout &layout, const Stage &stage)
{
    PM_ASSERT(stage.qubitsDisjoint(), "stage gates must act on disjoint qubits");
    PM_ASSERT(layout.allPlaced(), "router requires a fully placed layout");
    PM_ASSERT(stage_cursor_ < analysis_.numStages(),
              "beginBlock() must announce the block's stages before routing");
    const std::size_t stage_index = stage_cursor_++;
    const std::size_t global_index = global_stage_++;

    const std::size_t num_qubits = layout.numQubits();
    auto &partner = partner_;
    partner.assign(num_qubits, kNoQubit);
    for (const auto &gate : stage.gates) {
        PM_ASSERT(gate.a < num_qubits && gate.b < num_qubits,
                  "stage gate outside circuit width");
        partner[gate.a] = gate.b;
        partner[gate.b] = gate.a;
    }

    occupancy_.beginTransition(layout);
    storage_index_.beginTransition();

    TransitionPlan plan;
    auto &target = target_;
    target.assign(num_qubits, kInvalidSite);

    // Farthest-from-storage-first order, shared by the parking loop and
    // the hold settlement (keeps both deterministic and AOD-friendly).
    const auto vertical_order = [&](QubitId a, QubitId b) {
        const auto ca = machine_.coordOf(layout.siteOf(a));
        const auto cb = machine_.coordOf(layout.siteOf(b));
        if (ca.y != cb.y)
            return ca.y < cb.y;
        if (ca.x != cb.x)
            return ca.x < cb.x;
        return a < b;
    };

    // ---- Step 1: the residency policy splits idle-in-compute qubits. -----
    // The policy sees the candidates in ascending qubit order and only
    // decides membership; both sides are re-sorted into the router's
    // deterministic order below, and no policy draws from the RNG, so
    // the default lookahead policy reproduces the pre-policy router
    // bit for bit.
    auto &candidates = candidates_;
    candidates.clear();
    for (QubitId q = 0; q < num_qubits; ++q) {
        if (partner[q] != kNoQubit || layout.zoneOf(q) != ZoneKind::Compute)
            continue;
        candidates.push_back(q);
    }
    auto &holds = holds_;
    holds.clear();
    auto &releases = releases_;
    releases.clear();
    const std::size_t gate_sites = stage.gates.size();
    const std::size_t capacity =
        num_compute_sites_ > gate_sites ? num_compute_sites_ - gate_sites : 0;
    const ResidencyQuery query{candidates, stage_index, analysis_,
                               options_.lookahead, capacity};
    policy_->partition(query, holds, releases);
    PM_ASSERT(holds.size() + releases.size() == candidates.size(),
              "residency policy must partition every candidate");
    auto &holds_at = holds_at_;
    holds_at.assign(machine_.numSites(), 0);
    for (const QubitId q : holds)
        ++holds_at[layout.siteOf(q)];
    for (const QubitId q : releases) {
        // Classify the miss: a release with no further use in the
        // block is just correct parking; one with a known upcoming use
        // is a genuine window/pressure/cost miss.
        ++plan.num_lookahead_misses;
        if (analysis_.effectiveNextUse(stage_index, q) == kNoNextUse)
            ++plan.num_parked_no_reuse;
        else
            ++plan.num_window_misses;
    }
    std::sort(releases.begin(), releases.end(), vertical_order);
    for (const QubitId q : releases) {
        const SiteId from = layout.siteOf(q);
        const SiteId slot =
            storage_index_.claimSlot(machine_.coordOf(from),
                                     occupancy_.planned());
        occupancy_.depart(from);
        occupancy_.arrive(slot);
        target[q] = slot;
        plan.moves.push_back({q, from, slot});
        ++plan.num_parked;
        occupancy_.releaseResident(q, global_index);
    }

    // A hold that pays off: the qubit enters its next gate while still
    // resident, having skipped at least one storage round trip (for
    // persistent policies possibly a round trip across blocks).
    for (const auto &gate : stage.gates) {
        for (const QubitId q : {gate.a, gate.b}) {
            if (occupancy_.isResident(q)) {
                ++plan.num_reuse_hits;
                occupancy_.releaseResident(q, global_index);
            }
        }
    }

    // ---- Step 2: label the interacting qubits (Fig. 4 cases). ------------
    // Identical decision structure to the continuous router; holds are
    // invisible here — interactions are planned first and have priority.
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
            // Gate-aware mover choice: prefer to keep the pair at the
            // site hosting fewer held atoms, so holds are not displaced
            // by an avoidable static claim. The RNG decides only ties,
            // mirroring the continuous router's randomized case (d).
            const int holds_i = holds_at[si];
            const int holds_j = holds_at[sj];
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

    // ---- Occupancy bookkeeping before resolving open destinations. -------
    // Held qubits never departed, so their sites stay planned-occupied
    // and no open destination can land on top of them.
    for (QubitId q = 0; q < num_qubits; ++q) {
        if (labeled[q] && label[q] != MoveLabel::Static)
            occupancy_.depart(layout.siteOf(q));
    }
    for (QubitId q = 0; q < num_qubits; ++q) {
        if (labeled[q] && label[q] == MoveLabel::Mobile &&
            target[q] != kInvalidSite) {
            occupancy_.arrive(target[q]);
        }
    }

    // ---- Step 3: resolve undecided qubits, partners follow. --------------
    for (const QubitId undecided : undecided_order) {
        const SiteId site = findNearestFreeComputeSite(
            machine_, layout.siteOf(undecided), occupancy_.planned());
        if (site == kInvalidSite)
            fatal("compute zone has no free site; enlarge the machine");
        occupancy_.arrive(site);
        occupancy_.arrive(site);
        target[undecided] = site;
        const QubitId buddy = follower[undecided];
        PM_ASSERT(buddy != kNoQubit, "undecided qubit lost its partner");
        target[buddy] = site;
    }

    // ---- Step 4: settle the holds. ---------------------------------------
    // A hold survives in place only if its site ends the transition with
    // the held qubit alone; a site claimed by an interaction or shared
    // with another idle atom would blockade during the pulse.
    auto &relocated = relocated_;
    relocated.clear();
    auto &denied = denied_;
    denied.clear();
    std::sort(holds.begin(), holds.end(), vertical_order);
    for (const QubitId q : holds) {
        const SiteId site = layout.siteOf(q);
        if (occupancy_.plannedAt(site) == 1) {
            ++plan.num_held;
            occupancy_.holdResident(q, global_index);
            continue;
        }
        const SiteId dest =
            findNearestFreeComputeSite(machine_, site, occupancy_.planned());
        if (dest != kInvalidSite) {
            occupancy_.depart(site);
            occupancy_.arrive(dest);
            target[q] = dest;
            relocated.push_back(q);
            ++plan.num_held;
            ++plan.num_reuse_relocated;
            occupancy_.holdResident(q, global_index);
        } else {
            // No surviving compute site: the hold is denied and the
            // qubit parks after all.
            const SiteId slot = storage_index_.claimSlot(
                machine_.coordOf(site), occupancy_.planned());
            occupancy_.depart(site);
            occupancy_.arrive(slot);
            target[q] = slot;
            denied.push_back(q);
            ++plan.num_hold_denied;
            ++plan.num_parked;
            occupancy_.releaseResident(q, global_index);
        }
    }

    // ---- Emit gate-related and hold-settlement moves in decision order. --
    for (const auto &[q, l] : plan.labels) {
        if (l == MoveLabel::Static)
            continue;
        PM_ASSERT(target[q] != kInvalidSite, "mover without a destination");
        if (target[q] != layout.siteOf(q))
            plan.moves.push_back({q, layout.siteOf(q), target[q]});
    }
    for (const QubitId q : relocated)
        plan.moves.push_back({q, layout.siteOf(q), target[q]});
    for (const QubitId q : denied)
        plan.moves.push_back({q, layout.siteOf(q), target[q]});

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
    for (QubitId q = 0; q < num_qubits; ++q) {
        if (partner[q] != kNoQubit)
            continue;
        if (occupancy_.isResident(q)) {
            PM_ASSERT(layout.zoneOf(q) == ZoneKind::Compute &&
                          layout.occupancy(layout.siteOf(q)) == 1,
                      "held qubit must end the transition alone in compute");
        } else {
            PM_ASSERT(layout.zoneOf(q) == ZoneKind::Storage,
                      "released idle qubit must end in storage");
        }
    }
    return plan;
}

} // namespace powermove
