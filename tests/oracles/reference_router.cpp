#include "oracles/reference_router.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace powermove {

ReferenceContinuousRouter::ReferenceContinuousRouter(const Machine &machine,
                                                     RouterOptions options)
    : machine_(machine), options_(options), own_rng_(options.seed),
      rng_(&own_rng_), storage_index_(machine)
{}

ReferenceContinuousRouter::ReferenceContinuousRouter(const Machine &machine,
                                                     RouterOptions options,
                                                     Rng &rng)
    : machine_(machine), options_(options), own_rng_(options.seed), rng_(&rng),
      storage_index_(machine)
{}

SiteId
ReferenceContinuousRouter::findEmptyComputeSite(
    SiteId origin, const std::vector<int> &planned) const
{
    const SiteId best = findNearestFreeComputeSite(machine_, origin, planned);
    if (best == kInvalidSite)
        fatal("compute zone has no free site; enlarge the machine");
    return best;
}

TransitionPlan
ReferenceContinuousRouter::planStageTransition(Layout &layout,
                                               const Stage &stage)
{
    PM_ASSERT(stage.qubitsDisjoint(), "stage gates must act on disjoint qubits");
    PM_ASSERT(layout.allPlaced(), "router requires a fully placed layout");

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

    // ---- Step 1: park next-stage idle qubits in storage. -----------------
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
        // Farthest-from-storage qubits choose their slots first: with y
        // growing toward storage this is ascending current y. Keeping the
        // vertical order also keeps the parking moves AOD-compatible.
        std::sort(idle_in_compute.begin(), idle_in_compute.end(),
                  [&](QubitId a, QubitId b) {
                      const auto ca = machine_.coordOf(layout.siteOf(a));
                      const auto cb = machine_.coordOf(layout.siteOf(b));
                      if (ca.y != cb.y)
                          return ca.y < cb.y;
                      if (ca.x != cb.x)
                          return ca.x < cb.x;
                      return a < b;
                  });
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
            const bool pick_first = rng_->nextBool(0.5);
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

    // ---- Emit gate-related and eviction moves in decision order. ---------
    for (const auto &[q, l] : plan.labels) {
        if (l == MoveLabel::Static)
            continue;
        PM_ASSERT(target[q] != kInvalidSite, "mover without a destination");
        if (target[q] != layout.siteOf(q))
            plan.moves.push_back({q, layout.siteOf(q), target[q]});
    }
    for (const QubitId q : evicted)
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
    return plan;
}

} // namespace powermove
