/**
 * @file
 * The Continuous Router (paper Sec. 5).
 *
 * Instead of reverting to a fixed home layout between Rydberg stages (as
 * Enola does), the continuous router transitions the current layout
 * *directly* into a layout executing the next stage. For one transition
 * it decides a single 1Q move per affected qubit:
 *
 *  - Step 1: a residency policy (reuse/policy.hpp) splits the qubits
 *    idle in the next stage that sit in the compute zone into holds,
 *    which stay there, and releases. The releases are parked in the
 *    storage zone, farthest-from-storage qubits choosing first, each
 *    taking the closest empty storage site below its column (Sec. 5.2
 *    step 1). Without a policy nothing is held: the paper's router.
 *  - Step 2: interacting qubits get labels (static / mobile / undecided)
 *    following the four current-location cases of Fig. 4. In case (d)
 *    the pair stays at the site hosting fewer holds; the RNG decides
 *    ties, so without holds it decides every case (d).
 *  - Step 3: undecided qubits claim the nearest compute site that will
 *    be empty after all planned departures; their partners follow.
 *  - Step 4: each hold keeps its site if it ends the transition alone
 *    there, else moves to the nearest planned-free compute site (one
 *    always exists: the policy holds at most the sites the gate pairs
 *    leave free).
 *
 * Holding an idle atom is the atom reuse of Lin et al. ("Reuse-Aware
 * Compilation for Zoned Quantum Architectures Based on Neutral Atoms"):
 * it skips a storage round trip at the price of one excitation exposure
 * per intervening pulse. beginBlock() announces each block's stages to
 * the policy's lookahead, and endProgram() settles the residency spans.
 *
 * In the storage-free configuration (paper's "non-storage" rows) no
 * parking happens; instead idle qubits that would be co-located with a
 * static qubit or with another idle qubit during the pulse are evicted
 * to the nearest free compute site, which is exactly the clustering
 * hazard of Fig. 3 that forces Enola to revert.
 *
 * The router keeps its conflict state alive across transitions instead
 * of rebuilding it per stage, so a transition costs O(stage width +
 * moves) plus bit scans, not O(qubits + sites):
 *
 *  - The planned-occupancy array persists across transitions. After a
 *    transition settles, planned occupancy equals the applied layout's
 *    occupancy (every mover was decremented at its origin and
 *    incremented at its destination), so the next transition starts
 *    from it directly instead of re-counting every qubit.
 *  - Free-site bitmasks (one word-packed row per compute row, one
 *    column per storage column) are kept in lockstep with the planned
 *    array, turning both free-site searches — the nearest-compute-site
 *    search and the storage-slot column walk — into a handful of bit
 *    scans over contiguous words. The nearest-site search evaluates
 *    euclidean doubles with a (distance, y, x) comparator, so the
 *    chosen site is unique (the row pruning bound carries a two-ulp
 *    slack to stay conservative under floating-point rounding).
 *  - A resident list of compute-zone qubits replaces an O(qubits) idle
 *    scan in step 1: in storage mode the compute zone only ever holds
 *    the previous stage's interacting qubits and the holds, so the scan
 *    is O(previous stage width + holds), not O(circuit width).
 *  - Per-qubit and per-site scratch (partner, labels, targets, statics
 *    counts) is epoch-stamped instead of re-assigned, so a transition
 *    touches only the entries it actually writes.
 *  - Site coordinates and physical positions are mirrored into SoA
 *    arrays at construction, keeping the hot loops free of the
 *    assertion-checked Machine lookups.
 *
 * The mirrors assume the layout is mutated only through this router
 * between calls (the pipeline guarantees this: placement runs before
 * the first transition and nothing else moves qubits). Call reset()
 * if the layout was changed externally; auditAgainstLayout() verifies
 * every incremental structure against a from-scratch rebuild and backs
 * the churn property test (fast_router_state_test.cpp). The
 * per-transition-rebuild formulation, ReferenceContinuousRouter in
 * tests/oracles/, is the differential oracle this router must match
 * plan for plan, with and without a residency policy.
 */

#ifndef POWERMOVE_ROUTE_ROUTER_HPP
#define POWERMOVE_ROUTE_ROUTER_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/layout.hpp"
#include "arch/machine.hpp"
#include "common/rng.hpp"
#include "reuse/analysis.hpp"
#include "reuse/lifetimes.hpp"
#include "reuse/policy.hpp"
#include "route/move.hpp"
#include "schedule/stage.hpp"

namespace powermove {

/** Continuous-router knobs. */
struct RouterOptions
{
    /** Park idle qubits in the storage zone (zoned-architecture mode). */
    bool use_storage = true;
    /** Seed for the random mobile/static choice in Fig. 4 case (d). */
    std::uint64_t seed = 0xC0FFEE;
    /** Step 1's residency policy (atom reuse; needs use_storage). */
    std::optional<ResidencyPolicy> residency = std::nullopt;
    /** Lookahead window in stages (>= 1) of the Lookahead policy. */
    std::size_t lookahead = 4;
};

/** The planned transition into one stage. */
struct TransitionPlan
{
    /** All 1Q moves of the transition, in decision order. */
    std::vector<QubitMove> moves;
    /** Labels assigned to interacting qubits, in assignment order. */
    std::vector<std::pair<QubitId, MoveLabel>> labels;
    /** Idle qubits parked into storage (step 1). */
    std::size_t num_parked = 0;
    /** Idle qubits evicted to dodge clustering (storage-free mode). */
    std::size_t num_evicted = 0;

    // Residency accounting (always zero without a residency policy).
    /** Idle qubits kept resident in the compute zone this transition. */
    std::size_t num_held = 0;
    /** Held qubits relocated within the compute zone to dodge a pair. */
    std::size_t num_reuse_relocated = 0;
    /** Interacting qubits that entered the stage already held resident. */
    std::size_t num_reuse_hits = 0;
    /** Idle qubits released to storage by the residency policy. */
    std::size_t num_lookahead_misses = 0;
    /**
     * Split of num_lookahead_misses (the two always sum to it): releases
     * with no further use in the block — parking is simply correct —
     * versus genuine misses whose next use the policy declined to wait
     * for (window too small, pressure eviction, or cost model said park).
     */
    std::size_t num_parked_no_reuse = 0;
    std::size_t num_window_misses = 0;

    // Windowed-strategy accounting (always zero except under
    // --routing=windowed; see route/windowed_router.hpp).
    /** Candidate gate orderings evaluated for this transition. */
    std::size_t num_candidates = 0;
    /** Shuffled orderings that beat the original-order incumbent. */
    std::size_t num_window_wins = 0;
};

/** Plans direct layout-to-layout transitions (paper Sec. 5). */
class ContinuousRouter
{
  public:
    ContinuousRouter(const Machine &machine, RouterOptions options = {});

    /**
     * Uses @p rng for the randomized mobile/static choice instead of an
     * internally seeded stream (options.seed is then ignored). The
     * compiler passes its per-compile RNG here so every randomized
     * decision of a compilation draws from one stream.
     * @p rng must outlive the router.
     */
    ContinuousRouter(const Machine &machine, RouterOptions options, Rng &rng);

    // rng_ may point at own_rng_, so a defaulted copy/move would leave
    // the new object drawing from the source's (possibly dead) stream.
    ContinuousRouter(const ContinuousRouter &) = delete;
    ContinuousRouter &operator=(const ContinuousRouter &) = delete;

    /**
     * Plans the transition bringing @p layout into a configuration that
     * executes @p stage, and applies it to @p layout.
     *
     * Post-conditions (validated downstream): every gate pair of the
     * stage shares one compute site; no other two qubits share a site;
     * in storage mode every idle qubit sits in the storage zone except
     * the holds, each alone at a compute site.
     *
     * The first call (or the first after reset()) initializes the
     * incremental state from @p layout; later calls require that the
     * layout was not mutated outside this router in between.
     */
    TransitionPlan planStageTransition(Layout &layout, const Stage &stage);

    /**
     * Announces the ordered stages of the next block to the residency
     * policy; planStageTransition() then consumes them in this order.
     * @p final_block marks the program's last block, where program end
     * acts as a virtual reuse event (see ReuseAnalysis::beginBlock). A
     * no-op without a residency policy.
     */
    void beginBlock(const std::vector<Stage> &stages, std::size_t num_qubits,
                    bool final_block = false);

    /**
     * Closes every still-open residency span at the current global
     * stage, so holds_started == holds_ended. Call once after the
     * program's last transition.
     */
    void endProgram();

    /** Residency spans of the held qubits, across all transitions. */
    const ResidencyLifetimes &residency() const { return lifetimes_; }

    /**
     * Drops the incremental state; the next plan resyncs it from its
     * layout in O(qubits + sites / 64), reusing every buffer whose size
     * still matches.
     */
    void reset() { initialized_ = false; }

    /**
     * Debug/property-test hook: rebuilds planned occupancy, the free
     * bitmasks, the site mirror, and the resident list from @p layout
     * and compares them to the incrementally maintained versions; also
     * checks that every held qubit sits alone in the compute zone.
     * Returns false (and fills @p why) on the first divergence.
     */
    bool auditAgainstLayout(const Layout &layout,
                            std::string *why = nullptr) const;

    const RouterOptions &options() const { return options_; }

  private:
    void initGeometry();
    void initFrom(const Layout &layout);

    // planned-occupancy maintenance; keeps the free bitmasks in sync.
    void plannedInc(SiteId site);
    void plannedDec(SiteId site);
    /** (word, bit) of @p site in free_rows_ (compute) or free_cols_. */
    std::pair<std::size_t, std::uint64_t> freeBitPos(SiteId site) const;
    void setFree(SiteId site, bool free);
    bool freeBit(SiteId site) const;

    /** First planned-free storage row of @p column, or -1. */
    std::int32_t firstFreeStorageRow(std::int32_t column) const;

    /**
     * The Sec. 5.2 step 1 storage slot for a qubit parking from column
     * @p origin_x: the lexicographic (|dx|, y, x) minimum over
     * planned-free storage slots, by bit scans over the per-column
     * free masks. Fatal when the zone is full.
     */
    SiteId claimStorageSlot(std::int32_t origin_x) const;

    /**
     * The Sec. 5.2 step 3 site: the unique (euclidean distance, y, x)
     * argmin over planned-free compute sites, the same choice as the
     * oracle's ring search makes, from the same doubles with the same
     * comparator. Returns kInvalidSite when the compute zone has no
     * free site.
     */
    SiteId findNearestFreeCompute(SiteId origin) const;

    /** Packed (y, x, qubit) key: ascending is the parking order. */
    std::uint64_t idleKey(QubitId qubit) const;

    /**
     * Step 1 under a residency policy: consumes the next announced
     * stage, fills holds_ and the per-site hold counts, queues the
     * releases' keys in idle_keys_ for parking, and counts misses and
     * reuse hits into @p plan.
     */
    void partitionIdle(const Stage &stage, TransitionPlan &plan);

    /** Step 4: keeps, relocates, or parks each of holds_. */
    void settleHolds(TransitionPlan &plan);

    // resident-list maintenance (compute-zone qubits).
    void addResident(QubitId qubit);
    void removeResident(QubitId qubit);

    static constexpr std::size_t kNpos = ~std::size_t{0};

    const Machine &machine_;
    RouterOptions options_;
    Rng own_rng_; // used unless an external stream was supplied
    Rng *rng_;    // &own_rng_ or the caller's stream

    // Immutable geometry mirrors (SoA; filled once at construction).
    std::int32_t compute_cols_ = 0;
    std::int32_t compute_rows_ = 0;
    std::int32_t storage_cols_ = 0;
    std::int32_t storage_rows_ = 0;
    std::int32_t storage_top_row_ = 0;
    std::size_t num_compute_ = 0;
    std::size_t num_sites_ = 0;
    std::vector<std::int32_t> coord_x_; // site -> lattice x
    std::vector<std::int32_t> coord_y_; // site -> lattice y
    std::vector<double> phys_x_;        // site -> physical x (um)
    std::vector<double> phys_y_;        // site -> physical y (um)

    // Persistent incremental state (valid while initialized_).
    bool initialized_ = false;
    std::vector<int> planned_;            // site -> settled occupancy
    std::vector<std::uint64_t> free_rows_; // compute: per-row free bits
    std::vector<std::uint64_t> free_cols_; // storage: per-col free bits
    std::size_t row_words_ = 0;
    std::size_t col_words_ = 0;
    // All-free masks (every in-range bit set), built once: a resync
    // copies them instead of setting the bits one by one.
    std::vector<std::uint64_t> all_free_rows_;
    std::vector<std::uint64_t> all_free_cols_;
    std::vector<SiteId> site_of_;         // qubit -> site mirror
    std::vector<QubitId> residents_;      // compute-zone qubits
    std::vector<std::size_t> resident_pos_; // qubit -> residents_ index

    // Epoch-stamped per-transition scratch (entry valid iff its stamp
    // equals epoch_; bumping the epoch "clears" every array in O(1)).
    // epoch_ only grows, so a resync keeps the stamped arrays as they
    // are whenever their sizes still match.
    std::uint64_t epoch_ = 0;
    std::vector<std::uint64_t> partner_epoch_;
    std::vector<QubitId> partner_;
    std::vector<std::uint64_t> labeled_epoch_;
    std::vector<std::uint64_t> target_epoch_;
    std::vector<SiteId> target_;
    std::vector<std::uint64_t> follower_epoch_;
    std::vector<QubitId> follower_;
    std::vector<std::uint64_t> statics_epoch_;
    std::vector<int> statics_at_;
    std::vector<std::uint64_t> first_idle_epoch_;
    std::vector<std::uint64_t> holds_epoch_;
    std::vector<int> holds_at_; // per site: holds parked there

    // Plain per-transition scratch.
    std::vector<std::uint64_t> idle_keys_; // packed (y, x, qubit)
    std::vector<QubitId> undecided_order_;
    std::vector<QubitId> evicted_;
    std::vector<QubitId> candidates_; // residency step: idle residents
    std::vector<QubitId> holds_;
    std::vector<QubitId> releases_;
    std::vector<QubitId> relocated_;

    // Residency step (engaged iff options.residency is set).
    std::unique_ptr<ResidencyPolicyImpl> policy_;
    ReuseAnalysis analysis_;
    ResidencyLifetimes lifetimes_;
    bool lifetimes_sized_ = false; // the first beginBlock() sizes them
    std::size_t stage_cursor_ = 0; // block-local index of the next stage
    // Program-global transition counter: residency spans are stamped
    // with it so persistent policies can hold across block boundaries
    // (block-local indices would run backwards at each block start).
    std::size_t global_stage_ = 0;
};

} // namespace powermove

#endif // POWERMOVE_ROUTE_ROUTER_HPP
