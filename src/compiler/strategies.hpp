/**
 * @file
 * Strategy selections for the compiler's passes.
 *
 * Each pass that admits more than one algorithm exposes its choice as
 * a small enum here, selected through CompilerOptions. The
 * paper's Fig. 1b flow is the default in every dimension; alternatives
 * either reproduce an ablation (the "as-is" orderings) or trade compile
 * time for Eq. 1 fidelity (routing-aware placement, reuse and windowed
 * routing). Every enum participates in the job
 * fingerprint (service/fingerprint.cpp), so two option sets differing
 * in any strategy can never share a cache entry.
 */

#ifndef POWERMOVE_COMPILER_STRATEGIES_HPP
#define POWERMOVE_COMPILER_STRATEGIES_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace powermove {

/**
 * How the initial layout places qubits into their starting zone.
 *
 * The numeric values are part of the job fingerprint (and so of every
 * disk-cache key and derived seed); they are written out so that a
 * removed value never renumbers the ones that remain.
 */
enum class PlacementStrategy : std::uint8_t
{
    /** The paper's initial layout: row-major from the zone's top left. */
    RowMajor = 0,
    /**
     * Routing-aware (Stade et al., src/placement/): interacting qubits
     * are placed near each other by a greedy grow-from-seed layout over
     * the circuit's weighted interaction graph, then refined by up to
     * CompilerOptions::placement_refine_iters local-search sweeps, so
     * the move distance routing later pays is minimized before routing
     * ever runs.
     */
    RoutingAware = 3,
};

/** How stages of one commutable CZ block are ordered. */
enum class StageOrderStrategy : std::uint8_t
{
    /** Keep the raw edge-coloring order (ablation baseline). */
    AsPartitioned,
    /** The paper's Sec. 4.2 zone-aware greedy ordering. */
    ZoneAware,
};

/** How Coll-Moves of one stage transition are ordered. */
enum class CollMoveOrderStrategy : std::uint8_t
{
    /** Keep the distance-grouping emission order (ablation baseline). */
    AsGrouped,
    /** The paper's Sec. 6.1 storage-dwell-maximizing order. */
    StorageDwell,
};

/** How the Routing step plans stage transitions. */
enum class RoutingStrategy : std::uint8_t
{
    /** The paper's Sec. 5 continuous router: every idle qubit parks. */
    Continuous,
    /**
     * Gate-aware atom reuse (Lin et al.): idle qubits that interact
     * again within CompilerOptions::reuse_lookahead stages stay parked
     * in the compute zone instead of round-tripping to storage
     * (src/reuse/). Requires the storage zone; the storage-free
     * configuration falls back to Continuous.
     */
    Reuse,
    /**
     * An alias of Continuous: the same router, the same plans and RNG
     * draws. It stays an accepted value so existing option sets keep
     * working. Selecting it changes only the cache key (every strategy
     * participates in the job fingerprint); the derived seed is
     * Continuous's.
     */
    Fast,
    /**
     * Opt-in high-quality mode in the spirit of Stade et al. (PAPERS
     * "Search Smarter, Not Harder"): each stage transition evaluates
     * CompilerOptions::routing_window candidate gate orderings through
     * the continuous router on a scratch layout and commits the plan
     * with the smallest total move distance (ties: fewer moves, then
     * the earliest candidate). Trades compile time for planned-move
     * quality.
     */
    Windowed,
};

/**
 * How the router's residency step decides compute-zone residency — the
 * replacement policy when the compute zone is viewed as a cache of
 * atoms over storage (only meaningful with RoutingStrategy::Reuse).
 *
 * The paper's fidelity model (src/fidelity/) prices the alternatives:
 * a storage round trip costs four trap transfers plus two shuttle
 * legs, staying resident costs one excitation exposure per intervening
 * Rydberg pulse plus idle dephasing. The policies differ in how they
 * weigh that trade and in whether residency may survive block
 * boundaries. The values are fingerprinted, hence explicit (see
 * PlacementStrategy).
 */
enum class ResidencyPolicy : std::uint8_t
{
    /**
     * The fixed stage-count lookahead (Lin et al.): hold an idle qubit
     * iff its next interaction lies within
     * CompilerOptions::reuse_lookahead stages of the current block.
     * Every hold is force-released at block boundaries. This is the
     * default and reproduces the pre-policy reuse router bit for bit.
     */
    Lookahead = 0,
    /**
     * Longest-time-to-interaction (Belady-style, the quicksilver
     * lru-vs-lti compute-slot-replacement shape): every idle qubit
     * stays resident; under pressure the qubit whose next use (from
     * ReuseAnalysis) lies farthest in the future is evicted first, a
     * qubit with no known next use counting as farthest. Residency
     * persists across block boundaries, which is what finally buys
     * cross-block reuse on QSIM/QFT/BV.
     */
    Lti = 2,
    /**
     * Fidelity-weighted: hold iff the projected cost of staying
     * resident until the next use — excitation exposures plus idle
     * dephasing from the hardware parameters — is below the cost of a
     * four-transfer storage round trip. Adapts the window to the
     * machine instead of fixing a stage count; persists across blocks.
     */
    Fidelity = 3,
};

/** Short stable name, e.g. "row-major"; used by reports and the CLI. */
std::string_view placementStrategyName(PlacementStrategy strategy);
std::string_view stageOrderStrategyName(StageOrderStrategy strategy);
std::string_view collMoveOrderStrategyName(CollMoveOrderStrategy strategy);
std::string_view routingStrategyName(RoutingStrategy strategy);
std::string_view residencyPolicyName(ResidencyPolicy policy);

/**
 * Parses a strategy name as printed by the matching *Name() function.
 * Returns false (leaving @p out untouched) on an unknown name.
 */
bool parsePlacementStrategy(std::string_view text, PlacementStrategy &out);
bool parseStageOrderStrategy(std::string_view text, StageOrderStrategy &out);
bool parseCollMoveOrderStrategy(std::string_view text,
                                CollMoveOrderStrategy &out);
bool parseRoutingStrategy(std::string_view text, RoutingStrategy &out);
bool parseResidencyPolicy(std::string_view text, ResidencyPolicy &out);

/**
 * One row of the strategy catalog behind `powermove --list-strategies`:
 * a strategy dimension, the CLI flag selecting it (empty when the
 * dimension is library-only), and its value names, default first.
 */
struct StrategyCatalogEntry
{
    std::string_view dimension;
    std::string_view flag;
    std::vector<std::string_view> values;
};

/** Every strategy dimension with every value name, defaults first. */
std::vector<StrategyCatalogEntry> strategyCatalog();

} // namespace powermove

#endif // POWERMOVE_COMPILER_STRATEGIES_HPP
