/**
 * @file
 * The PowerMove compiler (paper Fig. 1b) — a thin facade over the pass
 * pipeline in compiler/pipeline.hpp:
 *
 *   PlacementPass      initial layout (strategy-selected);
 *   StagePartitionPass edge-coloring stage partition (Sec. 4.1);
 *   StageOrderPass     zone-aware stage ordering (Sec. 4.2);
 *   RoutingPass        direct layout-to-layout transitions (Sec. 5),
 *                      with optional atom reuse (src/reuse/);
 *   CollMoveOrderPass  distance-aware grouping + storage-dwell order
 *                      (Sec. 5.3 / 6.1);
 *   AodBatchPass       multi-AOD parallel batching (Sec. 6.2).
 *
 * The initial layout sits entirely in the storage zone (compute zone in
 * the storage-free configuration) and is never returned to: layouts flow
 * forward continuously. Strategies are selected through CompilerOptions;
 * every compile records per-pass profiles into CompileResult unless
 * profiling is disabled.
 */

#ifndef POWERMOVE_COMPILER_POWERMOVE_HPP
#define POWERMOVE_COMPILER_POWERMOVE_HPP

#include "arch/machine.hpp"
#include "circuit/circuit.hpp"
#include "compiler/options.hpp"
#include "compiler/pipeline.hpp"
#include "compiler/result.hpp"

namespace powermove {

/** The zoned-architecture neutral-atom compiler. */
class PowerMoveCompiler
{
  public:
    /**
     * @param machine target machine; must outlive the compiler and every
     *                CompileResult it produces
     * @param options pipeline configuration; validated here (e.g. a zero
     *                AOD count throws ConfigError at construction)
     */
    explicit PowerMoveCompiler(const Machine &machine,
                               CompilerOptions options = {});

    /**
     * Compiles @p circuit into a machine schedule and evaluates it.
     * Throws ConfigError if the machine cannot hold the circuit.
     */
    CompileResult compile(const Circuit &circuit) const;

    const CompilerOptions &options() const { return pipeline_.options(); }
    const Machine &machine() const { return machine_; }

  private:
    const Machine &machine_;
    Pipeline pipeline_;
};

} // namespace powermove

#endif // POWERMOVE_COMPILER_POWERMOVE_HPP
