/**
 * @file
 * The PowerMove compiler (paper Fig. 1b). PowerMoveCompiler::compile()
 * walks the circuit's moments and runs six steps, each timed and
 * counted under its PassId (compiler/profile.hpp):
 *
 *   Placement       initial layout, row-major or routing-aware  [once]
 *   StagePartition  edge-coloring stage partition (Sec. 4.1)    [per block]
 *   StageOrder      zone-aware stage ordering (Sec. 4.2)        [per block]
 *   Routing         direct layout-to-layout transitions         [per stage]
 *                   (Sec. 5), optionally with atom reuse
 *                   (src/reuse/) or the windowed search
 *   CollMoveOrder   distance-aware grouping + storage-dwell     [per stage]
 *                   order (Sec. 5.3 / 6.1)
 *   AodBatch        multi-AOD parallel batching (Sec. 6.2)      [per stage]
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
// Not used here; callers such as perfbench/ reach Rng through this header.
#include "common/rng.hpp"
#include "compiler/options.hpp"
#include "compiler/result.hpp"

namespace powermove {

/** The zoned-architecture neutral-atom compiler. */
class PowerMoveCompiler
{
  public:
    /**
     * @param machine target machine; must outlive the compiler and every
     *                CompileResult it produces
     * @param options compile configuration; validated here: a zero AOD
     *                count, a zero windowed-routing window, or a zero
     *                reuse lookahead with the storage zone throws
     *                ConfigError
     */
    explicit PowerMoveCompiler(const Machine &machine,
                               CompilerOptions options = {});

    /**
     * Compiles @p circuit into a machine schedule and evaluates it.
     * Throws ConfigError if the machine cannot hold the circuit.
     */
    CompileResult compile(const Circuit &circuit) const;

    const CompilerOptions &options() const { return options_; }
    const Machine &machine() const { return machine_; }

  private:
    const Machine &machine_;
    CompilerOptions options_;
};

} // namespace powermove

#endif // POWERMOVE_COMPILER_POWERMOVE_HPP
