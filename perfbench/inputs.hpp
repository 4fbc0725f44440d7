/**
 * @file
 * Seeded inputs of the three perfbench workloads.
 *
 * Every input is handed to the program under test as OpenQASM text, the
 * way the CLI receives it. Seed 0 reproduces the library's own circuits
 * exactly: table2Suite() for `table2` and makeFamilyInstance() for the
 * `scale` rows. Any other seed regenerates the same families and sizes
 * from different generator seeds (QFT has no randomness and repeats).
 */

#ifndef PERFBENCH_INPUTS_HPP
#define PERFBENCH_INPUTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "compiler/options.hpp"

namespace perfbench {

/** One distinct request of a workload. */
struct Input
{
    /** Row name, e.g. "QFT-100" or "VQE-42/fast". */
    std::string name;
    /** Strategy label; "default" for the closed-loop workloads. */
    std::string strategy;
    /** The request body: the circuit as OpenQASM 2.0 text. */
    std::string qasm;
    /** Machine shape the CLI would pick for this circuit. */
    powermove::MachineConfig machine;
    powermove::CompilerOptions options;
};

/** The 23 rows of Table 2, with default compiler options. */
std::vector<Input> table2Inputs(std::uint64_t seed);

/**
 * The scale rows QSIM-rand-0.3-400, QFT-100, BV-1024, QAOA-regular3-400
 * and VQE-1024, with default compiler options.
 */
std::vector<Input> scaleInputs(std::uint64_t seed);

/**
 * @p size distinct mid-size jobs: Table 2 families at seeded sizes and
 * generator seeds, each paired with a seeded strategy (continuous, fast,
 * reuse with LTI residency, windowed, routing-aware placement).
 */
std::vector<Input> serviceMixPool(std::uint64_t seed, std::size_t size);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HPP
