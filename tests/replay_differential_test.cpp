/** @file Differential test of the schedule validator and the Eq. 1 evaluator.
 *
 * The library's validator and evaluator keep occupancy and exposure
 * incrementally; the oracles in tests/oracles/ rescan the whole machine
 * on every instruction. Two parts:
 *
 *  - clean schedules: every Table 2 circuit and the five large scale
 *    rows, each compiled with default options, without storage, with
 *    reuse routing and with windowed routing, must get the same verdict
 *    and a FidelityBreakdown that matches field by field, doubles by bit
 *    pattern;
 *  - mutants: seeded random corruptions of compiled schedules (dropped,
 *    retargeted or duplicated moves, moves onto occupied sites, swapped
 *    gate partners, reordered pulses, dropped gates, relabeled pulse
 *    blocks) must get the same
 *    accept/reject verdict and the same what() string, byte for byte.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compiler/powermove.hpp"
#include "fidelity/evaluator.hpp"
#include "isa/validator.hpp"
#include "oracles/reference_evaluator.hpp"
#include "oracles/reference_validator.hpp"
#include "workloads/suite.hpp"

namespace powermove {
namespace {

struct NamedOptions
{
    const char *label;
    CompilerOptions options;
};

std::vector<NamedOptions>
configurations()
{
    CompilerOptions storage_free;
    storage_free.use_storage = false;
    CompilerOptions reuse;
    reuse.routing = RoutingStrategy::Reuse;
    CompilerOptions windowed;
    windowed.routing = RoutingStrategy::Windowed;
    return {{"default", CompilerOptions{}},
            {"storage-free", storage_free},
            {"reuse", reuse},
            {"windowed", windowed}};
}

/** The scale rows of the whole-request benchmark. */
std::vector<BenchmarkSpec>
scaleRows()
{
    return {makeFamilyInstance("QSIM-rand-0.3", 400),
            makeFamilyInstance("QFT", 100), makeFamilyInstance("BV", 1024),
            makeFamilyInstance("QAOA-regular3", 400),
            makeFamilyInstance("VQE", 1024)};
}

/** "accepted", or the exception's type and what() string. */
std::string
verdictOf(const std::function<void()> &check)
{
    try {
        check();
        return "accepted";
    } catch (const ValidationError &e) {
        return std::string("ValidationError: ") + e.what();
    } catch (const InternalError &e) {
        return std::string("InternalError: ") + e.what();
    } catch (const std::exception &e) {
        return std::string("other: ") + e.what();
    }
}

/** @p message with every run of digits replaced by one '#'. */
std::string
withoutNumbers(const std::string &message)
{
    std::string out;
    for (const char c : message) {
        const bool digit = c >= '0' && c <= '9';
        if (!digit)
            out += c;
        else if (out.empty() || out.back() != '#')
            out += '#';
    }
    return out;
}

std::uint64_t
bitsOf(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

void
expectSameBreakdown(const FidelityBreakdown &got,
                    const FidelityBreakdown &want, const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(got.one_q_gates, want.one_q_gates);
    EXPECT_EQ(got.cz_gates, want.cz_gates);
    EXPECT_EQ(got.excitation_exposures, want.excitation_exposures);
    EXPECT_EQ(got.transfers, want.transfers);
    EXPECT_EQ(got.pulses, want.pulses);
    EXPECT_EQ(bitsOf(got.exec_time.micros()), bitsOf(want.exec_time.micros()));
    EXPECT_EQ(bitsOf(got.total_idle.micros()),
              bitsOf(want.total_idle.micros()));
    EXPECT_EQ(bitsOf(got.one_q_factor), bitsOf(want.one_q_factor));
    EXPECT_EQ(bitsOf(got.two_q_factor), bitsOf(want.two_q_factor));
    EXPECT_EQ(bitsOf(got.excitation_factor), bitsOf(want.excitation_factor));
    EXPECT_EQ(bitsOf(got.transfer_factor), bitsOf(want.transfer_factor));
    EXPECT_EQ(bitsOf(got.decoherence_factor),
              bitsOf(want.decoherence_factor));
}

void
checkCleanSchedules(const std::vector<BenchmarkSpec> &specs)
{
    for (const BenchmarkSpec &spec : specs) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        for (const NamedOptions &config : configurations()) {
            const std::string label = spec.name + "/" + config.label;
            const CompileResult result =
                PowerMoveCompiler(machine, config.options).compile(circuit);
            EXPECT_EQ(verdictOf([&] {
                          validateAgainstCircuit(result.schedule, circuit);
                      }),
                      "accepted")
                << label;
            EXPECT_EQ(verdictOf([&] {
                          referenceValidateAgainstCircuit(result.schedule,
                                                          circuit);
                      }),
                      "accepted")
                << label;
            expectSameBreakdown(result.metrics,
                                referenceEvaluateSchedule(result.schedule),
                                label);
            expectSameBreakdown(evaluateSchedule(result.schedule),
                                result.metrics, label + " (re-evaluated)");
        }
    }
}

TEST(ReplayDifferentialTest, CleanTable2SchedulesMatchOracles)
{
    checkCleanSchedules(table2Suite());
}

TEST(ReplayDifferentialTest, CleanScaleSchedulesMatchOracles)
{
    checkCleanSchedules(scaleRows());
}

// ----------------------------------------------------------------- mutants

/** An editable copy of a schedule. */
struct Program
{
    std::vector<SiteId> initial;
    std::vector<Instruction> instructions;

    MachineSchedule
    build(const Machine &machine) const
    {
        MachineSchedule schedule(machine, initial);
        for (const auto &instruction : instructions) {
            if (const auto *layer = std::get_if<OneQLayerOp>(&instruction))
                schedule.addOneQLayer(layer->gate_count, layer->depth);
            else if (const auto *op = std::get_if<MoveBatchOp>(&instruction))
                schedule.addMoveBatch(op->batch);
            else
                schedule.addRydberg(std::get<RydbergOp>(instruction).gates,
                                    std::get<RydbergOp>(instruction).block_index);
        }
        return schedule;
    }

    template <typename Op>
    std::vector<std::size_t>
    indicesOf() const
    {
        std::vector<std::size_t> out;
        for (std::size_t i = 0; i < instructions.size(); ++i) {
            if (std::holds_alternative<Op>(instructions[i]))
                out.push_back(i);
        }
        return out;
    }
};

enum class Mutation {
    DropMove,
    RetargetMove,
    RetargetOffLattice,
    DuplicateMove,
    MoveOntoOccupied,
    SwapGatePartners,
    ReorderPulses,
    DropGate,
    RelabelPulse,
    GateOnUnknownQubit,
};
constexpr std::size_t kNumMutations = 10;

template <typename T>
T &
pick(Rng &rng, std::vector<T> &values)
{
    return values[rng.nextBelow(values.size())];
}

/** Applies @p kind at a random place; false if the program offers none. */
bool
mutate(Program &program, Mutation kind, const Machine &machine, Rng &rng)
{
    const std::size_t num_qubits = program.initial.size();
    auto batches = program.indicesOf<MoveBatchOp>();
    auto pulses = program.indicesOf<RydbergOp>();
    const auto random_move = [&](std::size_t batch_at)
        -> std::pair<CollMove *, std::size_t> {
        auto &groups =
            std::get<MoveBatchOp>(program.instructions[batch_at]).batch.groups;
        CollMove &group = pick(rng, groups);
        if (group.moves.empty())
            return {nullptr, 0};
        return {&group, rng.nextBelow(group.moves.size())};
    };

    switch (kind) {
    case Mutation::DropMove:
    case Mutation::RetargetMove:
    case Mutation::RetargetOffLattice:
    case Mutation::DuplicateMove:
    case Mutation::MoveOntoOccupied: {
        if (batches.empty())
            return false;
        const std::size_t at = pick(rng, batches);
        const auto [group, index] = random_move(at);
        if (group == nullptr)
            return false;
        QubitMove &move = group->moves[index];
        if (kind == Mutation::DropMove) {
            group->moves.erase(group->moves.begin() +
                               static_cast<std::ptrdiff_t>(index));
        } else if (kind == Mutation::RetargetMove) {
            move.to = static_cast<SiteId>(rng.nextBelow(machine.numSites()));
        } else if (kind == Mutation::RetargetOffLattice) {
            // Past the lattice, at either end of the move.
            const auto site =
                static_cast<SiteId>(machine.numSites() + rng.nextBelow(4));
            (rng.nextBool(0.5) ? move.to : move.from) = site;
        } else if (kind == Mutation::DuplicateMove) {
            const QubitMove copy = move;
            pick(rng, std::get<MoveBatchOp>(program.instructions[at])
                          .batch.groups)
                .moves.push_back(copy);
        } else {
            // Land on the site another qubit holds just before the batch.
            std::vector<SiteId> positions = program.initial;
            for (std::size_t i = 0; i < at; ++i) {
                const auto *op = std::get_if<MoveBatchOp>(
                    &program.instructions[i]);
                if (op == nullptr)
                    continue;
                for (const auto &g : op->batch.groups) {
                    for (const auto &m : g.moves) {
                        if (m.qubit < num_qubits)
                            positions[m.qubit] = m.to;
                    }
                }
            }
            const auto other =
                static_cast<QubitId>(rng.nextBelow(num_qubits));
            if (other == move.qubit)
                return false;
            move.to = positions[other];
        }
        return true;
    }
    case Mutation::SwapGatePartners: {
        if (pulses.empty())
            return false;
        auto &gates =
            std::get<RydbergOp>(program.instructions[pick(rng, pulses)]).gates;
        if (gates.size() >= 2) {
            const std::size_t i = rng.nextBelow(gates.size());
            const std::size_t j = rng.nextBelow(gates.size());
            if (i == j)
                return false;
            std::swap(gates[i].b, gates[j].b);
        } else {
            const auto other =
                static_cast<QubitId>(rng.nextBelow(num_qubits));
            if (other == gates[0].a || other == gates[0].b)
                return false;
            gates[0].b = other;
        }
        return true;
    }
    case Mutation::ReorderPulses: {
        if (pulses.size() < 2)
            return false;
        const std::size_t i = pick(rng, pulses);
        const std::size_t j = pick(rng, pulses);
        if (i == j)
            return false;
        std::swap(program.instructions[i], program.instructions[j]);
        return true;
    }
    case Mutation::DropGate: {
        if (pulses.empty())
            return false;
        const std::size_t at = pick(rng, pulses);
        auto &gates = std::get<RydbergOp>(program.instructions[at]).gates;
        gates.erase(gates.begin() +
                    static_cast<std::ptrdiff_t>(rng.nextBelow(gates.size())));
        if (gates.empty())
            program.instructions.erase(program.instructions.begin() +
                                       static_cast<std::ptrdiff_t>(at));
        return true;
    }
    case Mutation::RelabelPulse: {
        // Hardware-legal: it reaches the per-block completeness check.
        if (pulses.empty())
            return false;
        auto &block =
            std::get<RydbergOp>(program.instructions[pick(rng, pulses)])
                .block_index;
        if (rng.nextBool(0.5))
            ++block;
        else if (block > 0)
            --block;
        else
            return false;
        return true;
    }
    case Mutation::GateOnUnknownQubit: {
        if (pulses.empty())
            return false;
        auto &gate = pick(
            rng, std::get<RydbergOp>(program.instructions[pick(rng, pulses)])
                     .gates);
        gate.b = static_cast<QubitId>(num_qubits + rng.nextBelow(4));
        return true;
    }
    }
    return false;
}

TEST(ReplayDifferentialTest, MutantsGetTheOracleVerdictAndMessage)
{
    constexpr std::size_t kMutantsPerSchedule = 40;
    Rng rng(20251018);
    std::size_t mutants = 0;
    std::size_t accepted = 0;
    std::map<std::string, std::size_t> rejections;
    std::vector<std::size_t> applied(kNumMutations, 0);

    const auto check = [&](const Program &program, const Machine &machine,
                           const Circuit &circuit, const std::string &label) {
        ++mutants;
        const MachineSchedule schedule = program.build(machine);
        const std::string hardware =
            verdictOf([&] { validateSchedule(schedule); });
        ASSERT_EQ(hardware,
                  verdictOf([&] { referenceValidateSchedule(schedule); }))
            << label;
        const std::string full =
            verdictOf([&] { validateAgainstCircuit(schedule, circuit); });
        ASSERT_EQ(full, verdictOf([&] {
                      referenceValidateAgainstCircuit(schedule, circuit);
                  }))
            << label;

        if (full == "accepted")
            ++accepted;
        else
            ++rejections[withoutNumbers(full)];
        // A hardware-legal mutant replays cleanly, so both evaluators
        // must score it identically.
        if (hardware == "accepted")
            expectSameBreakdown(evaluateSchedule(schedule),
                                referenceEvaluateSchedule(schedule), label);
    };

    std::vector<NamedOptions> configs = configurations();
    configs.resize(2); // default and storage-free: the two zone layouts
    for (const BenchmarkSpec &spec : table2Suite()) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        for (const NamedOptions &config : configs) {
            const CompileResult result =
                PowerMoveCompiler(machine, config.options).compile(circuit);
            const Program original{result.schedule.initialSites(),
                                   result.schedule.instructions()};
            const std::string prefix = spec.name + "/" + config.label;
            for (std::size_t n = 0; n < kMutantsPerSchedule; ++n) {
                Program program = original;
                const std::size_t edits = 1 + rng.nextBelow(3);
                bool changed = false;
                for (std::size_t e = 0; e < edits; ++e) {
                    const auto kind =
                        static_cast<Mutation>(rng.nextBelow(kNumMutations));
                    if (mutate(program, kind, machine, rng)) {
                        changed = true;
                        ++applied[static_cast<std::size_t>(kind)];
                    }
                }
                if (changed)
                    check(program, machine, circuit,
                          prefix + " mutant " + std::to_string(n));
            }

            // Hand the first pulse of a block's run to the block before, or
            // its last to the block after: the random mix seldom leaves such
            // a mutant hardware-legal, and only these keep the blocks in
            // order and so reach the per-block completeness checks. One run
            // edge in four is tried, and always the very last pulse (handed
            // up, a lone last pulse leaves its block unexecuted).
            const auto pulses = original.indicesOf<RydbergOp>();
            const auto block_at = [&](std::size_t k) {
                return std::get<RydbergOp>(original.instructions[pulses[k]])
                    .block_index;
            };
            for (std::size_t k = 0; k < pulses.size(); ++k) {
                const std::size_t block = block_at(k);
                const bool first = k == 0 || block_at(k - 1) != block;
                const bool last =
                    k + 1 == pulses.size() || block_at(k + 1) != block;
                for (const bool up : {false, true}) {
                    if (up ? !last : !first || block == 0)
                        continue;
                    if (k + 1 != pulses.size() && rng.nextBelow(4) != 0)
                        continue;
                    Program program = original;
                    std::get<RydbergOp>(program.instructions[pulses[k]])
                        .block_index = up ? block + 1 : block - 1;
                    check(program, machine, circuit,
                          prefix + " relabel " + std::to_string(pulses[k]));
                }
            }
        }
    }

    // The mutants must reach every mutation kind and, through them, the
    // counter-driven failure paths the clean schedules never take.
    for (std::size_t kind = 0; kind < kNumMutations; ++kind)
        EXPECT_GT(applied[kind], 0u) << "mutation kind " << kind;
    EXPECT_GT(mutants, 1000u);
    EXPECT_GT(mutants - accepted, mutants / 2);
    const auto reached = [&](const std::string &needle) {
        for (const auto &[message, count] : rejections) {
            if (message.find(needle) != std::string::npos)
                return true;
        }
        return false;
    };
    for (const char *needle :
         {"holds", "without a scheduled gate", "not co-located",
          "moved twice", "departs from", "Coll-Move violates",
          "non-existent site", "gate addresses an unknown qubit",
          "out of order", "different number of CZ blocks",
          "different gate multiset", "never executed"})
        EXPECT_TRUE(reached(needle)) << needle;
    for (const auto &[message, count] : rejections)
        std::printf("  %6zu  %s\n", count, message.c_str());
    std::printf("  %6zu  accepted of %zu mutants\n", accepted, mutants);
}

} // namespace
} // namespace powermove
