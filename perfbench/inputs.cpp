#include "inputs.hpp"

#include <array>
#include <stdexcept>
#include <unordered_set>

#include "common/rng.hpp"
#include "qasm/writer.hpp"
#include "service/fingerprint.hpp"
#include "workloads/bv.hpp"
#include "workloads/qaoa.hpp"
#include "workloads/qft.hpp"
#include "workloads/qsim.hpp"
#include "workloads/suite.hpp"
#include "workloads/vqe.hpp"

namespace perfbench {

namespace pm = powermove;

namespace {

/** Generator seed of (family, n) under workload seed @p seed != 0. */
std::uint64_t
generatorSeed(const std::string &family, std::size_t n, std::uint64_t seed)
{
    pm::service::Fnv1a h;
    h.add(std::string_view(family));
    h.add(static_cast<std::uint64_t>(n));
    h.add(seed);
    std::uint64_t state = h.digest();
    return pm::splitMix64(state);
}

/** The family generators of workloads/suite.cpp, with an explicit seed. */
pm::Circuit
buildFamily(const std::string &family, std::size_t n, std::uint64_t gen_seed)
{
    if (family == "QAOA-regular3")
        return pm::makeQaoaRegular(n, 3, 1, gen_seed);
    if (family == "QAOA-regular4")
        return pm::makeQaoaRegular(n, 4, 1, gen_seed);
    if (family == "QAOA-random")
        return pm::makeQaoaRandom(n, 0.5, 1, gen_seed);
    if (family == "QFT")
        return pm::makeQft(n);
    if (family == "BV")
        return pm::makeBv(n, gen_seed);
    if (family == "VQE")
        return pm::makeVqe(n, 1, pm::VqeEntanglement::Linear, gen_seed);
    if (family == "QSIM-rand-0.3")
        return pm::makeQsim(n, 0.3, 10, gen_seed);
    throw std::invalid_argument("unknown family " + family);
}

/** Seed 0: the library's own circuit; otherwise a reseeded family. */
pm::Circuit
buildRow(const pm::BenchmarkSpec &spec, std::uint64_t seed)
{
    if (seed == 0)
        return spec.build();
    return buildFamily(spec.family, spec.num_qubits,
                       generatorSeed(spec.family, spec.num_qubits, seed));
}

Input
makeInput(std::string name, std::string strategy, const pm::Circuit &circuit,
          pm::CompilerOptions options)
{
    Input input;
    input.name = std::move(name);
    input.strategy = std::move(strategy);
    input.qasm = pm::qasm::writeQasm(circuit);
    input.machine = pm::MachineConfig::forQubits(circuit.numQubits());
    input.options = options;
    return input;
}

} // namespace

std::vector<Input>
table2Inputs(std::uint64_t seed)
{
    std::vector<Input> inputs;
    for (const pm::BenchmarkSpec &spec : pm::table2Suite())
        inputs.push_back(
            makeInput(spec.name, "default", buildRow(spec, seed), {}));
    return inputs;
}

std::vector<Input>
scaleInputs(std::uint64_t seed)
{
    static const std::array<std::pair<const char *, std::size_t>, 5> kRows{{
        {"QSIM-rand-0.3", 400},
        {"QFT", 100},
        {"BV", 1024},
        {"QAOA-regular3", 400},
        {"VQE", 1024},
    }};
    std::vector<Input> inputs;
    for (const auto &[family, n] : kRows) {
        const pm::BenchmarkSpec spec = pm::makeFamilyInstance(family, n);
        inputs.push_back(
            makeInput(spec.name, "default", buildRow(spec, seed), {}));
    }
    return inputs;
}

std::vector<Input>
serviceMixPool(std::uint64_t seed, std::size_t size)
{
    struct Family
    {
        const char *name;
        std::size_t min_n, max_n, step;
    };
    static const std::array<Family, 7> kFamilies{{
        {"QAOA-regular3", 20, 100, 2},
        {"QAOA-regular4", 20, 80, 1},
        {"QAOA-random", 10, 30, 1},
        {"QFT", 10, 30, 1},
        {"BV", 10, 70, 1},
        {"VQE", 20, 60, 1},
        {"QSIM-rand-0.3", 10, 40, 1},
    }};
    static const std::array<const char *, 5> kStrategies{
        "continuous", "fast", "reuse-lti", "windowed", "routing-aware"};

    // Entry i has a fixed family, strategy and size, spread evenly over
    // the pool so that every seed offers the same mix of work at every
    // popularity rank; the seed picks the generator seeds (and, in the
    // caller, the arrival order). A duplicate job (QFT has no
    // randomness) moves on to the family's next size.
    pm::Rng rng(seed ^ 0x5e41ce3a1f0c0ffeULL);
    std::vector<Input> pool;
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t i = 0; pool.size() < size; ++i) {
        const Family &family = kFamilies[i % kFamilies.size()];
        const std::size_t strategy = (i / kFamilies.size()) % kStrategies.size();
        const std::size_t sizes = (family.max_n - family.min_n) / family.step + 1;
        const double golden = 0.6180339887498949 * static_cast<double>(i);
        const auto slot = static_cast<std::size_t>(
            (golden - static_cast<double>(static_cast<std::uint64_t>(golden))) *
            static_cast<double>(sizes));
        const std::uint64_t gen_seed = rng.next();

        pm::CompilerOptions options;
        switch (strategy) {
        case 1:
            options.routing = pm::RoutingStrategy::Fast;
            break;
        case 2:
            options.routing = pm::RoutingStrategy::Reuse;
            options.residency = pm::ResidencyPolicy::Lti;
            break;
        case 3:
            options.routing = pm::RoutingStrategy::Windowed;
            break;
        case 4:
            options.placement = pm::PlacementStrategy::RoutingAware;
            break;
        default:
            break;
        }
        for (std::size_t attempt = 0; attempt < sizes; ++attempt) {
            const std::size_t n =
                family.min_n + family.step * ((slot + attempt) % sizes);
            const pm::Circuit circuit = buildFamily(family.name, n, gen_seed);
            const pm::MachineConfig machine =
                pm::MachineConfig::forQubits(circuit.numQubits());
            if (!seen.insert(pm::service::fingerprintJob(circuit, machine, options))
                     .second)
                continue;
            pool.push_back(makeInput(std::string(family.name) + "-" +
                                         std::to_string(n) + "/" +
                                         kStrategies[strategy],
                                     kStrategies[strategy], circuit, options));
            break;
        }
    }
    return pool;
}

} // namespace perfbench
