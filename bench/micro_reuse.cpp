/**
 * @file
 * Residency-policy comparison: the compute zone as a cache of atoms.
 *
 * Compiles every Table 2 benchmark — plus depth-2 VQE ansatze, the
 * canonical multi-block workload where atom reuse pays between
 * entanglement layers — with no residency policy (`continuous`) and
 * with each one (`--routing=reuse --residency=lookahead|lti|fidelity`),
 * validates every schedule against its source circuit, and prints the
 * per-row and per-family comparison: planned moves, reuse hits, holds,
 * and the Eq. 1 fidelity against the continuous baseline as a
 * difference of -log10 F (per-factor sums, finite where the product
 * underflows to 0; negative means reuse wins).
 *
 * Beyond validation, the run gates the residency accounting invariants
 * on every compile (exit nonzero on violation):
 *
 *  - `parked_no_reuse + window_misses == lookahead_misses` (the miss
 *    split is exact, never an estimate);
 *  - `residency_holds_started == residency_holds_ended` (every span is
 *    settled by program end under every policy);
 *  - cross-block reuse: on the QSIM and QFT families the `lti` policy
 *    must measure strictly more reuse hits than `lookahead` (residency
 *    persisting across block boundaries is what buys them), and on BV
 *    it must plan no more moves than `lookahead`.
 *
 * `--smoke` compiles one small entry per family (CI mode). `--json P`
 * additionally writes every row as JSON for the bench-regression
 * artifact. Standalone main (no Google Benchmark dependency).
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "compiler/powermove.hpp"
#include "isa/validator.hpp"
#include "report/table.hpp"
#include "workloads/suite.hpp"
#include "workloads/vqe.hpp"

namespace {

using namespace powermove;

struct Entry
{
    std::string name;
    std::string family;
    MachineConfig machine_config;
    Circuit circuit;
};

std::vector<Entry>
makeEntries(bool smoke)
{
    std::vector<Entry> entries;
    std::map<std::string, int> seen;
    for (const BenchmarkSpec &spec : table2Suite()) {
        if (smoke && seen[spec.family]++ > 0)
            continue;
        entries.push_back(
            {spec.name, spec.family, spec.machine_config, spec.build()});
    }
    // Multi-layer VQE: two entanglement layers -> two CZ blocks, so the
    // chain-end qubits idle in the compute zone between layers.
    for (const std::size_t n : smoke ? std::vector<std::size_t>{30}
                                     : std::vector<std::size_t>{30, 50}) {
        entries.push_back({"VQE-depth2-" + std::to_string(n), "VQE-depth2",
                           MachineConfig::forQubits(n),
                           makeVqe(n, 2, VqeEntanglement::Linear, 0xF00D + n)});
    }
    return entries;
}

constexpr ResidencyPolicy kPolicies[] = {
    ResidencyPolicy::Lookahead,
    ResidencyPolicy::Lti,
    ResidencyPolicy::Fidelity,
};

struct Run
{
    std::size_t moves = 0;
    std::size_t transfers = 0;
    std::uint64_t held = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t parked_no_reuse = 0;
    std::uint64_t window_misses = 0;
    std::uint64_t holds_started = 0;
    std::uint64_t holds_ended = 0;
    double fidelity = 0.0;
    double neg_log10_fidelity = 0.0;
};

Run
compileOne(const Machine &machine, const Circuit &circuit,
           RoutingStrategy routing,
           ResidencyPolicy residency = ResidencyPolicy::Lookahead)
{
    CompilerOptions options;
    options.routing = routing;
    options.residency = residency;
    const auto result = PowerMoveCompiler(machine, options).compile(circuit);
    validateAgainstCircuit(result.schedule, circuit);

    Run run;
    run.moves = result.schedule.numQubitMoves();
    run.transfers = result.schedule.numTransfers();
    run.fidelity = result.metrics.fidelity();
    run.neg_log10_fidelity = result.metrics.negLog10(machine.params());
    for (const PassProfile &profile : result.pass_profiles) {
        if (profile.pass != PassId::Routing)
            continue;
        for (const PassCounter &counter : profile.counters) {
            if (counter.name == "qubits_held")
                run.held = counter.value;
            if (counter.name == "lookahead_hits")
                run.hits = counter.value;
            if (counter.name == "lookahead_misses")
                run.misses = counter.value;
            if (counter.name == "parked_no_reuse")
                run.parked_no_reuse = counter.value;
            if (counter.name == "window_misses")
                run.window_misses = counter.value;
            if (counter.name == "residency_holds_started")
                run.holds_started = counter.value;
            if (counter.name == "residency_holds_ended")
                run.holds_ended = counter.value;
        }
    }
    return run;
}

std::string
fmt(double value, const char *spec)
{
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), spec, value);
    return buffer;
}

/** One gate violation: prints and counts, run continues for the report. */
int
gate(bool ok, const std::string &name, const char *what)
{
    if (ok)
        return 0;
    std::fprintf(stderr, "%s: GATE FAILED: %s\n", name.c_str(), what);
    return 1;
}

void
writeJson(std::FILE *out,
          const std::vector<std::pair<Entry, std::map<std::string, Run>>>
              &rows)
{
    std::fprintf(out, "{\n  \"benchmarks\": [\n");
    bool first_row = true;
    for (const auto &[entry, runs] : rows) {
        if (!first_row)
            std::fprintf(out, ",\n");
        first_row = false;
        std::fprintf(out, "    {\"name\": \"%s\", \"family\": \"%s\"",
                     entry.name.c_str(), entry.family.c_str());
        for (const auto &[policy, run] : runs) {
            std::fprintf(out,
                         ",\n     \"%s\": {\"moves\": %zu, \"transfers\": "
                         "%zu, \"held\": %llu, \"reuse_hits\": %llu, "
                         "\"misses\": %llu, \"parked_no_reuse\": %llu, "
                         "\"window_misses\": %llu, \"holds_started\": %llu, "
                         "\"holds_ended\": %llu, \"fidelity\": %.6f, "
                         "\"neg_log10_fidelity\": %.6f}",
                         policy.c_str(), run.moves, run.transfers,
                         static_cast<unsigned long long>(run.held),
                         static_cast<unsigned long long>(run.hits),
                         static_cast<unsigned long long>(run.misses),
                         static_cast<unsigned long long>(run.parked_no_reuse),
                         static_cast<unsigned long long>(run.window_misses),
                         static_cast<unsigned long long>(run.holds_started),
                         static_cast<unsigned long long>(run.holds_ended),
                         run.fidelity, run.neg_log10_fidelity);
        }
        std::fprintf(out, "}");
    }
    std::fprintf(out, "\n  ]\n}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
    }

    std::printf(
        "=== Residency policies: continuous vs reuse x "
        "{lookahead, lti, fidelity}%s ===\n\n",
        smoke ? " (smoke subset)" : "");

    TextTable table({"Benchmark", "Policy", "Moves", "Hits", "Held",
                     "Misses", "NoReuse", "WindowMiss", "d(-log10 F)"});
    // family -> policy -> (moves, hits) totals for the summary + gates.
    std::map<std::string, std::map<std::string, std::pair<std::size_t,
                                                          std::uint64_t>>>
        family_totals;
    std::vector<std::pair<Entry, std::map<std::string, Run>>> rows;
    int failures = 0;

    for (const Entry &entry : makeEntries(smoke)) {
        const Machine machine(entry.machine_config);
        try {
            const Run cont = compileOne(machine, entry.circuit,
                                        RoutingStrategy::Continuous);
            std::map<std::string, Run> runs;
            runs["continuous"] = cont;
            family_totals[entry.family]["continuous"].first += cont.moves;
            for (const ResidencyPolicy policy : kPolicies) {
                const Run run = compileOne(machine, entry.circuit,
                                           RoutingStrategy::Reuse, policy);
                const std::string policy_name(residencyPolicyName(policy));
                runs[policy_name] = run;
                table.addRow({entry.name, policy_name,
                              std::to_string(run.moves),
                              std::to_string(run.hits),
                              std::to_string(run.held),
                              std::to_string(run.misses),
                              std::to_string(run.parked_no_reuse),
                              std::to_string(run.window_misses),
                              fmt(run.neg_log10_fidelity -
                                      cont.neg_log10_fidelity,
                                  "%+.4f")});
                auto &family = family_totals[entry.family][policy_name];
                family.first += run.moves;
                family.second += run.hits;

                // Accounting invariants, per compile and per policy.
                failures += gate(run.parked_no_reuse + run.window_misses ==
                                     run.misses,
                                 entry.name + "/" + policy_name,
                                 "miss split must sum to lookahead_misses");
                failures += gate(run.holds_started == run.holds_ended,
                                 entry.name + "/" + policy_name,
                                 "residency spans must settle by program "
                                 "end (holds_started == holds_ended)");
            }
            rows.emplace_back(entry, std::move(runs));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s: FAILED: %s\n", entry.name.c_str(),
                         e.what());
            ++failures;
        }
    }

    std::printf("%s\n", table.toString().c_str());

    std::printf("--- Planned moves (hits) by family ---\n");
    for (const auto &[family, by_policy] : family_totals) {
        std::printf("%-16s", family.c_str());
        for (const auto &[policy, totals] : by_policy) {
            std::printf("  %s=%zu(%llu)", policy.c_str(), totals.first,
                        static_cast<unsigned long long>(totals.second));
        }
        std::printf("\n");
    }

    // Cross-block reuse gates: persistent residency (lti) must buy
    // reuse hits the per-block window cannot see on the block-per-gate
    // families, and must never plan more moves than the window policy
    // on BV (one final block; hits are impossible for everyone, but
    // unbounded residency skips parks the window policy pays for).
    for (const auto &[family, by_policy] : family_totals) {
        const auto lookahead = by_policy.at("lookahead");
        const auto lti = by_policy.at("lti");
        if (family == "QSIM-rand-0.3" || family == "QFT") {
            failures += gate(lti.second > lookahead.second, family,
                             "lti must measure more reuse hits than "
                             "lookahead (cross-block residency)");
        }
        if (family == "BV") {
            failures += gate(lti.first <= lookahead.first, family,
                             "lti must not plan more moves than lookahead "
                             "on BV (held data qubits skip their parks)");
        }
    }

    if (!json_path.empty()) {
        std::FILE *out = std::fopen(json_path.c_str(), "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            ++failures;
        } else {
            writeJson(out, rows);
            std::fclose(out);
            std::printf("\nwrote %s\n", json_path.c_str());
        }
    }

    if (failures > 0) {
        std::fprintf(stderr, "%d gate/validation failure(s)\n", failures);
        return 1;
    }
    return 0;
}
