/**
 * @file
 * Differential test of the QASM front end.
 *
 * Holds the library's qasm::loadQasm / loadQasmFile to the original
 * lexer, parser and converter kept in tests/oracles/reference_qasm_*:
 * for every input both must produce the same circuit (moments, gates,
 * angles bit for bit, measured qubits, name) or fail the same way (the
 * same exception type and message, and for a ParseError the same
 * line:column). The corpus is the .qasm files under data/, writeQasm
 * of the Table 2 suite and of five large rows, the source strings of
 * the QASM unit tests, include trees on disk, and seeded byte and token
 * mutants of all of them.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "oracles/reference_qasm_converter.hpp"
#include "qasm/converter.hpp"
#include "qasm/writer.hpp"
#include "workloads/suite.hpp"

namespace powermove::qasm {
namespace {

/** What one load produced: a rendering of the circuit or of the error. */
std::string
describe(const Circuit &circuit, const std::vector<QubitId> &measured)
{
    std::ostringstream os;
    os << "circuit '" << circuit.name() << "' qubits " << circuit.numQubits()
       << " 1q " << circuit.numOneQGates() << " cz " << circuit.numCzGates()
       << " blocks " << circuit.numBlocks() << "\n";
    for (const auto &moment : circuit.moments()) {
        if (const auto *layer = std::get_if<OneQLayer>(&moment)) {
            os << "L";
            for (const auto &gate : layer->gates) {
                os << " " << static_cast<int>(gate.kind) << ":" << gate.qubit
                   << ":" << std::hex
                   << std::bit_cast<std::uint64_t>(gate.angle) << std::dec;
            }
        } else {
            os << "B";
            for (const auto &gate : std::get<CzBlock>(moment).gates)
                os << " " << gate.a << "-" << gate.b;
        }
        os << "\n";
    }
    os << "measured";
    for (const QubitId q : measured)
        os << " " << q;
    return os.str();
}

/** Runs @p load and renders its result or the exception it threw. */
template <typename Load>
std::string
outcome(Load &&load)
{
    try {
        const auto result = load();
        return describe(result.circuit, result.measured);
    } catch (const ParseError &error) {
        return "ParseError " + std::to_string(error.line()) + ":" +
               std::to_string(error.column()) + " " + error.what();
    } catch (const ConfigError &error) {
        return std::string("ConfigError ") + error.what();
    } catch (const std::exception &error) {
        return std::string(typeid(error).name()) + " " + error.what();
    }
}

std::string
libraryOutcome(const std::string &source)
{
    return outcome([&] { return loadQasm(source, "diff"); });
}

std::string
oracleOutcome(const std::string &source)
{
    return outcome([&] { return reference::loadQasm(source, "diff"); });
}

/** The source strings of the QASM lexer, parser and converter tests. */
std::vector<std::string>
unitTestSources()
{
    return {
        "",
        "   \n\t ",
        "OPENQASM 2.0;",
        "qreg creg gate measure barrier reset if pi include",
        "qregx h_2 _tmp",
        "42 3.14 1e-3 2.5E+2 .5",
        "; , ( ) [ ] { } -> + - * / ^ ==",
        "a -> b - c",
        "// whole line\nh // trailing\n// eof",
        "include \"qelib1.inc\";",
        "h q;\ncx a,b;",
        "include \"broken",
        "include \"broken\nx\"",
        "h q;\n  @",
        "1e",
        "2.5e+",
        "a = b",
        "h @",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n",
        "qreg q[1];\nh q[0];\n",
        "qreg q[2]; creg c[2];",
        "qreg q[4]; cz q[0],q[3];",
        "qreg q[4]; h q;",
        "qreg q[1]; rz(pi/4) q[0]; rx(-2*pi) q[0]; ry(sin(pi/2)+3^2) q[0];",
        "qreg q[1]; rz(2^3^2) q[0];",
        "qreg q[1]; rz(theta/2) q[0];",
        "qreg q[2];\ngate bell a,b { h a; cx a,b; }\nbell q[0],q[1];\n",
        "qreg q[1];\ngate phase(lambda) a { rz(lambda) a; }\nphase(pi) q[0];\n",
        "qreg q[2]; creg c[2]; measure q[1] -> c[1];",
        "qreg q[2]; creg c[2]; measure q -> c;",
        "qreg q[3]; barrier q[0],q[2];",
        "qreg q[1]; reset q[0];",
        "qreg q[1]; creg c[1]; if (c==1) x q[0];",
        "qreg q[2];\ncz q[0] q[1];",
        "qreg q[0];",
        "qreg q[2]",
        "qreg q[2]; h q[0]",
        "qreg q[2]; h q[0]; x q[1]; sdg q[0]; rz(1.5) q[1];",
        "qreg q[2]; cz q[0],q[1];",
        "qreg q[2]; cx q[0],q[1];",
        "qreg q[2]; cp(pi/2) q[0],q[1];",
        "qreg q[2]; rzz(0.3) q[0],q[1];",
        "qreg q[2]; swap q[0],q[1];",
        "qreg q[3]; ccx q[0],q[1],q[2];",
        "qreg q[1]; u1(0.3) q[0]; u2(0.1,0.2) q[0]; u3(1.0,2.0,3.0) q[0];",
        "qreg q[1]; id q[0];",
        "qreg a[3]; qreg b[3]; cz a,b;",
        "qreg a[2]; qreg b[3]; cz a,b;",
        "qreg a[3]; qreg b[1]; cz a,b[0];",
        "qreg q[1];\ngate mygate(theta) a { rz(theta/2) a; rz(theta/2) a; }\n"
        "mygate(3.0) q[0];\n",
        "qreg q[2];\ngate inner a,b { cz a,b; }\n"
        "gate outer a,b { inner a,b; inner b,a; }\nouter q[0],q[1];\n",
        "qreg q[1];\ngate loop a { loop a; }\nloop q[0];\n",
        "qreg q[3]; creg c[3]; measure q[2] -> c[2]; measure q -> c;",
        "qreg q[4]; cz q[0],q[1]; barrier q; cz q[2],q[3];",
        "qreg q[2]; h p[0];",
        "qreg q[2]; h q[5];",
        "qreg q[2]; zz q[0],q[1];",
        "qreg q[2]; h q[0],q[1];",
        "qreg q[2]; rz q[0];",
        "creg c[2]; h c[0];",
        "qreg q[2]; qreg q[3];",
        "qreg a[2]; qreg b[2]; cz a[1],b[0];",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0],q[1];\n",
        "gate zz(gamma) a,b { cx a,b; rz(2*gamma) b; cx a,b; }\n",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ninclude \"gates.inc\";\n"
        "qreg q[2];\nzz(0.3) q[0],q[1];\n",
        "include \"outer.inc\";\nqreg q[1];\nboth q[0];\n",
        "include \"inner.inc\";\ngate both a { myz a; x a; }\n",
        // Ordering corner cases: a declaration is visible to calls that
        // come before it, the declaration pass raises first, an include
        // in statement position acts as a barrier, and evaluation errors
        // keep their 0:0 position.
        "h q[0]; qreg q[1];",
        "bell q[0],q[1]; qreg q[2]; gate bell a,b { cz a,b; }",
        "h p[0]; qreg q[1]; qreg q[2];",
        "h p[0]; gate g a { x a; } gate g a { y a; } qreg q[1];",
        "qreg q[2]; cz q[0],q[1]; include \"qelib1.inc\"; cz q[0],q[1];",
        "qreg q[1]; rz(foo(theta)) q[0];",
        "qreg q[1]; rz(foo(1) + theta) q[0];",
        "qreg q[1]; rz(1e999) q[0];",
        "qreg q[2]; cz q[0],q[0];",
        "qreg q[2]; gate g a,b { cz a,b; } g q[1],q[1];",
        "qreg q[2]; gate g(x) a { rz(x) a; } g q[0]; g(1,2) q[0];",
        "qreg q[2]; gate g a { rz(y) a; } g q[0];",
        "qreg q[2]; gate g a { cz a,b; } g q[0];",
        "qreg h[2]; qreg cx[2]; h h[0]; cx cx[0],h[1];",
        "qreg q[2]; measure p[0] -> c[0];",
        "qreg q[2]; measure q[2] -> c[0];",
        "qreg q[2]; measure q -> c[5];",
        "qreg q[3]; qreg r[3]; barrier nowhere; cz q,r; h q,r; cx q,q;",
        "OPENQASM 3;",
        "qreg q[2]; rz(1.5 q[0];",
        "qreg q[2]; U(0.1,0.2,0.3) q[0]; CX q[0],q[1]; u(1,2,3) q[1];",
        "qreg q[1]; p(-pi/2) q[0]; rx(ln(2)*exp(1)/sqrt(4)-tan(cos(0))) q[0];",
        "qreg q[1]; rz(--1) q[0]; rz((((2)))) q[0]; rz(-2^-2) q[0];",
        "qreg q[2];\ngate g a { barrier a",
        "qreg q[2]; h q[ 1 ]; cz q[0] ,q [1]; h q[1 // c\n];",
        "qreg q[2]; h q[0x1]; h q[1.]; h q[1e0];",
    };
}

/** Splits @p source into roughly token-sized pieces for token mutants. */
std::vector<std::string>
pieces(const std::string &source)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < source.size()) {
        std::size_t j = i + 1;
        const auto word = [&](char c) {
            return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                   c == '.';
        };
        if (word(source[i])) {
            while (j < source.size() && word(source[j]))
                ++j;
        } else if (std::isspace(static_cast<unsigned char>(source[i]))) {
            while (j < source.size() &&
                   std::isspace(static_cast<unsigned char>(source[j])))
                ++j;
        }
        out.push_back(source.substr(i, j - i));
        i = j;
    }
    return out;
}

/**
 * True if @p source holds an integer of six or more digits. The oracle
 * casts every index and size through a double, which is undefined past
 * 2^64 and inexact past 2^53, and a million-qubit register would only
 * slow the test, so mutants with such literals are skipped.
 */
bool
hasLongInteger(const std::string &source)
{
    std::size_t run = 0;
    bool after_dot = false;
    for (std::size_t i = 0; i <= source.size(); ++i) {
        const bool digit = i < source.size() &&
                           std::isdigit(static_cast<unsigned char>(source[i]));
        if (digit) {
            if (run == 0)
                after_dot = i > 0 && source[i - 1] == '.';
            ++run;
            continue;
        }
        if (run >= 6 && !after_dot)
            return true;
        run = 0;
    }
    return false;
}

/** One seeded byte- or token-level mutant of @p source. */
std::string
mutate(const std::string &source, Rng &rng)
{
    static const std::string kBytes = "qhxz01239;,()[]{}->+*/^=\" \n.e_@";
    static const std::vector<std::string> kTokens = {
        "qreg", "creg", "gate", "measure", "barrier", "reset", "if", "pi",
        "include", "OPENQASM 2.0;", "->", "(", ")", "[", "]", "{", "}", ";",
        ",", "q", "h", "cx", "cz", "rz", "u3", "0", "1", "7", "2.5", "1e999",
        "sin", "foo", "\"x.inc\"", "==", "//", "-", "^", "q[0]", "q[1]"};

    std::string text = source;
    const std::size_t edits = 1 + rng.nextBelow(3);
    for (std::size_t e = 0; e < edits; ++e) {
        if (rng.nextBool(0.5)) {
            const std::size_t at = text.empty() ? 0 : rng.nextBelow(text.size());
            switch (rng.nextBelow(3)) {
              case 0:
                text.insert(at, 1, kBytes[rng.nextBelow(kBytes.size())]);
                break;
              case 1:
                if (!text.empty())
                    text.erase(at, 1);
                break;
              default:
                if (!text.empty())
                    text[at] = kBytes[rng.nextBelow(kBytes.size())];
                break;
            }
            continue;
        }
        std::vector<std::string> parts = pieces(text);
        const std::size_t at = parts.empty() ? 0 : rng.nextBelow(parts.size());
        switch (rng.nextBelow(4)) {
          case 0:
            if (!parts.empty())
                parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(at));
            break;
          case 1:
            if (!parts.empty())
                parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(at),
                             parts[at]);
            break;
          case 2:
            if (at + 1 < parts.size())
                std::swap(parts[at], parts[at + 1]);
            break;
          default:
            parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(at),
                         kTokens[rng.nextBelow(kTokens.size())]);
            break;
        }
        text.clear();
        for (const auto &part : parts)
            text += part;
    }
    return text;
}

/**
 * Holds the library to the oracle on @p source and @p mutants seeded
 * mutants of it; returns how many inputs were compared.
 */
std::size_t
compareWithMutants(const std::string &label, const std::string &source,
                   std::size_t mutants, Rng &rng)
{
    EXPECT_EQ(libraryOutcome(source), oracleOutcome(source)) << label;
    std::size_t compared = 1;
    for (std::size_t m = 0; m < mutants; ++m) {
        const std::string mutant = mutate(source, rng);
        if (hasLongInteger(mutant))
            continue;
        const std::string expected = oracleOutcome(mutant);
        const std::string actual = libraryOutcome(mutant);
        EXPECT_EQ(actual, expected) << label << " mutant " << m << ":\n"
                                    << mutant;
        if (actual != expected)
            return compared; // one report per input is enough
        ++compared;
    }
    return compared;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in), {}};
}

TEST(QasmFrontendDifferentialTest, UnitTestSourcesAndMutants)
{
    Rng rng(0x51a5);
    std::size_t compared = 0;
    const auto sources = unitTestSources();
    for (std::size_t i = 0; i < sources.size(); ++i)
        compared += compareWithMutants("source " + std::to_string(i),
                                       sources[i], 60, rng);
    EXPECT_GT(compared, sources.size() * 40);
}

TEST(QasmFrontendDifferentialTest, DataFilesAndMutants)
{
    Rng rng(0xda7a);
    const std::filesystem::path data =
        std::filesystem::path(POWERMOVE_SOURCE_DIR) / "data";
    std::size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(data)) {
        if (entry.path().extension() != ".qasm")
            continue;
        ++files;
        const std::string path = entry.path().string();
        EXPECT_EQ(outcome([&] { return loadQasmFile(path); }),
                  outcome([&] { return reference::loadQasmFile(path); }))
            << path;
        compareWithMutants(path, readFile(entry.path()), 100, rng);
    }
    EXPECT_GE(files, 2u);
}

TEST(QasmFrontendDifferentialTest, Table2SuiteAndMutants)
{
    Rng rng(0x7ab1e2);
    for (const BenchmarkSpec &spec : table2Suite())
        compareWithMutants(spec.name, writeQasm(spec.build()), 12, rng);
}

TEST(QasmFrontendDifferentialTest, ScaleRowsAndMutants)
{
    Rng rng(0x5ca1e);
    const std::pair<const char *, std::size_t> rows[] = {
        {"QSIM-rand-0.3", 400}, {"QFT", 100}, {"BV", 1024},
        {"QAOA-regular3", 400}, {"VQE", 1024}};
    for (const auto &[family, n] : rows) {
        const BenchmarkSpec spec = makeFamilyInstance(family, n);
        compareWithMutants(spec.name, writeQasm(spec.build()), 2, rng);
    }
}

class IncludeDifferentialTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "pm_qasm_diff_inc";
        std::filesystem::create_directories(dir_);
    }

    void
    writeFile(const std::string &name, const std::string &content) const
    {
        std::ofstream(dir_ + "/" + name) << content;
    }

    void
    expectSameFile(const std::string &name) const
    {
        const std::string path = dir_ + "/" + name;
        EXPECT_EQ(outcome([&] { return loadQasmFile(path); }),
                  outcome([&] { return reference::loadQasmFile(path); }))
            << name;
    }

    std::string dir_;
};

TEST_F(IncludeDifferentialTest, IncludeTreesAndMutants)
{
    const std::vector<std::pair<std::string, std::string>> files = {
        {"inner.inc", "gate myz a { z a; }\n"},
        {"outer.inc", "include \"inner.inc\";\ngate both a { myz a; x a; }\n"},
        {"gates.inc",
         "gate zz(gamma) a,b { cx a,b; rz(2*gamma) b; cx a,b; }\n"},
        {"regs.inc", "qreg r[2];\nh r;\n"},
        {"a.inc", "include \"b.inc\";\n"},
        {"b.inc", "include \"a.inc\";\n"},
    };
    const std::vector<std::string> mains = {
        "include \"outer.inc\";\nqreg q[1];\nboth q[0];\n",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\ninclude \"gates.inc\";\n"
        "qreg q[2];\nzz(0.3) q[0],q[1];\n",
        // Included statements go first wherever the include sits, and
        // the include in statement position still acts as a barrier.
        "qreg q[2];\ncz q[0],q[1];\ninclude \"regs.inc\";\ncz q[0],q[1];\n"
        "cz r[0],q[1];\n",
        "qreg r[1];\ninclude \"regs.inc\";\n",
        "include \"gates.inc\";\ngate zz a { x a; }\nqreg q[1];\n",
        "include \"a.inc\";\nqreg q[1];\nh q[0];\n",
        "include \"ghost.inc\";\nqreg q[1];\nh q[0];\n",
        "include \"inner.inc\"\nqreg q[1];\n",
    };
    for (const auto &[name, content] : files)
        writeFile(name, content);
    Rng rng(0x1c1);
    for (std::size_t i = 0; i < mains.size(); ++i) {
        writeFile("main.qasm", mains[i]);
        expectSameFile("main.qasm");
        for (std::size_t m = 0; m < 30; ++m) {
            const std::string mutant = mutate(mains[i], rng);
            if (hasLongInteger(mutant))
                continue;
            writeFile("main.qasm", mutant);
            expectSameFile("main.qasm");
        }
    }
    for (const auto &[name, content] : files) {
        for (std::size_t m = 0; m < 20; ++m) {
            const std::string mutant = mutate(content, rng);
            if (hasLongInteger(mutant))
                continue;
            writeFile(name, mutant);
            writeFile("main.qasm", mains[m % 4]);
            expectSameFile("main.qasm");
        }
        writeFile(name, content);
    }
}

} // namespace
} // namespace powermove::qasm
