/** @file Tests for QASM-to-circuit lowering. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "qasm/converter.hpp"

namespace powermove::qasm {
namespace {

TEST(ConverterTest, Native1QGates)
{
    const auto result = loadQasm(
        "qreg q[2]; h q[0]; x q[1]; sdg q[0]; rz(1.5) q[1];");
    EXPECT_EQ(result.circuit.numQubits(), 2u);
    EXPECT_EQ(result.circuit.numOneQGates(), 4u);
    EXPECT_EQ(result.circuit.numCzGates(), 0u);

    const auto &layer =
        std::get<OneQLayer>(result.circuit.moments().front());
    EXPECT_EQ(layer.gates[0].kind, OneQKind::H);
    EXPECT_EQ(layer.gates[2].kind, OneQKind::Sdg);
    EXPECT_EQ(layer.gates[3].kind, OneQKind::Rz);
    EXPECT_DOUBLE_EQ(layer.gates[3].angle, 1.5);
}

TEST(ConverterTest, NativeCz)
{
    const auto result = loadQasm("qreg q[2]; cz q[0],q[1];");
    EXPECT_EQ(result.circuit.numCzGates(), 1u);
    EXPECT_EQ(result.circuit.numOneQGates(), 0u);
}

TEST(ConverterTest, CxDecomposesToHadamardConjugatedCz)
{
    const auto result = loadQasm("qreg q[2]; cx q[0],q[1];");
    EXPECT_EQ(result.circuit.numCzGates(), 1u);
    EXPECT_EQ(result.circuit.numOneQGates(), 2u);
    // Structure: H layer, CZ block, H layer.
    ASSERT_EQ(result.circuit.moments().size(), 3u);
}

TEST(ConverterTest, CpDecomposesToTwoCz)
{
    const auto result = loadQasm("qreg q[2]; cp(pi/2) q[0],q[1];");
    EXPECT_EQ(result.circuit.numCzGates(), 2u);
}

TEST(ConverterTest, RzzDecomposesToTwoCz)
{
    const auto result = loadQasm("qreg q[2]; rzz(0.3) q[0],q[1];");
    EXPECT_EQ(result.circuit.numCzGates(), 2u);
}

TEST(ConverterTest, SwapDecomposesToThreeCz)
{
    const auto result = loadQasm("qreg q[2]; swap q[0],q[1];");
    EXPECT_EQ(result.circuit.numCzGates(), 3u);
}

TEST(ConverterTest, ToffoliDecomposesToSixCz)
{
    const auto result = loadQasm("qreg q[3]; ccx q[0],q[1],q[2];");
    EXPECT_EQ(result.circuit.numCzGates(), 6u);
}

TEST(ConverterTest, UGatesBecomeSinglePulses)
{
    const auto result = loadQasm(
        "qreg q[1]; u1(0.3) q[0]; u2(0.1,0.2) q[0]; u3(1.0,2.0,3.0) q[0];");
    EXPECT_EQ(result.circuit.numOneQGates(), 3u);
    const auto &layer =
        std::get<OneQLayer>(result.circuit.moments().front());
    EXPECT_EQ(layer.gates[0].kind, OneQKind::Rz);
    EXPECT_EQ(layer.gates[1].kind, OneQKind::U);
    EXPECT_EQ(layer.gates[2].kind, OneQKind::U);
    EXPECT_DOUBLE_EQ(layer.gates[2].angle, 1.0);
}

TEST(ConverterTest, IdentityEmitsNothing)
{
    const auto result = loadQasm("qreg q[1]; id q[0];");
    EXPECT_TRUE(result.circuit.empty());
}

TEST(ConverterTest, BroadcastAppliesPerElement)
{
    const auto result = loadQasm("qreg q[4]; h q;");
    EXPECT_EQ(result.circuit.numOneQGates(), 4u);
}

TEST(ConverterTest, BroadcastTwoRegisterGate)
{
    const auto result = loadQasm("qreg a[3]; qreg b[3]; cz a,b;");
    EXPECT_EQ(result.circuit.numCzGates(), 3u);
    // Registers map to contiguous qubit ranges: a=0..2, b=3..5.
    const auto blocks = result.circuit.blocks();
    EXPECT_EQ(blocks[0]->gates[0], (CzGate{0, 3}));
    EXPECT_EQ(blocks[0]->gates[2], (CzGate{2, 5}));
}

TEST(ConverterTest, BroadcastSizeMismatchRejected)
{
    EXPECT_THROW(loadQasm("qreg a[2]; qreg b[3]; cz a,b;"), ParseError);
}

TEST(ConverterTest, MixedBroadcastAndIndexedArgs)
{
    const auto result = loadQasm("qreg a[3]; qreg b[1]; cz a,b[0];");
    EXPECT_EQ(result.circuit.numCzGates(), 3u);
    for (const auto &gate : result.circuit.blocks()[0]->gates)
        EXPECT_TRUE(gate.touches(3));
}

TEST(ConverterTest, UserGateExpansion)
{
    const auto result = loadQasm(
        "qreg q[2];\n"
        "gate bell a,b { h a; cx a,b; }\n"
        "bell q[0],q[1];\n");
    EXPECT_EQ(result.circuit.numCzGates(), 1u);
    EXPECT_EQ(result.circuit.numOneQGates(), 3u); // h + cx's two h
}

TEST(ConverterTest, ParameterizedUserGate)
{
    const auto result = loadQasm(
        "qreg q[1];\n"
        "gate mygate(theta) a { rz(theta/2) a; rz(theta/2) a; }\n"
        "mygate(3.0) q[0];\n");
    const auto &layer =
        std::get<OneQLayer>(result.circuit.moments().front());
    ASSERT_EQ(layer.gates.size(), 2u);
    EXPECT_DOUBLE_EQ(layer.gates[0].angle, 1.5);
}

TEST(ConverterTest, NestedUserGates)
{
    const auto result = loadQasm(
        "qreg q[2];\n"
        "gate inner a,b { cz a,b; }\n"
        "gate outer a,b { inner a,b; inner b,a; }\n"
        "outer q[0],q[1];\n");
    EXPECT_EQ(result.circuit.numCzGates(), 2u);
}

TEST(ConverterTest, RecursiveGateRejected)
{
    EXPECT_THROW(loadQasm("qreg q[1];\n"
                          "gate loop a { loop a; }\n"
                          "loop q[0];\n"),
                 ParseError);
}

TEST(ConverterTest, MeasureRecordsTargets)
{
    const auto result = loadQasm(
        "qreg q[3]; creg c[3]; measure q[2] -> c[2]; measure q -> c;");
    EXPECT_EQ(result.measured, (std::vector<QubitId>{2, 0, 1, 2}));
    EXPECT_TRUE(result.circuit.empty());
}

TEST(ConverterTest, BarrierSplitsBlocks)
{
    const auto result = loadQasm(
        "qreg q[4]; cz q[0],q[1]; barrier q; cz q[2],q[3];");
    EXPECT_EQ(result.circuit.numBlocks(), 2u);
}

TEST(ConverterTest, SemanticErrors)
{
    EXPECT_THROW(loadQasm("qreg q[2]; h p[0];"), ParseError);      // bad reg
    EXPECT_THROW(loadQasm("qreg q[2]; h q[5];"), ParseError);      // bad index
    EXPECT_THROW(loadQasm("qreg q[2]; zz q[0],q[1];"), ParseError); // bad gate
    EXPECT_THROW(loadQasm("qreg q[2]; h q[0],q[1];"), ParseError); // arity
    EXPECT_THROW(loadQasm("qreg q[2]; rz q[0];"), ParseError);     // params
    EXPECT_THROW(loadQasm("creg c[2]; h c[0];"), ParseError);      // no qreg
    EXPECT_THROW(loadQasm("qreg q[2]; qreg q[3];"), ParseError);   // redecl
}

// Regression: 2^32 + 1 qubits used to reach the allocator (bad_alloc)
// with ids truncated to 32 bits; the total must fit QubitId.
TEST(ConverterTest, QubitTotalMustFitQubitId)
{
    try {
        loadQasm("qreg q[4294967297];");
        FAIL() << "expected ParseError";
    } catch (const ParseError &error) {
        EXPECT_EQ(error.line(), 1u);
        EXPECT_EQ(error.column(), 8u);
        EXPECT_NE(std::string(error.what()).find("2^32 - 1 qubits"),
                  std::string::npos);
    }
    // The sum overflows on the second register.
    try {
        loadQasm("qreg a[4294967295];\nqreg b[1];");
        FAIL() << "expected ParseError";
    } catch (const ParseError &error) {
        EXPECT_EQ(error.line(), 2u);
        EXPECT_EQ(error.column(), 8u);
    }
}

TEST(ConverterTest, MultipleQregsShareIdSpace)
{
    const auto result = loadQasm("qreg a[2]; qreg b[2]; cz a[1],b[0];");
    EXPECT_EQ(result.circuit.numQubits(), 4u);
    EXPECT_EQ(result.circuit.blocks()[0]->gates[0], (CzGate{1, 2}));
}

TEST(ConverterTest, LoadQasmFileErrors)
{
    EXPECT_THROW(loadQasmFile("/nonexistent/file.qasm"), ConfigError);
}

class IncludeResolutionTest : public ::testing::Test
{
  protected:
    void
    writeFile(const std::string &name, const std::string &content)
    {
        const std::string path = dir_ + "/" + name;
        std::ofstream out(path);
        out << content;
    }

    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "pm_qasm_inc";
        std::filesystem::create_directories(dir_);
    }

    std::string dir_;
};

TEST_F(IncludeResolutionTest, StandardIncludeIsNative)
{
    writeFile("main.qasm",
              "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
              "cx q[0],q[1];\n");
    const auto result = loadQasmFile(dir_ + "/main.qasm");
    EXPECT_EQ(result.circuit.numCzGates(), 1u);
}

TEST_F(IncludeResolutionTest, UserIncludeSuppliesGateDefinitions)
{
    writeFile("gates.inc",
              "gate zz(gamma) a,b { cx a,b; rz(2*gamma) b; cx a,b; }\n");
    writeFile("main.qasm",
              "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
              "include \"gates.inc\";\nqreg q[2];\nzz(0.3) q[0],q[1];\n");
    const auto result = loadQasmFile(dir_ + "/main.qasm");
    EXPECT_EQ(result.circuit.numCzGates(), 2u);
}

TEST_F(IncludeResolutionTest, NestedIncludes)
{
    writeFile("inner.inc", "gate myz a { z a; }\n");
    writeFile("outer.inc",
              "include \"inner.inc\";\ngate both a { myz a; x a; }\n");
    writeFile("main.qasm",
              "include \"outer.inc\";\nqreg q[1];\nboth q[0];\n");
    const auto result = loadQasmFile(dir_ + "/main.qasm");
    EXPECT_EQ(result.circuit.numOneQGates(), 2u);
}

TEST_F(IncludeResolutionTest, CyclicIncludesRejected)
{
    writeFile("a.inc", "include \"b.inc\";\n");
    writeFile("b.inc", "include \"a.inc\";\n");
    writeFile("main.qasm", "include \"a.inc\";\nqreg q[1];\nh q[0];\n");
    EXPECT_THROW(loadQasmFile(dir_ + "/main.qasm"), ConfigError);
}

TEST_F(IncludeResolutionTest, MissingIncludeRejected)
{
    writeFile("main.qasm", "include \"ghost.inc\";\nqreg q[1];\nh q[0];\n");
    EXPECT_THROW(loadQasmFile(dir_ + "/main.qasm"), ConfigError);
}

TEST_F(IncludeResolutionTest, DirectoryIncludeRejected)
{
    // `include "";` names the including file's own directory.
    std::filesystem::create_directories(dir_ + "/sub");
    for (const char *name : {"", "sub"}) {
        writeFile("main.qasm", std::string("include \"") + name +
                                   "\";\nqreg q[1];\nh q[0];\n");
        try {
            loadQasmFile(dir_ + "/main.qasm");
            ADD_FAILURE() << "include \"" << name << "\" loaded";
        } catch (const ConfigError &e) {
            EXPECT_EQ(std::string(e.what()),
                      "cannot open QASM file: " + dir_ + "/" + name);
        }
    }
    EXPECT_THROW(loadQasmFile(dir_), ConfigError);
}

} // namespace
} // namespace powermove::qasm
