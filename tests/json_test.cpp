/** @file Tests for JSON schedule serialization. */

#include <gtest/gtest.h>

#include <sstream>

#include "compiler/powermove.hpp"
#include "isa/json.hpp"

namespace powermove {
namespace {

TEST(JsonTest, EmptySchedule)
{
    const Machine machine(MachineConfig::forQubits(4));
    MachineSchedule schedule(machine, {0, 1});
    const auto json = scheduleToJson(schedule);
    EXPECT_NE(json.find("\"qubits\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"machine\""), std::string::npos);
    EXPECT_NE(json.find("\"instructions\": [\n\n  ]"), std::string::npos);
}

TEST(JsonTest, MachineShapeSerialized)
{
    const Machine machine(MachineConfig::forQubits(30));
    MachineSchedule schedule(machine, {0});
    const auto json = scheduleToJson(schedule);
    EXPECT_NE(json.find("\"compute\": [6,6]"), std::string::npos);
    EXPECT_NE(json.find("\"storage\": [6,12]"), std::string::npos);
    EXPECT_NE(json.find("\"gap_rows\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"pitch_um\": 15"), std::string::npos);
}

TEST(JsonTest, PitchPrintsAsTheStreamDefault)
{
    // The writer formats numbers with to_chars; pitch_um must read as
    // the ostream default (%g, precision 6) it replaced.
    for (const double pitch : {15.0, 2.5, 0.5, 1.0, 999999.0, 999999.5, 1e6,
                               1234567.0, 3.14159265, 1e-7, 12.25}) {
        MachineConfig config = MachineConfig::forQubits(4);
        config.params.site_pitch = Distance::microns(pitch);
        const Machine machine(config);
        const auto json = scheduleToJson(MachineSchedule(machine, {0}));
        std::ostringstream expected;
        expected << "\"pitch_um\": " << pitch << "}";
        EXPECT_NE(json.find(expected.str()), std::string::npos)
            << expected.str() << " in\n" << json;
    }
}

TEST(JsonTest, AllInstructionKindsSerialized)
{
    const Machine machine(MachineConfig::forQubits(9));
    MachineSchedule schedule(machine, {0, 1});
    schedule.addOneQLayer(2, 1);
    AodBatch batch;
    batch.groups.push_back(CollMove{{{1, 1, 0}}});
    schedule.addMoveBatch(batch);
    schedule.addRydberg({CzGate{0, 1}}, 3);

    const auto json = scheduleToJson(schedule);
    EXPECT_NE(json.find("{\"op\": \"1q\", \"gates\": 2, \"depth\": 1}"),
              std::string::npos);
    EXPECT_NE(json.find("\"op\": \"move\""), std::string::npos);
    EXPECT_NE(json.find("{\"q\": 1, \"from\": [1,0], \"to\": [0,0]}"),
              std::string::npos);
    EXPECT_NE(json.find("\"op\": \"rydberg\", \"block\": 3"),
              std::string::npos);
    EXPECT_NE(json.find("\"gates\": [[0,1]]"), std::string::npos);
}

TEST(JsonTest, BalancedBracesAndBrackets)
{
    const auto spec = Machine(MachineConfig::forQubits(9));
    Circuit circuit(9);
    circuit.append(CzGate{0, 5});
    circuit.append(CzGate{2, 7});
    const auto result = PowerMoveCompiler(spec).compile(circuit);
    const auto json = scheduleToJson(result.schedule);

    long braces = 0;
    long brackets = 0;
    for (const char c : json) {
        braces += (c == '{') - (c == '}');
        brackets += (c == '[') - (c == ']');
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_EQ(json.back(), '\n');
}

TEST(JsonTest, InitialSitesListedPerQubit)
{
    const Machine machine(MachineConfig::forQubits(9));
    MachineSchedule schedule(machine, {0, 4, 8});
    const auto json = scheduleToJson(schedule);
    EXPECT_NE(json.find("\"initial_sites\": [[0,0],[1,1],[2,2]]"),
              std::string::npos);
}

} // namespace
} // namespace powermove
