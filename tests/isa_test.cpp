/** @file Tests for the machine schedule and the hardware validator. */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "isa/validator.hpp"
#include "oracles/reference_validator.hpp"

namespace powermove {
namespace {

class IsaTest : public ::testing::Test
{
  protected:
    IsaTest() : machine_(MachineConfig::forQubits(9)) {}

    /** One-group batch holding the given moves. */
    static AodBatch
    batchOf(std::vector<QubitMove> moves)
    {
        AodBatch batch;
        batch.groups.push_back(CollMove{std::move(moves)});
        return batch;
    }

    /**
     * The validator's rejection message for @p schedule ("" if it
     * accepts), checked to equal the full-scan oracle's.
     */
    static std::string
    rejectionOf(const MachineSchedule &schedule)
    {
        const auto message = [](auto &&validate) -> std::string {
            try {
                validate();
            } catch (const ValidationError &e) {
                return e.what();
            }
            return {};
        };
        const std::string got =
            message([&] { validateSchedule(schedule); });
        EXPECT_EQ(got, message([&] { referenceValidateSchedule(schedule); }));
        return got;
    }

    Machine machine_;
};

TEST_F(IsaTest, ScheduleCounters)
{
    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    EXPECT_EQ(schedule.numQubits(), 4u);
    schedule.addOneQLayer(4, 1);
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_EQ(schedule.numOneQGates(), 4u);
    EXPECT_EQ(schedule.numQubitMoves(), 1u);
    EXPECT_EQ(schedule.numTransfers(), 2u);
    EXPECT_EQ(schedule.numMoveBatches(), 1u);
    EXPECT_EQ(schedule.numPulses(), 1u);
    EXPECT_EQ(schedule.numCzGates(), 1u);
    EXPECT_EQ(schedule.instructions().size(), 3u);
}

TEST_F(IsaTest, EmptyLayersAndBatchesDropped)
{
    MachineSchedule schedule(machine_, {0});
    schedule.addOneQLayer(0, 0);
    schedule.addMoveBatch(AodBatch{});
    EXPECT_TRUE(schedule.instructions().empty());
}

TEST_F(IsaTest, EmptyPulseRejected)
{
    MachineSchedule schedule(machine_, {0});
    EXPECT_THROW(schedule.addRydberg({}, 0), InternalError);
}

TEST_F(IsaTest, InitialSitesValidated)
{
    EXPECT_THROW(MachineSchedule(machine_, {9999}), InternalError);
}

TEST_F(IsaTest, ValidSimpleProgram)
{
    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    schedule.addMoveBatch(batchOf({{1, 1, 0}})); // 1 joins 0
    schedule.addRydberg({CzGate{0, 1}}, 0);
    schedule.addMoveBatch(batchOf({{1, 0, 1}})); // and returns
    EXPECT_NO_THROW(validateSchedule(schedule));
}

TEST_F(IsaTest, DetectsWrongDepartureSite)
{
    MachineSchedule schedule(machine_, {0, 1});
    schedule.addMoveBatch(batchOf({{1, 2, 0}})); // qubit 1 is at 1, not 2
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, DetectsDoubleMoveInOneBatch)
{
    MachineSchedule schedule(machine_, {0, 1});
    AodBatch batch;
    batch.groups.push_back(CollMove{{{1, 1, 2}}});
    batch.groups.push_back(CollMove{{{1, 2, 3}}});
    schedule.addMoveBatch(batch);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, DetectsAodConflictInsideGroup)
{
    // Sites 0 and 2 sit in one row; their moves swap x-order: crossing.
    MachineSchedule schedule(machine_, {0, 2});
    schedule.addMoveBatch(batchOf({{0, 0, 5}, {1, 2, 3}}));
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, ConflictingGroupsMayShareOneBatch)
{
    // The same two moves are legal on *distinct* AODs of one batch.
    MachineSchedule schedule(machine_, {0, 2});
    AodBatch batch;
    batch.groups.push_back(CollMove{{{0, 0, 5}}});
    batch.groups.push_back(CollMove{{{1, 2, 3}}});
    schedule.addMoveBatch(batch);
    EXPECT_NO_THROW(validateSchedule(schedule));
}

TEST_F(IsaTest, DetectsSeparatedGatePair)
{
    MachineSchedule schedule(machine_, {0, 1});
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, DetectsGateInStorageZone)
{
    const SiteId storage = machine_.storageSites()[0];
    MachineSchedule schedule(machine_, {storage, 1});
    schedule.addMoveBatch(batchOf({{1, 1, storage}}));
    // Two qubits on one storage site is already a capacity violation,
    // and the gate would also fire outside the compute zone.
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, DetectsUnwantedCoLocation)
{
    // Qubits 2,3 share a site during a pulse without a scheduled gate.
    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addMoveBatch(batchOf({{3, 3, 2}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, DetectsPulseTouchingQubitTwice)
{
    MachineSchedule schedule(machine_, {0, 0, 1});
    schedule.addRydberg({CzGate{0, 1}, CzGate{1, 2}}, 0);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, DetectsFinalCapacityViolation)
{
    // Three qubits stacked on one compute site at program end.
    MachineSchedule schedule(machine_, {0, 1, 2});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    AodBatch second;
    second.groups.push_back(CollMove{{{2, 2, 0}}});
    schedule.addMoveBatch(second);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, StorageCapacityOneEnforced)
{
    const auto storage = machine_.storageSites();
    MachineSchedule schedule(machine_, {0, 1});
    schedule.addMoveBatch(batchOf({{0, 0, storage[0]}}));
    AodBatch second;
    second.groups.push_back(CollMove{{{1, 1, storage[0]}}});
    schedule.addMoveBatch(second);
    EXPECT_THROW(validateSchedule(schedule), ValidationError);
}

TEST_F(IsaTest, ValidateAgainstCircuitAcceptsFaithfulSchedule)
{
    Circuit circuit(2);
    circuit.append(OneQGate{OneQKind::H, 0, 0.0});
    circuit.append(CzGate{0, 1});

    MachineSchedule schedule(machine_, {0, 1});
    schedule.addOneQLayer(1, 1);
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_NO_THROW(validateAgainstCircuit(schedule, circuit));
}

TEST_F(IsaTest, ValidateAgainstCircuitDetectsMissingGate)
{
    Circuit circuit(4);
    circuit.append(CzGate{0, 1});
    circuit.append(CzGate{2, 3});

    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0); // drops gate (2,3)
    EXPECT_THROW(validateAgainstCircuit(schedule, circuit), ValidationError);
}

TEST_F(IsaTest, ValidateAgainstCircuitDetectsWrongGateMultiset)
{
    Circuit circuit(4);
    circuit.append(CzGate{0, 1});

    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    schedule.addMoveBatch(batchOf({{3, 3, 2}}));
    schedule.addRydberg({CzGate{2, 3}}, 0); // executes a different gate
    EXPECT_THROW(validateAgainstCircuit(schedule, circuit), ValidationError);
}

TEST_F(IsaTest, ValidateAgainstCircuitDetectsOneQMismatch)
{
    Circuit circuit(2);
    circuit.append(OneQGate{OneQKind::H, 0, 0.0});
    circuit.append(OneQGate{OneQKind::H, 1, 0.0});
    circuit.append(CzGate{0, 1});

    MachineSchedule schedule(machine_, {0, 1});
    schedule.addOneQLayer(1, 1); // only one of the two H gates
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_THROW(validateAgainstCircuit(schedule, circuit), ValidationError);
}

TEST_F(IsaTest, ValidateAgainstCircuitDetectsBlockOrderViolation)
{
    Circuit circuit(4);
    circuit.append(CzGate{0, 1});
    circuit.append(OneQGate{OneQKind::H, 0, 0.0});
    circuit.append(CzGate{2, 3});

    MachineSchedule schedule(machine_, {0, 1, 2, 3});
    schedule.addOneQLayer(1, 1);
    schedule.addMoveBatch(batchOf({{3, 3, 2}}));
    schedule.addRydberg({CzGate{2, 3}}, 1); // block 1 first
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0); // then block 0: out of order
    EXPECT_THROW(validateAgainstCircuit(schedule, circuit), ValidationError);
}

// Edge cases of the validator's incremental counters (over-capacity
// sites and compute sites holding exactly two qubits), each held to the
// full-scan oracle's verdict and message.

TEST_F(IsaTest, TransientStorageOverCapacityBetweenPulsesIsAccepted)
{
    const auto storage = machine_.storageSites();
    MachineSchedule schedule(machine_, {0, 1, storage[0], storage[1]});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    schedule.addMoveBatch(batchOf({{3, storage[1], storage[0]}})); // 2 here
    schedule.addMoveBatch(batchOf({{2, storage[0], storage[2]}})); // and 1
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_EQ(rejectionOf(schedule), "");
}

TEST_F(IsaTest, ThirdQubitOnAGateSiteIsACapacityError)
{
    MachineSchedule schedule(machine_, {0, 1, 2});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addMoveBatch(batchOf({{2, 2, 0}})); // pair site goes 2 -> 3
    schedule.addRydberg({CzGate{0, 1}}, 0);
    EXPECT_NE(rejectionOf(schedule).find("holds 3 qubits (capacity 2)"),
              std::string::npos);
}

TEST_F(IsaTest, ThreeToTwoDropLeavesAnUnscheduledPair)
{
    MachineSchedule schedule(machine_, {0, 1, 2, 3, 4});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addMoveBatch(batchOf({{2, 2, 0}})); // site 0 holds 0, 1, 2
    schedule.addMoveBatch(batchOf({{0, 0, 5}})); // 3 -> 2: 1 and 2 stay
    schedule.addMoveBatch(batchOf({{4, 4, 3}}));
    schedule.addRydberg({CzGate{3, 4}}, 0);
    EXPECT_NE(rejectionOf(schedule).find(
                  "qubits 1 and 2 are co-located during a pulse without a "
                  "scheduled gate"),
              std::string::npos);
}

TEST_F(IsaTest, OverCapacityAfterTheLastInstructionIsCaught)
{
    const auto storage = machine_.storageSites();
    MachineSchedule schedule(machine_, {0, 1, storage[1]});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    schedule.addMoveBatch(batchOf({{0, 0, storage[0]}}));
    schedule.addMoveBatch(batchOf({{1, 0, storage[0]}})); // no pulse after
    EXPECT_NE(rejectionOf(schedule).find("holds 2 qubits (capacity 1)"),
              std::string::npos);
}

// Ids inside instructions are range-checked before anything indexes by
// them, so a bad id is a ValidationError, not a crash.

TEST_F(IsaTest, OffLatticeSiteInsideAGroupIsAValidationError)
{
    const SiteId beyond = static_cast<SiteId>(machine_.numSites() + 7);
    MachineSchedule to_side(machine_, {0, 2});
    to_side.addMoveBatch(batchOf({{0, 0, 5}, {1, 2, beyond}}));
    EXPECT_NE(rejectionOf(to_side).find("move targets a non-existent site"),
              std::string::npos);

    MachineSchedule from_side(machine_, {0, 2});
    from_side.addMoveBatch(batchOf({{0, 0, 5}, {1, beyond, 3}}));
    EXPECT_NE(rejectionOf(from_side).find("move targets a non-existent site"),
              std::string::npos);
}

TEST_F(IsaTest, GateOnAnUnknownQubitIsAValidationError)
{
    MachineSchedule schedule(machine_, {0, 1});
    schedule.addMoveBatch(batchOf({{1, 1, 0}}));
    schedule.addRydberg({CzGate{0, 7}}, 0);
    EXPECT_NE(rejectionOf(schedule).find("gate addresses an unknown qubit"),
              std::string::npos);
}

} // namespace
} // namespace powermove
