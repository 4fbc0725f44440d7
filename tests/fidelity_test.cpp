/** @file Tests for the Eq. (1) fidelity evaluator. */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/params.hpp"
#include "fidelity/evaluator.hpp"

namespace powermove {
namespace {

class FidelityTest : public ::testing::Test
{
  protected:
    FidelityTest() : machine_(MachineConfig::forQubits(9)) {}

    static AodBatch
    batchOf(std::vector<QubitMove> moves)
    {
        AodBatch batch;
        batch.groups.push_back(CollMove{std::move(moves)});
        return batch;
    }

    Machine machine_;
};

TEST_F(FidelityTest, EmptyScheduleIsPerfect)
{
    MachineSchedule schedule(machine_, {0, 1});
    const auto result = evaluateSchedule(schedule);
    EXPECT_DOUBLE_EQ(result.fidelity(), 1.0);
    EXPECT_DOUBLE_EQ(result.fidelity(true), 1.0);
    EXPECT_DOUBLE_EQ(result.exec_time.micros(), 0.0);
    EXPECT_DOUBLE_EQ(result.total_idle.micros(), 0.0);
}

TEST_F(FidelityTest, TwoQubitFactorPerGate)
{
    MachineSchedule schedule(machine_, {0, 0, 2, 2});
    schedule.addRydberg({CzGate{0, 1}, CzGate{2, 3}}, 0);
    const auto result = evaluateSchedule(schedule);
    EXPECT_EQ(result.cz_gates, 2u);
    EXPECT_NEAR(result.two_q_factor, 0.995 * 0.995, 1e-12);
    // Everybody interacts: no excitation exposure.
    EXPECT_EQ(result.excitation_exposures, 0u);
    EXPECT_DOUBLE_EQ(result.exec_time.micros(), 0.27);
}

TEST_F(FidelityTest, ExcitationCountsIdleComputeQubits)
{
    // Qubits 2 and 3 idle in the compute zone during the pulse.
    MachineSchedule schedule(machine_, {0, 0, 2, 3});
    schedule.addRydberg({CzGate{0, 1}}, 0);
    const auto result = evaluateSchedule(schedule);
    EXPECT_EQ(result.excitation_exposures, 2u);
    EXPECT_NEAR(result.excitation_factor, 0.9975 * 0.9975, 1e-12);
}

TEST_F(FidelityTest, StorageShieldsFromExcitation)
{
    const auto storage = machine_.storageSites();
    MachineSchedule schedule(machine_, {0, 0, storage[0], storage[1]});
    schedule.addRydberg({CzGate{0, 1}}, 0);
    const auto result = evaluateSchedule(schedule);
    EXPECT_EQ(result.excitation_exposures, 0u);
    EXPECT_DOUBLE_EQ(result.excitation_factor, 1.0);
}

TEST_F(FidelityTest, TransferCountsTwoPerMove)
{
    MachineSchedule schedule(machine_, {0, 1, 2});
    schedule.addMoveBatch(batchOf({{1, 1, 0}, {2, 2, 5}}));
    const auto result = evaluateSchedule(schedule);
    EXPECT_EQ(result.transfers, 4u);
    EXPECT_NEAR(result.transfer_factor, std::pow(0.999, 4), 1e-12);
}

TEST_F(FidelityTest, MoveBatchTimeAndIdleAccounting)
{
    MachineSchedule schedule(machine_, {0, 1, 2});
    schedule.addMoveBatch(batchOf({{1, 1, 4}})); // 15um*sqrt(2) diagonal
    const auto result = evaluateSchedule(schedule);

    const double move_us =
        machine_.params()
            .moveDuration(machine_.distanceBetween(1, 4))
            .micros();
    const double expected = 30.0 + move_us;
    EXPECT_NEAR(result.exec_time.micros(), expected, 1e-9);
    // All three qubits are in the compute zone: all idle for the batch.
    EXPECT_NEAR(result.total_idle.micros(), 3 * expected, 1e-9);
    EXPECT_LT(result.decoherence_factor, 1.0);
}

TEST_F(FidelityTest, StorageResidentsDoNotDecohere)
{
    const auto storage = machine_.storageSites();
    MachineSchedule schedule(machine_, {0, 1, storage[0]});
    schedule.addMoveBatch(batchOf({{1, 1, 3}}));
    const auto result = evaluateSchedule(schedule);
    // Only the two compute-zone qubits accrue idle time.
    const double batch_us = result.exec_time.micros();
    EXPECT_NEAR(result.total_idle.micros(), 2 * batch_us, 1e-9);
}

TEST_F(FidelityTest, MovingIntoStorageStillCostsTransitTime)
{
    const auto storage = machine_.storageSites();
    MachineSchedule schedule(machine_, {0});
    schedule.addMoveBatch(batchOf({{0, 0, storage[0]}}));
    const auto result = evaluateSchedule(schedule);
    // In transit toward storage: unprotected during the move itself.
    EXPECT_GT(result.total_idle.micros(), 0.0);
}

TEST_F(FidelityTest, OneQLayerTimeUsesDepth)
{
    MachineSchedule schedule(machine_, {0, 1});
    schedule.addOneQLayer(5, 3);
    const auto result = evaluateSchedule(schedule);
    EXPECT_EQ(result.one_q_gates, 5u);
    EXPECT_DOUBLE_EQ(result.exec_time.micros(), 3.0);
    EXPECT_NEAR(result.one_q_factor, std::pow(0.9999, 5), 1e-12);
    // 1Q layers are excluded from comparisons by default.
    EXPECT_DOUBLE_EQ(result.fidelity(), 1.0);
    EXPECT_LT(result.fidelity(true), 1.0);
}

TEST_F(FidelityTest, DecoherenceMatchesClosedForm)
{
    MachineSchedule schedule(machine_, {0, 1});
    schedule.addMoveBatch(batchOf({{1, 1, 4}}));
    const auto result = evaluateSchedule(schedule);
    const double per_qubit_idle = result.exec_time.micros();
    const double t2 = machine_.params().t2.micros();
    const double expected = (1.0 - per_qubit_idle / t2) *
                            (1.0 - per_qubit_idle / t2);
    EXPECT_NEAR(result.decoherence_factor, expected, 1e-12);
}

TEST_F(FidelityTest, FidelityIsProductOfFactors)
{
    MachineSchedule schedule(machine_, {0, 0, 2, 3});
    schedule.addOneQLayer(4, 1);
    schedule.addMoveBatch(batchOf({{2, 2, 5}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    const auto result = evaluateSchedule(schedule);
    EXPECT_NEAR(result.fidelity(),
                result.two_q_factor * result.excitation_factor *
                    result.transfer_factor * result.decoherence_factor,
                1e-12);
    EXPECT_NEAR(result.fidelity(true),
                result.fidelity() * result.one_q_factor, 1e-12);
}

TEST_F(FidelityTest, BreakdownToStringMentionsKeyFields)
{
    MachineSchedule schedule(machine_, {0, 0});
    schedule.addRydberg({CzGate{0, 1}}, 0);
    const auto text = evaluateSchedule(schedule).toString();
    EXPECT_NE(text.find("fidelity="), std::string::npos);
    EXPECT_NE(text.find("T_exe="), std::string::npos);
    EXPECT_NE(text.find("pulses=1"), std::string::npos);
}

TEST_F(FidelityTest, NegLog10MatchesTheProductWhereItIsRepresentable)
{
    MachineSchedule schedule(machine_, {0, 0, 2, 3});
    schedule.addMoveBatch(batchOf({{2, 2, 5}}));
    schedule.addRydberg({CzGate{0, 1}}, 0);
    const auto result = evaluateSchedule(schedule);
    ASSERT_GT(result.fidelity(), 0.0);
    EXPECT_NEAR(result.negLog10(machine_.params()),
                -std::log10(result.fidelity()), 1e-12);
}

/**
 * Factor counts of QSIM-rand-0.3-400 compiled with reuse under the
 * `lti` and `fidelity` residency policies: about 700k excitation
 * exposures each, so the Eq. 1 product underflows to exactly 0 and the
 * two schedules would compare equal. The per-factor sum stays finite
 * and ranks them.
 */
TEST(FidelityBreakdownTest, NegLog10StaysFiniteWhereTheProductUnderflows)
{
    const HardwareParams params;
    const auto breakdown = [&](std::size_t cz, std::size_t exposures,
                               std::size_t transfers, double decoherence) {
        FidelityBreakdown b;
        b.cz_gates = cz;
        b.excitation_exposures = exposures;
        b.transfers = transfers;
        b.two_q_factor = std::pow(params.f_cz, static_cast<double>(cz));
        b.excitation_factor =
            std::pow(params.f_excitation, static_cast<double>(exposures));
        b.transfer_factor =
            std::pow(params.f_transfer, static_cast<double>(transfers));
        b.decoherence_factor = decoherence;
        return b;
    };
    const FidelityBreakdown lti =
        breakdown(2384, 701342, 5532, 1.0240432946274847e-67);
    const FidelityBreakdown fidelity =
        breakdown(2384, 700954, 6308, 8.8567643891080751e-68);

    EXPECT_EQ(lti.excitation_factor, 0.0);
    EXPECT_EQ(lti.fidelity(), 0.0);
    EXPECT_EQ(fidelity.fidelity(), 0.0);
    EXPECT_NEAR(lti.negLog10(params), 837.009, 1e-3);
    EXPECT_NEAR(fidelity.negLog10(params), 836.987, 1e-3);
    EXPECT_LT(fidelity.negLog10(params), lti.negLog10(params));
}

} // namespace
} // namespace powermove
