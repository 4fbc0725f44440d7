/** @file Tests for the Coll-Move scheduler (Sec. 6). */

#include <gtest/gtest.h>

#include "collsched/intra_stage.hpp"
#include "collsched/multi_aod.hpp"
#include "common/error.hpp"

namespace powermove {
namespace {

class CollSchedTest : public ::testing::Test
{
  protected:
    CollSchedTest() : machine_(MachineConfig::forQubits(16)) {}

    SiteId compute(std::size_t i) const { return static_cast<SiteId>(i); }
    SiteId storage(std::size_t i) const
    {
        return machine_.storageSites()[i];
    }

    /** A group carrying @p ins storage move-ins and @p outs move-outs. */
    CollMove
    groupWith(std::size_t ins, std::size_t outs, QubitId first_qubit)
    {
        CollMove group;
        QubitId q = first_qubit;
        for (std::size_t i = 0; i < ins; ++i, ++q)
            group.moves.push_back({q, compute(i), storage(i + q)});
        for (std::size_t i = 0; i < outs; ++i, ++q)
            group.moves.push_back({q, storage(i + q + 8), compute(i + 4)});
        return group;
    }

    Machine machine_;
};

TEST_F(CollSchedTest, StorageBalanceCounts)
{
    EXPECT_EQ(storageBalance(machine_, groupWith(2, 0, 0)), 2);
    EXPECT_EQ(storageBalance(machine_, groupWith(0, 3, 0)), -3);
    EXPECT_EQ(storageBalance(machine_, groupWith(1, 1, 0)), 0);
    // Intra-compute moves are neutral.
    CollMove lateral;
    lateral.moves = {{0, compute(0), compute(5)}};
    EXPECT_EQ(storageBalance(machine_, lateral), 0);
}

TEST_F(CollSchedTest, OrderCollMovesDescendingBalance)
{
    std::vector<CollMove> groups = {
        groupWith(0, 2, 0), // balance -2
        groupWith(2, 0, 4), // balance +2
        groupWith(1, 1, 8), // balance 0
    };
    const auto ordered = orderCollMoves(machine_, std::move(groups));
    ASSERT_EQ(ordered.size(), 3u);
    EXPECT_EQ(storageBalance(machine_, ordered[0]), 2);
    EXPECT_EQ(storageBalance(machine_, ordered[1]), 0);
    EXPECT_EQ(storageBalance(machine_, ordered[2]), -2);
}

TEST_F(CollSchedTest, OrderingIsStableForEqualBalance)
{
    CollMove a;
    a.moves = {{0, compute(0), compute(1)}};
    CollMove b;
    b.moves = {{1, compute(2), compute(3)}};
    const auto ordered = orderCollMoves(machine_, {a, b});
    EXPECT_EQ(ordered[0].moves[0].qubit, 0u);
    EXPECT_EQ(ordered[1].moves[0].qubit, 1u);
}

TEST_F(CollSchedTest, BatchChunking)
{
    std::vector<CollMove> groups;
    for (QubitId q = 0; q < 5; ++q) {
        CollMove g;
        g.moves = {{q, compute(q), compute(q + 5)}};
        groups.push_back(g);
    }
    const auto batches = batchForAods(groups, 2);
    ASSERT_EQ(batches.size(), 3u);
    EXPECT_EQ(batches[0].groups.size(), 2u);
    EXPECT_EQ(batches[1].groups.size(), 2u);
    EXPECT_EQ(batches[2].groups.size(), 1u);
    // Order within batches preserves the scheduled sequence.
    EXPECT_EQ(batches[0].groups[0].moves[0].qubit, 0u);
    EXPECT_EQ(batches[2].groups[0].moves[0].qubit, 4u);
}

TEST_F(CollSchedTest, SingleAodMeansOneGroupPerBatch)
{
    std::vector<CollMove> groups(3);
    for (QubitId q = 0; q < 3; ++q)
        groups[q].moves = {{q, compute(q), compute(q + 4)}};
    const auto batches = batchForAods(groups, 1);
    ASSERT_EQ(batches.size(), 3u);
    for (const auto &batch : batches)
        EXPECT_EQ(batch.groups.size(), 1u);
}

TEST_F(CollSchedTest, ZeroAodsRejected)
{
    EXPECT_THROW(batchForAods({}, 0), ConfigError);
}

TEST_F(CollSchedTest, EmptyBatchListForNoGroups)
{
    EXPECT_TRUE(batchForAods({}, 2).empty());
}

TEST_F(CollSchedTest, BatchDurationIsTransferPlusSlowestMove)
{
    const auto &params = machine_.params();
    CollMove slow;
    slow.moves = {{0, compute(0), compute(15)}}; // (0,0) -> (3,3): 63.6um
    CollMove fast;
    fast.moves = {{1, compute(1), compute(2)}}; // 15um

    AodBatch batch;
    batch.groups = {fast, slow};
    const double expected =
        2.0 * params.t_transfer.micros() +
        params.moveDuration(machine_.distanceBetween(compute(0), compute(15)))
            .micros();
    EXPECT_DOUBLE_EQ(batch.duration(machine_).micros(), expected);
    EXPECT_EQ(batch.numMoves(), 2u);
}

TEST_F(CollSchedTest, EmptyBatchIsFree)
{
    EXPECT_DOUBLE_EQ(AodBatch{}.duration(machine_).micros(), 0.0);
}

TEST_F(CollSchedTest, MoreAodsNeverSlower)
{
    std::vector<CollMove> groups;
    for (QubitId q = 0; q < 8; ++q) {
        CollMove g;
        g.moves = {{q, compute(q), compute(15 - q)}};
        groups.push_back(g);
    }
    double previous = 1e100;
    for (const std::size_t aods : {1u, 2u, 4u, 8u}) {
        double total = 0.0;
        for (const auto &batch : batchForAods(groups, aods))
            total += batch.duration(machine_).micros();
        EXPECT_LE(total, previous + 1e-9);
        previous = total;
    }
}

} // namespace
} // namespace powermove
