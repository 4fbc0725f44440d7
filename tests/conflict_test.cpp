/** @file Tests for the AOD move-compatibility predicate (Fig. 5). */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "oracles/reference_validator.hpp"
#include "route/conflict.hpp"

namespace powermove {
namespace {

class ConflictTest : public ::testing::Test
{
  protected:
    ConflictTest() : machine_(MachineConfig::forQubits(36)) {}

    QubitMove
    move(QubitId q, SiteCoord from, SiteCoord to) const
    {
        return QubitMove{q, machine_.siteAt(from), machine_.siteAt(to)};
    }

    Machine machine_;
};

TEST_F(ConflictTest, Fig5Panel1SameStartColumnSplitting)
{
    // x1s == x2s but x1e != x2e: a shared column may not split.
    const auto m1 = move(0, {2, 0}, {1, 3});
    const auto m2 = move(1, {2, 1}, {3, 4});
    EXPECT_TRUE(movesConflict(machine_, m1, m2));
}

TEST_F(ConflictTest, Fig5Panel2ColumnCrossing)
{
    // x1s > x2s but x1e < x2e: columns cross.
    const auto m1 = move(0, {3, 0}, {1, 2});
    const auto m2 = move(1, {1, 1}, {2, 3});
    EXPECT_TRUE(movesConflict(machine_, m1, m2));
}

TEST_F(ConflictTest, Fig5Panel3ColumnMerging)
{
    // x1s > x2s but x1e == x2e: columns may not merge.
    const auto m1 = move(0, {3, 0}, {2, 2});
    const auto m2 = move(1, {1, 1}, {2, 3});
    EXPECT_TRUE(movesConflict(machine_, m1, m2));
}

TEST_F(ConflictTest, RowCrossingConflictsOnY)
{
    const auto m1 = move(0, {0, 3}, {1, 1});
    const auto m2 = move(1, {1, 1}, {2, 2});
    EXPECT_TRUE(movesConflict(machine_, m1, m2));
}

TEST_F(ConflictTest, RowMergingConflictsOnY)
{
    const auto m1 = move(0, {0, 3}, {1, 2});
    const auto m2 = move(1, {2, 1}, {3, 2});
    EXPECT_TRUE(movesConflict(machine_, m1, m2));
}

TEST_F(ConflictTest, ParallelTranslationsAreCompatible)
{
    const auto m1 = move(0, {0, 0}, {1, 1});
    const auto m2 = move(1, {2, 0}, {3, 1});
    EXPECT_FALSE(movesConflict(machine_, m1, m2));
}

TEST_F(ConflictTest, StretchIsCompatible)
{
    // Both columns move apart: order preserved.
    const auto m1 = move(0, {1, 0}, {0, 0});
    const auto m2 = move(1, {2, 0}, {4, 0});
    EXPECT_FALSE(movesConflict(machine_, m1, m2));
}

TEST_F(ConflictTest, ContractionWithoutMergingIsCompatible)
{
    const auto m1 = move(0, {0, 0}, {1, 0});
    const auto m2 = move(1, {3, 0}, {2, 0});
    EXPECT_FALSE(movesConflict(machine_, m1, m2));
}

TEST_F(ConflictTest, SharedColumnMovingTogetherIsCompatible)
{
    const auto m1 = move(0, {2, 0}, {4, 0});
    const auto m2 = move(1, {2, 3}, {4, 3});
    EXPECT_FALSE(movesConflict(machine_, m1, m2));
}

TEST_F(ConflictTest, ConvergingToSameSiteConflicts)
{
    // Two movers to one site would merge both a row and a column.
    const auto m1 = move(0, {0, 0}, {2, 2});
    const auto m2 = move(1, {4, 4}, {2, 2});
    EXPECT_TRUE(movesConflict(machine_, m1, m2));
}

TEST_F(ConflictTest, PredicateIsSymmetric)
{
    const auto m1 = move(0, {3, 0}, {1, 2});
    const auto m2 = move(1, {1, 1}, {2, 3});
    EXPECT_EQ(movesConflict(machine_, m1, m2),
              movesConflict(machine_, m2, m1));
    const auto m3 = move(2, {0, 0}, {1, 1});
    const auto m4 = move(3, {2, 0}, {3, 1});
    EXPECT_EQ(movesConflict(machine_, m3, m4),
              movesConflict(machine_, m4, m3));
}

TEST_F(ConflictTest, GroupHelpers)
{
    CollMove group;
    group.moves = {move(0, {0, 0}, {1, 1}), move(1, {2, 0}, {3, 1})};
    EXPECT_TRUE(isValidCollMove(machine_, group));
    // A crossing candidate conflicts with the group.
    const auto crossing = move(2, {4, 0}, {0, 1});
    EXPECT_TRUE(conflictsWithGroup(machine_, group, crossing));
    const auto parallel = move(2, {4, 0}, {5, 1});
    EXPECT_FALSE(conflictsWithGroup(machine_, group, parallel));

    group.moves.push_back(crossing);
    EXPECT_FALSE(isValidCollMove(machine_, group));
}

TEST_F(ConflictTest, EmptyGroupIsValid)
{
    EXPECT_TRUE(isValidCollMove(machine_, CollMove{}));
}

TEST_F(ConflictTest, SortedGroupCheckMatchesPairwiseRule)
{
    // Random groups on the 6x6 compute grid, where ties on start and end
    // rows and columns are common. Half the groups are arbitrary; the
    // other half follow an order-preserving map (valid by construction),
    // and half of those get one end perturbed, so both verdicts occur
    // often.
    const std::int32_t side = 6;
    Rng rng(7);
    const auto coordinate = [&] {
        return static_cast<std::int32_t>(rng.nextBelow(side));
    };
    // m sorted distinct values of 0..side-1.
    const auto sorted_sample = [&](std::size_t m) {
        std::vector<std::int32_t> values(side);
        for (std::int32_t v = 0; v < side; ++v)
            values[v] = v;
        rng.shuffle(values);
        values.resize(m);
        std::sort(values.begin(), values.end());
        return values;
    };
    std::size_t valid = 0;
    std::size_t invalid = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        const std::size_t k = 2 + rng.nextBelow(9);
        CollMove group;
        if (rng.nextBool(0.5)) {
            for (std::size_t i = 0; i < k; ++i)
                group.moves.push_back(
                    move(static_cast<QubitId>(i), {coordinate(), coordinate()},
                         {coordinate(), coordinate()}));
        } else {
            // Column starts[i] goes to column ends[i], likewise for rows.
            const std::size_t mx = 1 + rng.nextBelow(side);
            const std::size_t my = 1 + rng.nextBelow(side);
            const auto x_starts = sorted_sample(mx);
            const auto x_ends = sorted_sample(mx);
            const auto y_starts = sorted_sample(my);
            const auto y_ends = sorted_sample(my);
            for (std::size_t i = 0; i < k; ++i) {
                const std::size_t cx = rng.nextBelow(mx);
                const std::size_t cy = rng.nextBelow(my);
                group.moves.push_back(move(static_cast<QubitId>(i),
                                           {x_starts[cx], y_starts[cy]},
                                           {x_ends[cx], y_ends[cy]}));
            }
            if (rng.nextBool(0.5))
                group.moves[rng.nextBelow(k)].to =
                    machine_.siteAt({coordinate(), coordinate()});
        }
        const bool expected = referenceIsValidCollMove(machine_, group);
        ASSERT_EQ(isValidCollMove(machine_, group), expected)
            << "trial " << trial;
        ++(expected ? valid : invalid);
    }
    EXPECT_GT(valid, 4000u);
    EXPECT_GT(invalid, 4000u);
}

} // namespace
} // namespace powermove
