/** @file Tests for the dynamic qubit layout. */

#include <gtest/gtest.h>

#include "arch/layout.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace powermove {
namespace {

class LayoutTest : public ::testing::Test
{
  protected:
    LayoutTest() : machine_(MachineConfig::forQubits(9)), layout_(machine_, 9)
    {}

    Machine machine_;
    Layout layout_;
};

TEST_F(LayoutTest, StartsUnplaced)
{
    EXPECT_FALSE(layout_.allPlaced());
    EXPECT_EQ(layout_.siteOf(0), kInvalidSite);
    EXPECT_TRUE(layout_.isEmpty(0));
}

TEST_F(LayoutTest, PlaceAndQuery)
{
    layout_.place(3, 5);
    EXPECT_EQ(layout_.siteOf(3), 5u);
    EXPECT_EQ(layout_.occupancy(5), 1u);
    EXPECT_EQ(layout_.occupants(5)[0], 3u);
    EXPECT_EQ(layout_.occupants(5)[1], kNoQubit);
    EXPECT_EQ(layout_.zoneOf(3), ZoneKind::Compute);
}

TEST_F(LayoutTest, TwoQubitsShareComputeSite)
{
    layout_.place(0, 4);
    layout_.place(1, 4);
    EXPECT_EQ(layout_.occupancy(4), 2u);
    const auto pair = layout_.occupants(4);
    EXPECT_EQ(pair[0], 0u);
    EXPECT_EQ(pair[1], 1u);
}

TEST_F(LayoutTest, ComputeSiteCapacityIsTwo)
{
    layout_.place(0, 4);
    layout_.place(1, 4);
    EXPECT_THROW(layout_.place(2, 4), InternalError);
}

TEST_F(LayoutTest, StorageSiteCapacityIsOne)
{
    const SiteId storage = machine_.storageSites().front();
    layout_.place(0, storage);
    EXPECT_THROW(layout_.place(1, storage), InternalError);
}

TEST_F(LayoutTest, MoveToRelocates)
{
    layout_.place(0, 1);
    layout_.moveTo(0, 2);
    EXPECT_EQ(layout_.siteOf(0), 2u);
    EXPECT_TRUE(layout_.isEmpty(1));
    // Self-move is a no-op.
    layout_.moveTo(0, 2);
    EXPECT_EQ(layout_.siteOf(0), 2u);
}

TEST_F(LayoutTest, MoveRequiresPlacement)
{
    EXPECT_THROW(layout_.moveTo(0, 2), InternalError);
}

TEST_F(LayoutTest, PlaceTwiceRejected)
{
    layout_.place(0, 1);
    EXPECT_THROW(layout_.place(0, 2), InternalError);
}

TEST_F(LayoutTest, UnplaceFreesSlot)
{
    layout_.place(0, 1);
    layout_.place(1, 1);
    layout_.unplace(0);
    EXPECT_EQ(layout_.siteOf(0), kInvalidSite);
    EXPECT_EQ(layout_.occupancy(1), 1u);
    EXPECT_EQ(layout_.occupants(1)[0], 1u);
    EXPECT_THROW(layout_.unplace(0), InternalError);
}

TEST_F(LayoutTest, TransactionalSwapViaUnplace)
{
    layout_.place(0, 1);
    layout_.place(1, 2);
    // Swap both: remove everything, then reinsert.
    layout_.unplace(0);
    layout_.unplace(1);
    layout_.place(0, 2);
    layout_.place(1, 1);
    EXPECT_EQ(layout_.siteOf(0), 2u);
    EXPECT_EQ(layout_.siteOf(1), 1u);
}

TEST_F(LayoutTest, CountInZone)
{
    layout_.place(0, 0);
    layout_.place(1, machine_.storageSites().front());
    layout_.place(2, machine_.storageSites()[1]);
    EXPECT_EQ(layout_.countInZone(ZoneKind::Compute), 1u);
    EXPECT_EQ(layout_.countInZone(ZoneKind::Storage), 2u);
}

TEST_F(LayoutTest, OutOfRangeIdsPanic)
{
    EXPECT_THROW(layout_.siteOf(99), InternalError);
    EXPECT_THROW(layout_.place(99, 0), InternalError);
    EXPECT_THROW(layout_.place(0, 9999), InternalError);
    EXPECT_THROW(layout_.occupancy(9999), InternalError);
}

TEST(PlaceRowMajorTest, ComputePlacementIsRowMajor)
{
    const Machine machine(MachineConfig::forQubits(9));
    Layout layout(machine, 9);
    placeRowMajor(layout, ZoneKind::Compute);
    EXPECT_TRUE(layout.allPlaced());
    for (QubitId q = 0; q < 9; ++q) {
        EXPECT_EQ(layout.siteOf(q), q);
        EXPECT_EQ(layout.zoneOf(q), ZoneKind::Compute);
    }
}

TEST(PlaceRowMajorTest, StoragePlacementFillsNearestRowsFirst)
{
    const Machine machine(MachineConfig::forQubits(9));
    Layout layout(machine, 9);
    placeRowMajor(layout, ZoneKind::Storage);
    EXPECT_TRUE(layout.allPlaced());
    EXPECT_EQ(layout.countInZone(ZoneKind::Storage), 9u);
    // First qubit takes the storage site nearest the compute zone.
    EXPECT_EQ(machine.coordOf(layout.siteOf(0)).y, machine.storageTopRow());
}

TEST(PlaceRowMajorTest, OverfullZoneRejected)
{
    const Machine machine(MachineConfig::forQubits(9)); // 9 compute sites
    Layout layout(machine, 10);
    EXPECT_THROW(placeRowMajor(layout, ZoneKind::Compute), ConfigError);
}

/**
 * Churn property: any legal sequence of park/evict/claim operations —
 * modeled as random place/moveTo/unplace churn like the routers apply
 * — never double-occupies a site beyond its zone capacity, keeps every
 * occupant list consistent with siteOf(), and conserves the
 * countInZone totals (placed = compute + storage). This is the
 * occupancy contract the router's planned-occupancy array plans
 * against.
 */
TEST(LayoutChurnProperty, RandomChurnPreservesZoneInvariants)
{
    const Machine machine(MachineConfig::forQubits(12));
    const std::size_t num_qubits = 12;

    for (const std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
        Rng rng(seed);
        Layout layout(machine, num_qubits);
        std::size_t placed = 0;

        const auto random_site_with_room = [&]() -> SiteId {
            // Rejection-sample a site with spare capacity; the lattice
            // always has room for 12 qubits.
            for (;;) {
                const auto site = static_cast<SiteId>(
                    rng.nextBelow(machine.numSites()));
                const std::size_t cap =
                    machine.zoneOf(site) == ZoneKind::Compute ? 2 : 1;
                if (layout.occupancy(site) < cap)
                    return site;
            }
        };

        for (int op = 0; op < 2000; ++op) {
            const auto q =
                static_cast<QubitId>(rng.nextBelow(num_qubits));
            if (layout.siteOf(q) == kInvalidSite) {
                layout.place(q, random_site_with_room()); // claim
                ++placed;
            } else if (rng.nextBool(0.5)) {
                layout.moveTo(q, random_site_with_room()); // park/evict
            } else {
                layout.unplace(q);
                --placed;
            }

            // Capacity and occupant-list consistency at every site.
            std::size_t census = 0;
            for (SiteId site = 0; site < machine.numSites(); ++site) {
                const std::size_t occ = layout.occupancy(site);
                const std::size_t cap =
                    machine.zoneOf(site) == ZoneKind::Compute ? 2 : 1;
                ASSERT_LE(occ, cap) << "seed " << seed << " op " << op;
                const auto occupants = layout.occupants(site);
                for (std::size_t slot = 0; slot < occ; ++slot) {
                    ASSERT_NE(occupants[slot], kNoQubit);
                    ASSERT_EQ(layout.siteOf(occupants[slot]), site);
                }
                census += occ;
            }
            ASSERT_EQ(census, placed) << "seed " << seed << " op " << op;

            // Zone totals conserve the placed count.
            ASSERT_EQ(layout.countInZone(ZoneKind::Compute) +
                          layout.countInZone(ZoneKind::Storage),
                      placed)
                << "seed " << seed << " op " << op;
        }
    }
}

} // namespace
} // namespace powermove
