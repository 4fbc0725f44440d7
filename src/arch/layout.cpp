#include "arch/layout.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace powermove {

Layout::Layout(const Machine &machine, std::size_t num_qubits)
    : machine_(machine),
      site_of_(num_qubits, kInvalidSite),
      site_qubits_(machine.numSites(), {kNoQubit, kNoQubit}),
      site_count_(machine.numSites(), 0)
{}

SiteId
Layout::siteOf(QubitId qubit) const
{
    PM_ASSERT(qubit < site_of_.size(), "qubit id out of range");
    return site_of_[qubit];
}

bool
Layout::allPlaced() const
{
    return std::all_of(site_of_.begin(), site_of_.end(),
                       [](SiteId s) { return s != kInvalidSite; });
}

std::size_t
Layout::occupancy(SiteId site) const
{
    PM_ASSERT(site < site_count_.size(), "site id out of range");
    return site_count_[site];
}

std::array<QubitId, 2>
Layout::occupants(SiteId site) const
{
    PM_ASSERT(site < site_qubits_.size(), "site id out of range");
    return site_qubits_[site];
}

std::size_t
Layout::capacityOf(SiteId site) const
{
    return machine_.zoneOf(site) == ZoneKind::Compute ? 2 : 1;
}

void
Layout::insertAt(QubitId qubit, SiteId site)
{
    PM_ASSERT(site_count_[site] < capacityOf(site),
              "site capacity exceeded (2 per compute site, 1 per storage)");
    auto &slots = site_qubits_[site];
    if (slots[0] == kNoQubit)
        slots[0] = qubit;
    else
        slots[1] = qubit;
    ++site_count_[site];
    site_of_[qubit] = site;
}

void
Layout::removeFrom(QubitId qubit, SiteId site)
{
    auto &slots = site_qubits_[site];
    if (slots[0] == qubit) {
        slots[0] = slots[1];
        slots[1] = kNoQubit;
    } else {
        PM_ASSERT(slots[1] == qubit, "qubit not present at its own site");
        slots[1] = kNoQubit;
    }
    --site_count_[site];
    site_of_[qubit] = kInvalidSite;
}

void
Layout::place(QubitId qubit, SiteId site)
{
    PM_ASSERT(qubit < site_of_.size(), "qubit id out of range");
    PM_ASSERT(site < site_count_.size(), "site id out of range");
    PM_ASSERT(site_of_[qubit] == kInvalidSite,
              "place() requires an unplaced qubit; use moveTo()");
    insertAt(qubit, site);
}

void
Layout::moveTo(QubitId qubit, SiteId site)
{
    PM_ASSERT(qubit < site_of_.size(), "qubit id out of range");
    PM_ASSERT(site < site_count_.size(), "site id out of range");
    const SiteId from = site_of_[qubit];
    PM_ASSERT(from != kInvalidSite, "moveTo() requires a placed qubit");
    if (from == site)
        return;
    removeFrom(qubit, from);
    insertAt(qubit, site);
}

void
Layout::unplace(QubitId qubit)
{
    PM_ASSERT(qubit < site_of_.size(), "qubit id out of range");
    const SiteId from = site_of_[qubit];
    PM_ASSERT(from != kInvalidSite, "unplace() requires a placed qubit");
    removeFrom(qubit, from);
}

void
Layout::assignFrom(const Layout &other)
{
    PM_ASSERT(&machine_ == &other.machine_,
              "assignFrom() requires layouts over the same machine");
    PM_ASSERT(site_of_.size() == other.site_of_.size(),
              "assignFrom() requires layouts of the same width");
    site_of_ = other.site_of_;
    site_qubits_ = other.site_qubits_;
    site_count_ = other.site_count_;
}

ZoneKind
Layout::zoneOf(QubitId qubit) const
{
    const SiteId site = siteOf(qubit);
    PM_ASSERT(site != kInvalidSite, "qubit is unplaced");
    return machine_.zoneOf(site);
}

std::size_t
Layout::countInZone(ZoneKind zone) const
{
    std::size_t count = 0;
    for (const SiteId site : site_of_) {
        if (site != kInvalidSite && machine_.zoneOf(site) == zone)
            ++count;
    }
    return count;
}

void
placeRowMajor(Layout &layout, ZoneKind zone)
{
    const auto &machine = layout.machine();
    const auto sites = zone == ZoneKind::Compute ? machine.computeSites()
                                                 : machine.storageSites();
    if (layout.numQubits() > sites.size())
        fatal("zone too small to hold " + std::to_string(layout.numQubits()) +
              " qubits (" + std::to_string(sites.size()) + " sites)");
    for (QubitId q = 0; q < layout.numQubits(); ++q)
        layout.place(q, sites[q]);
}

} // namespace powermove
