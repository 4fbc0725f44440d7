/**
 * @file
 * Dynamic qubit-to-site occupancy.
 *
 * A site holds at most two qubits (an interacting pair during a Rydberg
 * stage) in the compute zone and at most one qubit in the storage zone
 * (paper Sec. 5.1). Layout tracks occupancy and enforces those capacity
 * limits eagerly so routing bugs surface at the point of mutation.
 */

#ifndef POWERMOVE_ARCH_LAYOUT_HPP
#define POWERMOVE_ARCH_LAYOUT_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "arch/machine.hpp"
#include "circuit/gate.hpp"

namespace powermove {

/** Mutable assignment of qubits to machine sites. */
class Layout
{
  public:
    /** Creates a layout with every qubit unplaced. */
    Layout(const Machine &machine, std::size_t num_qubits);

    std::size_t numQubits() const { return site_of_.size(); }

    /** Site currently holding @p qubit (kInvalidSite if unplaced). */
    SiteId siteOf(QubitId qubit) const;

    /** True once every qubit has been placed. */
    bool allPlaced() const;

    /** Number of qubits at @p site. */
    std::size_t occupancy(SiteId site) const;

    /** The (up to two) qubits at @p site. */
    std::array<QubitId, 2> occupants(SiteId site) const;

    /** True if @p site holds no qubit. */
    bool isEmpty(SiteId site) const { return occupancy(site) == 0; }

    /**
     * Places an unplaced qubit at @p site. Capacity checked: two per
     * compute site, one per storage site.
     */
    void place(QubitId qubit, SiteId site);

    /** Moves a placed qubit to @p site (same capacity rules). */
    void moveTo(QubitId qubit, SiteId site);

    /**
     * Removes a qubit from its site, leaving it unplaced. Together with
     * place() this applies a whole transition transactionally: all
     * departures first, then all arrivals, so capacity is checked against
     * the settled end state rather than an arbitrary intermediate order.
     */
    void unplace(QubitId qubit);

    /**
     * Overwrites this layout with @p other's occupancy. Both layouts
     * must share one machine and qubit count (the implicit copy
     * assignment is deleted by the machine reference). Lets a scratch
     * layout be re-synced to a live one without reallocating — the
     * windowed router resets its candidate scratch this way once per
     * candidate ordering.
     */
    void assignFrom(const Layout &other);

    /** Zone of the site holding @p qubit. */
    ZoneKind zoneOf(QubitId qubit) const;

    /** Number of qubits currently in the given zone. */
    std::size_t countInZone(ZoneKind zone) const;

    const Machine &machine() const { return machine_; }

  private:
    void insertAt(QubitId qubit, SiteId site);
    void removeFrom(QubitId qubit, SiteId site);
    std::size_t capacityOf(SiteId site) const;

    const Machine &machine_;
    std::vector<SiteId> site_of_;                       // qubit -> site
    std::vector<std::array<QubitId, 2>> site_qubits_;   // site -> occupants
    std::vector<std::uint8_t> site_count_;              // site -> #occupants
};

/**
 * Places qubits row-major into the given zone starting from its top-left
 * site, one qubit per site. This is the paper's initial layout: entirely
 * in storage for the zoned flow (Sec. 4.2), entirely in the compute zone
 * for the storage-free flow and for the Enola baseline.
 */
void placeRowMajor(Layout &layout, ZoneKind zone);

} // namespace powermove

#endif // POWERMOVE_ARCH_LAYOUT_HPP
