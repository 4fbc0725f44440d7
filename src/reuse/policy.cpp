#include "reuse/policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace powermove {

namespace {

/**
 * The two sides of the residency trade as -ln f (Eq. 1 factors). One
 * resident stage costs the excitation exposure of the intervening
 * pulse plus dephasing for its duration (movement time between pulses
 * is unknown at decision time and hits both sides; the pulse term is
 * the stable lower bound). A storage round trip costs two transfers
 * out and two back, plus the transit dephasing of the transfers and
 * two shuttle legs across the inter-zone gap.
 */
struct TradeCosts
{
    double stage = 0.0;
    double round_trip = 0.0;
};

TradeCosts
tradeCosts(const HardwareParams &params)
{
    const double t2_us = params.t2.micros();
    const auto dephasing = [t2_us](double idle_us) {
        return t2_us > 0.0 ? idle_us / t2_us : 0.0;
    };
    const double shuttle_us =
        params
            .moveDuration(Distance::microns(params.zone_gap.microns() +
                                            params.site_pitch.microns()))
            .micros();
    return {-std::log(params.f_excitation) + dephasing(params.t_cz.micros()),
            4.0 * -std::log(params.f_transfer) +
                dephasing(4.0 * params.t_transfer.micros() +
                          2.0 * shuttle_us)};
}

/**
 * Shared shape of the pressure-driven policies: hold every candidate
 * while the compute zone has room; above capacity, evict the worst-
 * ranked candidates. Subclasses choose the would-be holds and may
 * override the ranking.
 */
class PressurePolicy : public ResidencyPolicyImpl
{
  public:
    bool persistsAcrossBlocks() const override { return true; }

    void
    partition(const ResidencyQuery &query, std::vector<QubitId> &holds,
              std::vector<QubitId> &releases) override
    {
        wantsHolds(query, wanted_, releases);
        if (wanted_.size() <= query.capacity) {
            holds.insert(holds.end(), wanted_.begin(), wanted_.end());
            return;
        }
        // Over capacity: keep the best-ranked, evict the rest. The
        // sort key is policy-specific; ties keep the lower qubit id.
        rankForEviction(query, wanted_);
        const std::size_t evict = wanted_.size() - query.capacity;
        releases.insert(releases.end(), wanted_.begin(),
                        wanted_.begin() + static_cast<std::ptrdiff_t>(evict));
        holds.insert(holds.end(),
                     wanted_.begin() + static_cast<std::ptrdiff_t>(evict),
                     wanted_.end());
    }

  protected:
    /** Appends would-be holds to @p wanted, hard releases directly. */
    virtual void wantsHolds(const ResidencyQuery &query,
                            std::vector<QubitId> &wanted,
                            std::vector<QubitId> &releases) = 0;

    /**
     * Orders @p wanted evict-first (worst residency value leads). By
     * default the farthest next use goes first, an unknown next use
     * (later block) counting as farthest.
     */
    virtual void
    rankForEviction(const ResidencyQuery &query, std::vector<QubitId> &wanted)
    {
        constexpr std::size_t kFarthest =
            std::numeric_limits<std::size_t>::max();
        const auto distance = [&](QubitId q) {
            const std::size_t next =
                query.analysis.effectiveNextUse(query.stage, q);
            return next == kNoNextUse ? kFarthest : next - query.stage;
        };
        std::sort(wanted.begin(), wanted.end(), [&](QubitId a, QubitId b) {
            const std::size_t da = distance(a);
            const std::size_t db = distance(b);
            if (da != db)
                return da > db;
            return a < b;
        });
    }

  private:
    std::vector<QubitId> wanted_;
};

/**
 * The paper's fixed-window policy: hold iff the next interaction lies
 * within the lookahead window. Residency resets at block boundaries,
 * reproducing the pre-policy reuse router bit for bit (the default)
 * whenever the holds fit; on a compute zone too small for them, the
 * farthest next use is released first, as under lti.
 */
class LookaheadPolicy final : public PressurePolicy
{
  public:
    explicit LookaheadPolicy(std::size_t lookahead) : lookahead_(lookahead)
    {
        PM_ASSERT(lookahead_ >= 1, "reuse lookahead must be >= 1");
    }

    bool persistsAcrossBlocks() const override { return false; }

  protected:
    void
    wantsHolds(const ResidencyQuery &query, std::vector<QubitId> &wanted,
               std::vector<QubitId> &releases) override
    {
        wanted.clear();
        for (const QubitId q : query.candidates) {
            if (query.analysis.shouldHold(query.stage, q, lookahead_))
                wanted.push_back(q);
            else
                releases.push_back(q);
        }
    }

  private:
    std::size_t lookahead_;
};

/**
 * Longest-time-to-interaction (Belady over the known next-use index):
 * every idle atom stays resident; under pressure the atom whose next
 * use lies farthest in the future goes first, an unknown next use
 * (later block) counting as farthest. Optimal for the hit rate given
 * the per-block oracle, and the policy that buys cross-block reuse on
 * QSIM/QFT/BV.
 */
class LtiPolicy final : public PressurePolicy
{
  public:
  protected:
    void
    wantsHolds(const ResidencyQuery &query, std::vector<QubitId> &wanted,
               std::vector<QubitId> &) override
    {
        wanted.assign(query.candidates.begin(), query.candidates.end());
    }
};

/**
 * Fidelity-weighted replacement: price both sides of the trade with
 * the Eq. (1) factors and hold only when staying resident is cheaper
 * than the storage round trip it avoids. See fidelityBreakEvenStages()
 * for the cost model; with Table 1 numbers the break-even sits between
 * one and two stages, so this policy is the conservative end of the
 * spectrum — it reuses only across back-to-back interactions (within
 * or across blocks) where the four transfers can never pay for
 * themselves.
 */
class FidelityPolicy final : public PressurePolicy
{
  public:
    explicit FidelityPolicy(const HardwareParams &params)
        : costs_(tradeCosts(params))
    {}

  protected:
    void
    wantsHolds(const ResidencyQuery &query, std::vector<QubitId> &wanted,
               std::vector<QubitId> &releases) override
    {
        wanted.clear();
        for (const QubitId q : query.candidates) {
            const double margin = holdMargin(query, q);
            if (margin >= 0.0) {
                wanted.push_back(q);
                if (margin_of_.size() <= q)
                    margin_of_.resize(q + 1, 0.0);
                margin_of_[q] = margin;
            } else {
                releases.push_back(q);
            }
        }
    }

    void
    rankForEviction(const ResidencyQuery &,
                    std::vector<QubitId> &wanted) override
    {
        // Evict the smallest benefit first.
        std::sort(wanted.begin(), wanted.end(),
                  [this](QubitId a, QubitId b) {
                      if (margin_of_[a] != margin_of_[b])
                          return margin_of_[a] < margin_of_[b];
                      return a < b;
                  });
    }

  private:
    /** Projected savings minus projected residency cost (log scale). */
    double
    holdMargin(const ResidencyQuery &query, QubitId q) const
    {
        const std::size_t next =
            query.analysis.nextUseAfter(query.stage, q);
        std::size_t distance;
        double savings;
        if (next != kNoNextUse) {
            distance = next - query.stage;
            savings = costs_.round_trip;
        } else if (query.analysis.finalBlock()) {
            // Virtual reuse event: exposures until program end buy
            // only the avoided park, half the trip (nothing retrieves
            // the atom afterwards).
            distance = query.analysis.numStages() - query.stage;
            savings = costs_.round_trip / 2.0;
        } else {
            // Cross-block bet: assume the earliest possible reuse, the
            // first stage of the next block. Pays on back-to-back
            // single-stage blocks (QSIM-style CX brackets) and prices
            // longer idles out naturally.
            distance = query.analysis.numStages() - query.stage;
            savings = costs_.round_trip;
        }
        return savings - static_cast<double>(distance) * costs_.stage;
    }

    TradeCosts costs_;
    std::vector<double> margin_of_;
};

} // namespace

double
fidelityBreakEvenStages(const HardwareParams &params)
{
    const TradeCosts costs = tradeCosts(params);
    return costs.stage > 0.0 ? costs.round_trip / costs.stage
                             : std::numeric_limits<double>::infinity();
}

std::unique_ptr<ResidencyPolicyImpl>
makeResidencyPolicy(ResidencyPolicy policy, std::size_t lookahead,
                    const HardwareParams &params)
{
    switch (policy) {
    case ResidencyPolicy::Lookahead:
        return std::make_unique<LookaheadPolicy>(lookahead);
    case ResidencyPolicy::Lti:
        return std::make_unique<LtiPolicy>();
    case ResidencyPolicy::Fidelity:
        return std::make_unique<FidelityPolicy>(params);
    }
    panic("unknown residency policy");
}

} // namespace powermove
