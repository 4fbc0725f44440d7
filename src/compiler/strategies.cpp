#include "compiler/strategies.hpp"

namespace powermove {

std::string_view
placementStrategyName(PlacementStrategy strategy)
{
    switch (strategy) {
    case PlacementStrategy::RowMajor:
        return "row-major";
    case PlacementStrategy::RoutingAware:
        return "routing-aware";
    }
    return "unknown";
}

std::string_view
stageOrderStrategyName(StageOrderStrategy strategy)
{
    switch (strategy) {
    case StageOrderStrategy::AsPartitioned:
        return "as-partitioned";
    case StageOrderStrategy::ZoneAware:
        return "zone-aware";
    }
    return "unknown";
}

std::string_view
collMoveOrderStrategyName(CollMoveOrderStrategy strategy)
{
    switch (strategy) {
    case CollMoveOrderStrategy::AsGrouped:
        return "as-grouped";
    case CollMoveOrderStrategy::StorageDwell:
        return "storage-dwell";
    }
    return "unknown";
}

bool
parsePlacementStrategy(std::string_view text, PlacementStrategy &out)
{
    for (const auto strategy :
         {PlacementStrategy::RowMajor, PlacementStrategy::RoutingAware}) {
        if (text == placementStrategyName(strategy)) {
            out = strategy;
            return true;
        }
    }
    return false;
}

bool
parseStageOrderStrategy(std::string_view text, StageOrderStrategy &out)
{
    for (const auto strategy :
         {StageOrderStrategy::AsPartitioned, StageOrderStrategy::ZoneAware}) {
        if (text == stageOrderStrategyName(strategy)) {
            out = strategy;
            return true;
        }
    }
    return false;
}

bool
parseCollMoveOrderStrategy(std::string_view text, CollMoveOrderStrategy &out)
{
    for (const auto strategy : {CollMoveOrderStrategy::AsGrouped,
                                CollMoveOrderStrategy::StorageDwell}) {
        if (text == collMoveOrderStrategyName(strategy)) {
            out = strategy;
            return true;
        }
    }
    return false;
}

std::string_view
routingStrategyName(RoutingStrategy strategy)
{
    switch (strategy) {
    case RoutingStrategy::Continuous:
        return "continuous";
    case RoutingStrategy::Reuse:
        return "reuse";
    case RoutingStrategy::Fast:
        return "fast";
    case RoutingStrategy::Windowed:
        return "windowed";
    }
    return "unknown";
}

bool
parseRoutingStrategy(std::string_view text, RoutingStrategy &out)
{
    for (const auto strategy :
         {RoutingStrategy::Continuous, RoutingStrategy::Reuse,
          RoutingStrategy::Fast, RoutingStrategy::Windowed}) {
        if (text == routingStrategyName(strategy)) {
            out = strategy;
            return true;
        }
    }
    return false;
}

std::string_view
residencyPolicyName(ResidencyPolicy policy)
{
    switch (policy) {
    case ResidencyPolicy::Lookahead:
        return "lookahead";
    case ResidencyPolicy::Lti:
        return "lti";
    case ResidencyPolicy::Fidelity:
        return "fidelity";
    }
    return "unknown";
}

bool
parseResidencyPolicy(std::string_view text, ResidencyPolicy &out)
{
    for (const auto policy :
         {ResidencyPolicy::Lookahead, ResidencyPolicy::Lti,
          ResidencyPolicy::Fidelity}) {
        if (text == residencyPolicyName(policy)) {
            out = policy;
            return true;
        }
    }
    return false;
}

std::vector<StrategyCatalogEntry>
strategyCatalog()
{
    // Defaults first in every row; the catalog is the single source the
    // CLI prints, so a new enum value only needs a line here to stop
    // users guessing flag spellings.
    return {
        {"placement",
         "--placement",
         {placementStrategyName(PlacementStrategy::RowMajor),
          placementStrategyName(PlacementStrategy::RoutingAware)}},
        {"routing",
         "--routing",
         {routingStrategyName(RoutingStrategy::Continuous),
          routingStrategyName(RoutingStrategy::Reuse),
          routingStrategyName(RoutingStrategy::Fast),
          routingStrategyName(RoutingStrategy::Windowed)}},
        {"residency",
         "--residency",
         {residencyPolicyName(ResidencyPolicy::Lookahead),
          residencyPolicyName(ResidencyPolicy::Lti),
          residencyPolicyName(ResidencyPolicy::Fidelity)}},
        {"stage-order",
         "",
         {stageOrderStrategyName(StageOrderStrategy::ZoneAware),
          stageOrderStrategyName(StageOrderStrategy::AsPartitioned)}},
        {"coll-move-order",
         "",
         {collMoveOrderStrategyName(CollMoveOrderStrategy::StorageDwell),
          collMoveOrderStrategyName(CollMoveOrderStrategy::AsGrouped)}},
    };
}

} // namespace powermove
