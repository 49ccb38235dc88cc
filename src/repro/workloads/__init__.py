"""Workload generators: valuations, populations and the scenario table."""

from repro.workloads.populations import (
    PopulationSpec,
    build_population,
    population_factory,
)
from repro.workloads.registry import (
    SCENARIOS,
    Scenario,
    ScenarioSpec,
    build_registered_scenario,
    scenario_names,
)
from repro.workloads.valuations import (
    MixtureValuationModel,
    digital_goods_valuations,
    ebay_auction_valuations,
    mixed_goods_valuations,
    stress_deficit_valuations,
    teamwork_service_valuations,
    valuation_workload,
    workload_bundle,
)

__all__ = [
    "ebay_auction_valuations",
    "digital_goods_valuations",
    "teamwork_service_valuations",
    "stress_deficit_valuations",
    "mixed_goods_valuations",
    "MixtureValuationModel",
    "valuation_workload",
    "workload_bundle",
    "PopulationSpec",
    "build_population",
    "population_factory",
    "Scenario",
    "SCENARIOS",
    "ScenarioSpec",
    "scenario_names",
    "build_registered_scenario",
]
