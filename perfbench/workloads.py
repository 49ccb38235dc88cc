"""The benchmark's workloads: which registered scenario, at what size, and why.

Each workload is one call of
``repro.workloads.registry.build_registered_scenario(scenario, seed=<seed>,
**params)``.  The seed comes from the benchmark's ``--seed`` argument; the
simulation itself only ever sees the built scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    params: Mapping[str, object]
    why: str

    @property
    def size(self) -> int:
        return int(self.params["size"])  # type: ignore[arg-type]

    def build_params(self, seed: int, size: int) -> Dict[str, object]:
        """Keyword arguments for ``build_registered_scenario``."""
        params = dict(self.params)
        params["size"] = size
        params["seed"] = seed
        return params


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="flash-sync",
            scenario="flash-crowd",
            # Registry default rebalance="auto" applies: per-peer backends
            # are ShardedBackend wrappers that split as the crowd arrives.
            params={"backend": "beta", "size": 300, "rounds": 5},
            why=(
                "Growing community (300 peers x 5 rounds, to ~725): per-consumer "
                "match scoring through sharded per-peer backends dominates."
            ),
        ),
        Workload(
            name="sybil-gossip",
            scenario="sybil-coalition",
            params={
                "backend": "beta",
                "size": 130,
                "rounds": 5,
                "evidence_mode": "async",
                "evidence_latency": 1.0,
                "evidence_loss": 0.2,
                "evidence_repair": "gossip",
                "witness_count": 3,
            },
            why=(
                "Lossy async evidence with gossip repair (130 peers x 5 rounds, "
                "then drain): the post-run anti-entropy drain dominates."
            ),
        ),
        Workload(
            name="sybil-steady",
            scenario="sybil-coalition",
            params={
                "backend": "beta",
                "size": 300,
                "rounds": 15,
                "rebalance": "off",
            },
            why=(
                "Fixed 300-peer population for 15 rounds with 4 witnesses: "
                "plan-and-execute plus witness reads, no shard routing."
            ),
        ),
    )
}
