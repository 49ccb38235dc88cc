"""DET001 — no nondeterminism in simulation/trust paths.

The reproduction's headline invariant is that sharded runs are
bit-identical to the unsharded baseline for the same seed.  One
wall-clock read or one unseeded RNG draw anywhere in the
simulation/trust pipeline silently breaks that, and the failure only
shows up later as an unexplainable score diff.  This rule bans, in every
``repro`` package except ``repro.obs`` (whose business is timing) and
the checker itself:

* wall clocks: ``time.time``/``time.time_ns``, ``datetime.now`` /
  ``utcnow`` / ``today``;
* entropy: ``os.urandom``, anything in ``secrets``, ``uuid.uuid1/4``;
* the module-level ``random.*`` API (global, shared, unseeded state —
  every stochastic component must draw from a named
  :class:`~repro.simulation.rng.RandomStreams` substream or an
  explicitly seeded ``random.Random``);
* unseeded constructions: ``random.Random()`` / ``random.SystemRandom``
  / ``np.random.default_rng()`` with no seed argument;
* numpy's global RNG (``np.random.rand`` etc. — global state again);
* monotonic clocks (``perf_counter``/``monotonic``/``process_time``)
  outside ``repro.obs`` — legitimate only when feeding a telemetry
  ``timings`` section, which a justified ``# repro: allow(DET001)``
  marker documents at the call site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.engine import Finding, Rule, Source
from repro.check.rules import dotted_name, from_imports, module_aliases

__all__ = ["DeterminismRule"]

#: Module-level ``random.*`` functions that draw from the global stream.
_GLOBAL_RANDOM = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "betavariate", "expovariate",
        "gammavariate", "gauss", "lognormvariate", "normalvariate",
        "vonmisesvariate", "paretovariate", "weibullvariate", "seed",
        "getrandbits", "randbytes",
    }
)

_WALL_CLOCKS = frozenset({"time", "time_ns"})
_MONOTONIC_CLOCKS = frozenset(
    {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
     "process_time", "process_time_ns"}
)
_DATETIME_FACTORIES = frozenset({"now", "utcnow", "today"})


class DeterminismRule(Rule):
    rule_id = "DET001"
    summary = "nondeterminism in a simulation/trust path"

    def applies_to(self, source: Source) -> bool:
        if not source.in_package("repro"):
            return False
        return not source.in_package("repro.obs", "repro.check")

    def check(self, source: Source) -> Iterator[Finding]:
        aliases = module_aliases(source.tree)
        imported = from_imports(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            target = self._resolve(node.func, aliases, imported)
            if target is None:
                continue
            message = self._verdict(target, node)
            if message is not None:
                yield self.finding(source, node, message)

    def _resolve(self, func: ast.AST, aliases, imported) -> "str | None":
        """Canonical dotted target of a call, unaliased (or None)."""
        name = dotted_name(func)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        if head in aliases:
            return aliases[head] + ("." + rest if rest else "")
        if head in imported:
            return imported[head] + ("." + rest if rest else "")
        return name

    def _verdict(self, target: str, call: ast.Call) -> "str | None":
        parts = target.split(".")
        head, tail = parts[0], parts[-1]
        if target in ("time.time", "time.time_ns"):
            return (
                "wall-clock read breaks same-seed reproducibility; "
                "thread simulated time (or an explicit timestamp) through "
                "instead"
            )
        if head == "time" and tail in _MONOTONIC_CLOCKS:
            return (
                "monotonic clock outside repro.obs; route timing through "
                "a telemetry span/timings section and justify with "
                "# repro: allow(DET001)"
            )
        if head == "os" and tail == "urandom":
            return "os.urandom is raw entropy; derive bytes from the seeded stream"
        if head == "secrets":
            return "secrets.* is unseedable entropy; use the seeded RandomStreams"
        if head == "uuid" and tail in ("uuid1", "uuid4"):
            return (
                "uuid.{} is nondeterministic; mint ids from the seeded "
                "stream or a counter".format(tail)
            )
        if target.startswith("datetime.") and tail in _DATETIME_FACTORIES:
            return (
                "datetime.{}() reads the wall clock; pass simulated time "
                "explicitly".format(tail)
            )
        if head == "random":
            if tail in _GLOBAL_RANDOM:
                return (
                    "module-level random.{} draws from the global unseeded "
                    "stream; use a named RandomStreams substream or a "
                    "seeded random.Random".format(tail)
                )
            if tail == "SystemRandom":
                return "random.SystemRandom is OS entropy; use a seeded random.Random"
            if tail == "Random" and not call.args and not call.keywords:
                return (
                    "random.Random() without a seed draws from OS entropy; "
                    "pass an explicit seed (or accept an rng parameter)"
                )
        if head == "numpy":
            if len(parts) >= 2 and parts[1] == "random":
                if tail == "default_rng":
                    if not call.args and not call.keywords:
                        return (
                            "np.random.default_rng() without a seed is "
                            "nondeterministic; pass an explicit seed"
                        )
                    return None
                return (
                    "np.random.{} uses numpy's global RNG state; use a "
                    "seeded Generator (np.random.default_rng(seed))".format(tail)
                )
        return None
