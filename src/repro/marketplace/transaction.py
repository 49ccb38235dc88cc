"""Executing planned exchanges against (possibly dishonest) behaviour.

The planner guarantees that *rational* parties have no incentive to defect
within the agreed allowances — but the community contains parties that
defect anyway (malicious or opportunistic behaviour models).  Before
performing its own next step a party applies its behaviour's
:meth:`~repro.simulation.behaviors.BehaviorModel.defection_rule` to its
current temptation and either continues or walks away with what it holds.

:func:`execute_many` runs a whole batch of schedules from their
:class:`~repro.core.exchange.ProfileBlock` arrays: who acts at each step and
the temptation profile.  Steps where a party defects for certain, or may
defect by a draw, are found as array operations; only the draws themselves
run in Python, in schedule order, so the random stream is consumed exactly
as a step-by-step walk of each schedule in turn would consume it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exchange import ExchangeSequence, ProfileBlock, Role
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulation.behaviors import BehaviorModel

__all__ = ["TransactionResult", "execute_many", "execute_sequence"]


@dataclass(frozen=True)
class TransactionResult:
    """Outcome of executing one exchange schedule."""

    completed: bool
    defector: Optional[Role]
    defection_step: Optional[int]
    supplier_payoff: float
    consumer_payoff: float
    price: float
    paid: float
    goods_delivered: int
    goods_total: int

    @property
    def total_welfare(self) -> float:
        """Sum of both parties' realised payoffs."""
        return self.supplier_payoff + self.consumer_payoff

    @property
    def victim(self) -> Optional[Role]:
        """The counterparty of the defector (``None`` for completed trades)."""
        if self.defector is None:
            return None
        return self.defector.other

    def payoff_of(self, role: Role) -> float:
        if role is Role.SUPPLIER:
            return self.supplier_payoff
        return self.consumer_payoff


def execute_sequence(
    sequence: ExchangeSequence,
    supplier_behavior: "BehaviorModel",
    consumer_behavior: "BehaviorModel",
    rng: random.Random,
    time: float = 0.0,
) -> TransactionResult:
    """Run one schedule with the given behaviours: one row of :func:`execute_many`."""
    [result] = execute_many(
        [sequence], [supplier_behavior], [consumer_behavior], rng, time
    )
    return result


def execute_many(
    sequences: Sequence[ExchangeSequence],
    supplier_behaviors: Sequence["BehaviorModel"],
    consumer_behaviors: Sequence["BehaviorModel"],
    rng: random.Random,
    time: float = 0.0,
    telemetry: MetricsRegistry = NULL_REGISTRY,
) -> List[TransactionResult]:
    """Run each schedule with its behaviours; each stops at its first defection.

    Row ``i`` executes ``sequences[i]`` between ``supplier_behaviors[i]``
    and ``consumer_behaviors[i]``, whose rules are read at ``time``.  The
    defecting party keeps its current holdings; payoffs of both sides are
    the realised utilities at that point (which is exactly the exposure
    the safety analysis bounds).  The results and the ``rng`` state
    afterwards equal a step-by-step walk of each schedule in turn.  Planned
    rows are read from their own block; the actions-form rows share one
    block of their profiles.  With telemetry on, ``exchange.steps`` counts
    the steps executed (up to and including a defection) and
    ``exchange.draws`` the draws made.
    """
    count = len(sequences)
    if not count:
        return []
    blocks, block_of, row_of = _blocks_of(sequences)

    # Each side's rule, per row: the threshold, whether it draws, and the
    # honesty a draw must exceed.  Column ``count`` is the rule of a block
    # row this call does not execute: never tempted.
    thresholds = np.full((2, count + 1), np.inf)
    honesty = np.zeros((2, count + 1))
    draws = np.zeros((2, count + 1), dtype=bool)
    for side, behaviors in enumerate((supplier_behaviors, consumer_behaviors)):
        for index, behavior in enumerate(behaviors):
            threshold, chance = behavior.defection_rule(time)
            thresholds[side, index] = threshold
            if chance is not None:
                draws[side, index] = True
                honesty[side, index] = chance

    # stops[i]: the flat state of its block at which row i stops, first
    # where a party defects for certain (or the final state); the tempted
    # steps before it that draw are collected with their rows.
    stops = np.empty(count, dtype=np.int64)
    chance_rows, chance_states, chance_honesty = [], [], []
    for position, block in enumerate(blocks):
        rows = np.flatnonzero(block_of == position)
        starts = block.starts
        finals = starts[1:] - 1
        state_row = np.repeat(np.arange(len(block)), np.diff(starts))
        # The executed row each state belongs to (``count``: none).
        owner = np.full(len(block), count, dtype=np.int64)
        owner[row_of[rows]] = rows
        state_owner = owner[state_row]
        acts = block.supplier_acts
        side = np.where(acts, 0, 1)
        tempted = np.where(
            acts, block.supplier_temptation, block.consumer_temptation
        ) > thresholds[side, state_owner]
        tempted[finals] = False
        drawing = draws[side, state_owner]
        flat = np.arange(len(acts))
        block_stops = np.minimum(
            np.minimum.reduceat(
                np.where(tempted & ~drawing, flat, len(acts)), starts[:-1]
            ),
            finals,
        )
        stops[rows] = block_stops[row_of[rows]]
        states = np.flatnonzero(tempted & drawing & (flat < block_stops[state_row]))
        chance_rows.append(state_owner[states])
        chance_states.append(states)
        chance_honesty.append(honesty[side[states], state_owner[states]])

    # The draws, row by row in sequences order and step by step within a
    # row, until the row's first defection.
    rows_drawn = np.concatenate(chance_rows)
    order = np.argsort(rows_drawn, kind="stable")
    drawn = 0
    defected_row = -1
    for row, state, chance in zip(
        rows_drawn[order].tolist(),
        np.concatenate(chance_states)[order].tolist(),
        np.concatenate(chance_honesty)[order].tolist(),
    ):
        if row != defected_row:
            drawn += 1
            if rng.random() > chance:
                stops[row] = state
                defected_row = row

    # Each result is read off its block's columns at the stop.
    results: Dict[int, TransactionResult] = {}
    steps = 0
    for position, block in enumerate(blocks):
        rows = np.flatnonzero(block_of == position)
        at = stops[rows]
        step = at - block.starts[row_of[rows]]
        completed = at == block.starts[row_of[rows] + 1] - 1
        steps += int(step.sum()) + int(np.count_nonzero(~completed))
        for index, stop, done, supplier_acts, supplier, consumer, paid, goods in zip(
            rows.tolist(),
            step.tolist(),
            completed.tolist(),
            block.supplier_acts[at].tolist(),
            block.supplier_utility[at].tolist(),
            block.consumer_utility[at].tolist(),
            block.paid[at].tolist(),
            block.delivered[at].tolist(),
        ):
            results[index] = TransactionResult(
                completed=done,
                defector=(
                    None if done else Role.SUPPLIER if supplier_acts else Role.CONSUMER
                ),
                defection_step=None if done else stop,
                supplier_payoff=supplier,
                consumer_payoff=consumer,
                price=sequences[index].price,
                paid=paid,
                goods_delivered=goods,
                goods_total=len(sequences[index].bundle),
            )
    if telemetry.enabled:
        telemetry.count("exchange.steps", steps)
        telemetry.count("exchange.draws", drawn)
    return [results[index] for index in range(count)]


def _blocks_of(
    sequences: Sequence[ExchangeSequence],
) -> Tuple[List[ProfileBlock], np.ndarray, np.ndarray]:
    """The distinct blocks of ``sequences``, and each row's block and row.

    A planned sequence is a row of its planner's block; the actions-form
    sequences share one block of their own profiles, placed last.
    """
    blocks: List[ProfileBlock] = []
    positions: Dict[int, int] = {}
    block_of = np.empty(len(sequences), dtype=np.int64)
    row_of = np.empty(len(sequences), dtype=np.int64)
    actions_form: List[int] = []
    for index, sequence in enumerate(sequences):
        planned = sequence.planned_row
        if planned is None:
            actions_form.append(index)
            continue
        block, row = planned
        position = positions.setdefault(id(block), len(blocks))
        if position == len(blocks):
            blocks.append(block)
        block_of[index] = position
        row_of[index] = row
    if actions_form:
        block_of[actions_form] = len(blocks)
        row_of[actions_form] = np.arange(len(actions_form))
        blocks.append(
            ProfileBlock.of_sequences([sequences[index] for index in actions_form])
        )
    return blocks, block_of, row_of

