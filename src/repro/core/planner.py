"""Safe-exchange planning.

This module contains the scheduling algorithms of the reproduction:

* :func:`plan_delivery_order` — the complete greedy planner.  It decides the
  order in which goods are delivered such that, with suitably chosen payment
  chunks in between, every intermediate state keeps both partners'
  temptations within the allowances of the supplied
  :class:`~repro.core.safety.ExchangeRequirements`.  It returns ``None``
  exactly when no such order exists (completeness is exercised against the
  brute-force reference in the property tests).
* :func:`plan_delivery_order_quadratic` — the same algorithm implemented with
  explicit linear scans instead of sorting, mirroring the paper's
  "quadratic-time algorithm" claim.  Results are identical.
* :func:`build_sequence` / :func:`plan_exchange` — turn a delivery order into
  a full :class:`~repro.core.exchange.ExchangeSequence` by inserting payment
  chunks according to a :class:`PaymentPolicy`.
* :func:`plan_exchange_batch` — :func:`plan_exchange` for many candidates
  at once, bit-identical to it: the community simulation plans each
  round's candidates with one call, and the scalar functions stay the
  reference it is tested against.
* :func:`brute_force_delivery_order` — exhaustive search over delivery
  orders, used as the ground-truth oracle in tests and ablations.
* :func:`required_total_tolerance` — the smallest total temptation allowance
  under which an exchange of the given bundle/price can be scheduled; used by
  the experiments to quantify "how much trust is needed".

Algorithm sketch (backward construction).  Write ``A_s`` and ``A_c`` for the
supplier- and consumer-temptation allowances and ``T = A_s + A_c``.  Walking
the delivery order backwards and keeping the running *deficit*
``D = Vs(S) - Vc(S)`` of the suffix ``S`` scheduled so far, an item ``y`` can
be appended (i.e. delivered just before the suffix) iff ``D + Vs(y) <= T``.
Items with non-negative surplus (``Vc >= Vs``) can always be moved to the
suffix side and are added greedily in ascending supplier cost; the remaining
deficit items are added in descending consumer value, which an adjacent-swap
argument shows to be optimal.  The start state additionally requires
``Vs(all) - P <= A_s`` and ``P - Vc(all) <= A_c``, and the end state requires
both allowances to be non-negative (which is why a *strictly* safe isolated
exchange never exists).
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exchange import ExchangeAction, ExchangeSequence, TemptationProfile
from repro.core.goods import Good, GoodsBundle
from repro.core.numeric import EPSILON, approx_ge, approx_le, total, total_rows
from repro.core.safety import ExchangeRequirements
from repro.exceptions import InvalidPriceError, NoSafeSequenceError

__all__ = [
    "PaymentPolicy",
    "plan_delivery_order",
    "plan_delivery_order_quadratic",
    "order_is_feasible",
    "build_sequence",
    "plan_exchange",
    "plan_exchange_batch",
    "exists_feasible_sequence",
    "max_prefix_demand",
    "max_prefix_demand_batch",
    "exchange_is_schedulable",
    "exchange_is_schedulable_batch",
    "brute_force_delivery_order",
    "required_total_tolerance",
]

#: Extra slack subtracted from the allowances when planning in strict mode so
#: that the produced schedules satisfy the strict inequalities of
#: :meth:`ExchangeRequirements.allows`.
STRICT_PLANNING_MARGIN = 1e-7


class PaymentPolicy(enum.Enum):
    """How payment chunks are sized between deliveries.

    All policies produce schedules satisfying the same safety requirements;
    they differ in how early the consumer's money moves, i.e. in which side
    carries more of the tolerated exposure (see Ablation A).
    """

    #: Pay as late and as little as the upper bound allows (consumer friendly).
    LAZY = "lazy"
    #: Pay down to the lower bound before every delivery (supplier friendly).
    EAGER = "eager"
    #: Aim for the midpoint of the admissible payment interval.
    BALANCED = "balanced"
    #: Keep both parties' temptations as small as the bounds allow: before a
    #: delivery, pay the outstanding amount down to (roughly) the consumer
    #: value of the goods still to be received.  Realised exposures then stay
    #: near the structural minimum instead of scaling with the allowances,
    #: which is what the trust-aware strategy wants by default.
    MINIMAL_EXPOSURE = "minimal-exposure"


def _effective_allowances(requirements: ExchangeRequirements) -> Tuple[float, float]:
    """Planner-internal allowances; strict mode reserves a tiny margin."""
    supplier_allowance = requirements.supplier_temptation_allowance
    consumer_allowance = requirements.consumer_temptation_allowance
    if requirements.strict:
        supplier_allowance -= STRICT_PLANNING_MARGIN
        consumer_allowance -= STRICT_PLANNING_MARGIN
    return supplier_allowance, consumer_allowance


def _boundary_conditions_hold(
    bundle: GoodsBundle,
    price: float,
    supplier_allowance: float,
    consumer_allowance: float,
) -> bool:
    """Start- and end-state conditions shared by all planners."""
    if price < -EPSILON:
        return False
    if not (approx_ge(supplier_allowance, 0.0) and approx_ge(consumer_allowance, 0.0)):
        return False
    if not approx_le(bundle.total_supplier_cost - price, supplier_allowance):
        return False
    if not approx_le(price - bundle.total_consumer_value, consumer_allowance):
        return False
    return True


def plan_delivery_order(
    bundle: GoodsBundle,
    price: float,
    requirements: ExchangeRequirements,
) -> Optional[List[Good]]:
    """Find a delivery order admitting a schedule within the allowances.

    Returns the goods in delivery order, or ``None`` when no feasible order
    exists.  Runs in ``O(n log n)``.
    """
    supplier_allowance, consumer_allowance = _effective_allowances(requirements)
    if not _boundary_conditions_hold(
        bundle, price, supplier_allowance, consumer_allowance
    ):
        return None
    total_allowance = supplier_allowance + consumer_allowance

    surplus_items = sorted(
        (good for good in bundle if good.is_surplus_item),
        key=lambda good: good.supplier_cost,
    )
    deficit_items = sorted(
        (good for good in bundle if not good.is_surplus_item),
        key=lambda good: good.consumer_value,
        reverse=True,
    )

    reverse_order: List[Good] = []
    running_deficit = 0.0
    for good in itertools.chain(surplus_items, deficit_items):
        if not approx_le(running_deficit + good.supplier_cost, total_allowance):
            return None
        reverse_order.append(good)
        running_deficit += good.supplier_cost - good.consumer_value
    reverse_order.reverse()
    return reverse_order


def plan_delivery_order_quadratic(
    bundle: GoodsBundle,
    price: float,
    requirements: ExchangeRequirements,
) -> Optional[List[Good]]:
    """Selection-scan variant of :func:`plan_delivery_order` (``O(n^2)``).

    Produces the same feasibility answer; the delivery order may differ in
    tie-breaking.  Kept as a faithful counterpart of the quadratic-time
    algorithm the paper refers to and exercised by the planner-cost
    benchmark (Table 3).
    """
    supplier_allowance, consumer_allowance = _effective_allowances(requirements)
    if not _boundary_conditions_hold(
        bundle, price, supplier_allowance, consumer_allowance
    ):
        return None
    total_allowance = supplier_allowance + consumer_allowance

    pending_surplus = [good for good in bundle if good.is_surplus_item]
    pending_deficit = [good for good in bundle if not good.is_surplus_item]
    reverse_order: List[Good] = []
    running_deficit = 0.0

    while pending_surplus:
        # Scan for the cheapest-to-produce surplus item still pending.
        best_index = min(
            range(len(pending_surplus)),
            key=lambda index: pending_surplus[index].supplier_cost,
        )
        good = pending_surplus.pop(best_index)
        if not approx_le(running_deficit + good.supplier_cost, total_allowance):
            return None
        reverse_order.append(good)
        running_deficit += good.supplier_cost - good.consumer_value

    while pending_deficit:
        # Scan for the deficit item with the largest consumer value.
        best_index = max(
            range(len(pending_deficit)),
            key=lambda index: pending_deficit[index].consumer_value,
        )
        good = pending_deficit.pop(best_index)
        if not approx_le(running_deficit + good.supplier_cost, total_allowance):
            return None
        reverse_order.append(good)
        running_deficit += good.supplier_cost - good.consumer_value

    reverse_order.reverse()
    return reverse_order


def order_is_feasible(
    order: Sequence[Good],
    bundle: GoodsBundle,
    price: float,
    requirements: ExchangeRequirements,
) -> bool:
    """Check whether a specific delivery order admits safe payment chunking.

    The order must contain every good of the bundle exactly once.  This is
    the exact per-step condition the planners are derived from and is used as
    the oracle by :func:`brute_force_delivery_order`.
    """
    if sorted(good.good_id for good in order) != sorted(bundle.good_ids):
        return False
    supplier_allowance, consumer_allowance = _effective_allowances(requirements)
    if not _boundary_conditions_hold(
        bundle, price, supplier_allowance, consumer_allowance
    ):
        return False
    remaining_cost = bundle.total_supplier_cost
    remaining_value = bundle.total_consumer_value
    for good in order:
        lower_now = max(0.0, remaining_cost - supplier_allowance)
        upper_after_delivery = (
            remaining_value - good.consumer_value + consumer_allowance
        )
        if not approx_le(lower_now, upper_after_delivery):
            return False
        remaining_cost -= good.supplier_cost
        remaining_value -= good.consumer_value
    return True


def build_sequence(
    bundle: GoodsBundle,
    price: float,
    requirements: ExchangeRequirements,
    order: Sequence[Good],
    payment_policy: PaymentPolicy = PaymentPolicy.LAZY,
) -> ExchangeSequence:
    """Interleave payment chunks with the given delivery order.

    The order must be feasible (as produced by one of the planners or
    verified with :func:`order_is_feasible`); otherwise the resulting
    sequence would violate the requirements.
    """
    supplier_allowance, consumer_allowance = _effective_allowances(requirements)
    actions: List[ExchangeAction] = []
    remaining_payment = float(price)
    remaining_cost = total(good.supplier_cost for good in order)
    remaining_value = total(good.consumer_value for good in order)

    for good in order:
        lower_now = max(0.0, remaining_cost - supplier_allowance)
        upper_after_delivery = (
            remaining_value - good.consumer_value + consumer_allowance
        )
        highest_allowed = min(remaining_payment, upper_after_delivery)
        if payment_policy is PaymentPolicy.LAZY:
            target = highest_allowed
        elif payment_policy is PaymentPolicy.EAGER:
            target = lower_now
        elif payment_policy is PaymentPolicy.MINIMAL_EXPOSURE:
            # Aim for a remaining payment equal to the consumer value still
            # outstanding after this delivery: the consumer is then never
            # tempted, and the supplier only as much as the lower bound forces.
            target = max(lower_now, remaining_value - good.consumer_value)
        else:
            target = (lower_now + highest_allowed) / 2.0
        target = min(max(target, lower_now, 0.0), highest_allowed)
        chunk = remaining_payment - target
        # Deferring a dust payment leaves up to `chunk` of extra temptation
        # on the deferred side; the skip threshold must therefore stay
        # strictly inside the verifier's EPSILON, or a state already exactly
        # at its allowance fails verification by one rounding ulp.
        if chunk > EPSILON / 2:
            actions.append(ExchangeAction.pay(chunk))
            remaining_payment = target
        actions.append(ExchangeAction.deliver(good))
        remaining_cost -= good.supplier_cost
        remaining_value -= good.consumer_value

    if remaining_payment > EPSILON:
        actions.append(ExchangeAction.pay(remaining_payment))
    return ExchangeSequence(bundle, price, actions)


def plan_exchange(
    bundle: GoodsBundle,
    price: float,
    requirements: ExchangeRequirements,
    payment_policy: PaymentPolicy = PaymentPolicy.LAZY,
) -> Optional[ExchangeSequence]:
    """Plan a complete exchange schedule, or return ``None`` if none exists."""
    order = plan_delivery_order(bundle, price, requirements)
    if order is None:
        return None
    return build_sequence(bundle, price, requirements, order, payment_policy)


def exists_feasible_sequence(
    bundle: GoodsBundle,
    price: float,
    requirements: ExchangeRequirements,
) -> bool:
    """Whether any schedule satisfying the requirements exists."""
    return plan_delivery_order(bundle, price, requirements) is not None


def max_prefix_demand(bundle: GoodsBundle) -> float:
    """Peak ``D + Vs(y)`` along the greedy planner's canonical order.

    This is the bundle's intrinsic demand on the *total* temptation
    allowance: :func:`plan_delivery_order` succeeds exactly when the
    boundary conditions hold and this value is (approximately) at most
    ``A_s + A_c``.  Computing it is independent of the allowances, so a
    batched candidate screen can price a bundle once and test many
    allowance pairs against it.
    """
    surplus_items = sorted(
        (good for good in bundle if good.is_surplus_item),
        key=lambda good: good.supplier_cost,
    )
    deficit_items = sorted(
        (good for good in bundle if not good.is_surplus_item),
        key=lambda good: good.consumer_value,
        reverse=True,
    )
    demand = 0.0
    running_deficit = 0.0
    for good in itertools.chain(surplus_items, deficit_items):
        demand = max(demand, running_deficit + good.supplier_cost)
        running_deficit += good.supplier_cost - good.consumer_value
    return demand


def _canonical_order(costs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row-wise permutation of ``(k, n)`` bundles into the canonical order.

    The greedy planner's canonical order lists the surplus items by
    ascending cost, then the deficit items by descending value; a stable
    sort on the secondary key followed by a stable sort on the primary key
    is exactly that lexicographic order, ties kept in bundle order just as
    ``sorted`` keeps them.  Reversed, it is :func:`plan_delivery_order`'s
    delivery order.
    """
    surplus = values >= costs
    primary = np.where(surplus, 0, 1)
    secondary = np.where(surplus, costs, -values)
    perm = np.argsort(secondary, axis=1, kind="stable")
    return np.take_along_axis(
        perm,
        np.argsort(
            np.take_along_axis(primary, perm, axis=1), axis=1, kind="stable"
        ),
        axis=1,
    )


def _max_prefix_demand_kernel(
    costs: np.ndarray, values: np.ndarray, perm: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`max_prefix_demand` for bundles sharing one shape.

    ``costs``/``values`` are ``(k, n)`` arrays of the k bundles' per-item
    supplier costs and consumer values, ``perm`` their
    :func:`_canonical_order`.  Replays the greedy planner's walk row by row
    with a sequential accumulation, so every row agrees bit for bit with
    the scalar walk (``np.add.accumulate`` adds strictly left to right).
    """
    if costs.shape[1] == 0:
        return np.zeros(len(costs))
    ordered_costs = np.take_along_axis(costs, perm, axis=1)
    ordered_values = np.take_along_axis(values, perm, axis=1)
    deficits = ordered_costs - ordered_values
    # Exclusive prefix sum: subtracting back out of an inclusive cumsum
    # would reorder the additions and drift by an ulp, so shift instead.
    running = np.zeros_like(deficits)
    running[:, 1:] = np.cumsum(deficits[:, :-1], axis=1)
    return np.maximum(0.0, np.max(running + ordered_costs, axis=1))


def _valuation_groups(
    bundles: Sequence[GoodsBundle],
) -> Iterator[Tuple[List[int], np.ndarray, np.ndarray]]:
    """``(indices, costs, values)`` per item count, in first-seen order."""
    groups: dict = {}
    for index, bundle in enumerate(bundles):
        groups.setdefault(len(bundle), []).append(index)
    for indices in groups.values():
        block = np.array([bundles[i].valuation_rows for i in indices])
        yield indices, block[:, 0], block[:, 1]


def max_prefix_demand_batch(bundles: Sequence[GoodsBundle]) -> np.ndarray:
    """Batched :func:`max_prefix_demand` over many candidate bundles.

    Bundles are grouped by item count and each group is priced in one
    vectorized pass (:func:`_max_prefix_demand_kernel`); results are bit
    for bit identical to calling :func:`max_prefix_demand` per bundle.
    """
    demands = np.zeros(len(bundles))
    for indices, costs, values in _valuation_groups(bundles):
        demands[indices] = _max_prefix_demand_kernel(
            costs, values, _canonical_order(costs, values)
        )
    return demands


def exchange_is_schedulable(
    bundle: GoodsBundle,
    price: float,
    requirements: ExchangeRequirements,
    prefix_demand: Optional[float] = None,
) -> bool:
    """Exact feasibility of :func:`plan_delivery_order`, without the order.

    Decomposes feasibility into the boundary conditions plus the
    ``max_prefix_demand`` test (pass a precomputed ``prefix_demand`` to
    amortise it across candidates at different allowances).  Agrees with
    ``plan_delivery_order(...) is not None`` bit for bit — including the
    planner's approximate comparisons — which is what lets the community
    hot path skip planning for infeasible candidates without changing any
    outcome.
    """
    supplier_allowance, consumer_allowance = _effective_allowances(requirements)
    if not _boundary_conditions_hold(
        bundle, price, supplier_allowance, consumer_allowance
    ):
        return False
    if prefix_demand is None:
        prefix_demand = max_prefix_demand(bundle)
    return approx_le(prefix_demand, supplier_allowance + consumer_allowance)


def _batch_inputs(
    bundles: Sequence[GoodsBundle],
    prices: Sequence[float],
    requirements: Sequence[ExchangeRequirements],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aligned price and effective-allowance arrays of a candidate batch."""
    count = len(bundles)
    if not (count == len(prices) == len(requirements)):
        raise ValueError(
            "bundles, prices and requirements must be aligned, got "
            f"{count}/{len(prices)}/{len(requirements)}"
        )
    price_arr = np.asarray(prices, dtype=np.float64)
    supplier_allowances = np.empty(count)
    consumer_allowances = np.empty(count)
    for index, requirement in enumerate(requirements):
        supplier_allowances[index], consumer_allowances[index] = (
            _effective_allowances(requirement)
        )
    return price_arr, supplier_allowances, consumer_allowances


def _schedulable(
    bundles: Sequence[GoodsBundle],
    prices: np.ndarray,
    supplier_allowances: np.ndarray,
    consumer_allowances: np.ndarray,
    prefix_demands: np.ndarray,
) -> np.ndarray:
    """The boundary conditions and the prefix-demand test, elementwise."""
    total_costs = np.array([bundle.total_supplier_cost for bundle in bundles])
    total_values = np.array([bundle.total_consumer_value for bundle in bundles])
    feasible = prices >= -EPSILON
    feasible &= supplier_allowances >= -EPSILON
    feasible &= consumer_allowances >= -EPSILON
    feasible &= total_costs - prices <= supplier_allowances + EPSILON
    feasible &= prices - total_values <= consumer_allowances + EPSILON
    feasible &= prefix_demands <= (
        supplier_allowances + consumer_allowances + EPSILON
    )
    return feasible


def exchange_is_schedulable_batch(
    bundles: Sequence[GoodsBundle],
    prices: Sequence[float],
    requirements: Sequence[ExchangeRequirements],
    prefix_demands: "Optional[np.ndarray]" = None,
) -> np.ndarray:
    """Vectorized :func:`exchange_is_schedulable` over aligned candidates.

    Evaluates the boundary conditions and the prefix-demand test for the
    whole batch elementwise (float64 throughout, the same ``EPSILON``
    comparisons), so the returned boolean mask agrees bit for bit with the
    scalar rule — and therefore with ``plan_delivery_order(...) is not
    None`` — on every candidate.  This is the candidate screen's hot path:
    one call replaces a Python loop over candidates.
    """
    price_arr, supplier_allowances, consumer_allowances = _batch_inputs(
        bundles, prices, requirements
    )
    if prefix_demands is None:
        prefix_demands = max_prefix_demand_batch(bundles)
    else:
        prefix_demands = np.asarray(prefix_demands, dtype=np.float64)
    return _schedulable(
        bundles, price_arr, supplier_allowances, consumer_allowances, prefix_demands
    )


def _larger(a: "np.ndarray | float", b: "np.ndarray | float") -> np.ndarray:
    """Elementwise ``max(a, b)`` with Python's tie and NaN rules."""
    return np.where(b > a, b, a)


def _smaller(a: "np.ndarray | float", b: "np.ndarray | float") -> np.ndarray:
    """Elementwise ``min(a, b)`` with Python's tie and NaN rules."""
    return np.where(b < a, b, a)


def _payment_chunks(
    costs: np.ndarray,
    values: np.ndarray,
    prices: np.ndarray,
    supplier_allowances: np.ndarray,
    consumer_allowances: np.ndarray,
    payment_policy: PaymentPolicy,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`build_sequence`'s payment recurrence for a group of schedules.

    ``costs``/``values`` are ``(m, k)`` valuations in delivery order.  Steps
    the recurrence over the k positions with the whole group in each array
    operation: the same float operations, in the same order, as the scalar
    loop.  Returns ``(payments, paying)`` of shape ``(m, k + 1)``: the chunk
    paid before each delivery and, in column k, the final payment, with
    ``paying`` marking the ones that are made.
    """
    count, size = costs.shape
    payments = np.zeros((count, size + 1))
    paying = np.zeros((count, size + 1), dtype=bool)
    remaining_payment = prices
    remaining_cost, remaining_value = total_rows(np.stack([costs, values]))
    for position in range(size):
        cost = costs[:, position]
        value = values[:, position]
        lower_now = _larger(0.0, remaining_cost - supplier_allowances)
        value_after = remaining_value - value
        highest_allowed = _smaller(
            remaining_payment, value_after + consumer_allowances
        )
        if payment_policy is PaymentPolicy.LAZY:
            target = highest_allowed
        elif payment_policy is PaymentPolicy.EAGER:
            target = lower_now
        elif payment_policy is PaymentPolicy.MINIMAL_EXPOSURE:
            target = _larger(lower_now, value_after)
        else:
            target = (lower_now + highest_allowed) / 2.0
        target = _smaller(
            _larger(_larger(target, lower_now), 0.0), highest_allowed
        )
        chunk = remaining_payment - target
        pay = chunk > EPSILON / 2
        payments[:, position] = chunk
        paying[:, position] = pay
        remaining_payment = np.where(pay, target, remaining_payment)
        remaining_cost = remaining_cost - cost
        remaining_value = remaining_value - value
    payments[:, size] = remaining_payment
    paying[:, size] = remaining_payment > EPSILON
    return payments, paying


def plan_exchange_batch(
    bundles: Sequence[GoodsBundle],
    prices: Sequence[float],
    requirements: Sequence[ExchangeRequirements],
    payment_policy: PaymentPolicy = PaymentPolicy.LAZY,
) -> List[Optional[ExchangeSequence]]:
    """:func:`plan_exchange` over aligned candidates, one pass per item count.

    Bundles sharing an item count are planned together.  Feasibility is
    :func:`exchange_is_schedulable_batch`'s test; the delivery order of the
    feasible ones is their :func:`_canonical_order` reversed; the payment
    chunks come from :func:`_payment_chunks` and the temptation profiles,
    one :class:`~repro.core.exchange.ProfileBlock` per group, from
    :meth:`TemptationProfile.build_many`.  Each group is validated once by
    :meth:`ExchangeSequence.validate_planned` and every schedule is
    returned in the planned form (:meth:`ExchangeSequence.planned`), a row
    of its group's block, which builds no :class:`ExchangeAction` and no
    tuple profile until one is read.  Every entry
    equals ``plan_exchange(bundle, price, requirement, payment_policy)``
    bit for bit: ``None`` where no schedule exists, otherwise a sequence
    with the same actions and a profile equal to the one it would build.
    """
    price_arr, supplier_allowances, consumer_allowances = _batch_inputs(
        bundles, prices, requirements
    )
    sequences: List[Optional[ExchangeSequence]] = [None] * len(bundles)
    for indices, costs, values in _valuation_groups(bundles):
        perm = _canonical_order(costs, values)
        feasible = _schedulable(
            [bundles[i] for i in indices],
            price_arr[indices],
            supplier_allowances[indices],
            consumer_allowances[indices],
            _max_prefix_demand_kernel(costs, values, perm),
        )
        rows = np.flatnonzero(feasible)
        if not len(rows):
            continue
        costs, values = costs[rows], values[rows]
        order = perm[rows, ::-1]
        group = [indices[row] for row in rows.tolist()]
        group_prices = price_arr[group]
        payments, paying = _payment_chunks(
            np.take_along_axis(costs, order, axis=1),
            np.take_along_axis(values, order, axis=1),
            group_prices,
            supplier_allowances[group],
            consumer_allowances[group],
            payment_policy,
        )
        group_bundles = [bundles[index] for index in group]
        ExchangeSequence.validate_planned(
            group_bundles, group_prices, order, payments, paying
        )
        block = TemptationProfile.build_many(
            costs, values, order, group_prices, payments, paying
        )
        for row, (index, bundle) in enumerate(zip(group, group_bundles)):
            sequences[index] = ExchangeSequence.planned(
                bundle, prices[index], block, row
            )
    return sequences


def brute_force_delivery_order(
    bundle: GoodsBundle,
    price: float,
    requirements: ExchangeRequirements,
    max_items: int = 9,
) -> Optional[List[Good]]:
    """Exhaustively search delivery orders (reference oracle for tests).

    Raises ``ValueError`` for bundles larger than ``max_items`` to avoid
    factorial blow-ups by accident.
    """
    if len(bundle) > max_items:
        raise ValueError(
            f"brute force search limited to {max_items} items, "
            f"bundle has {len(bundle)}"
        )
    goods = list(bundle)
    for order in itertools.permutations(goods):
        if order_is_feasible(order, bundle, price, requirements):
            return list(order)
    return None


def required_total_tolerance(
    bundle: GoodsBundle,
    price: float,
    precision: float = 1e-6,
) -> float:
    """Smallest total temptation allowance that makes the exchange schedulable.

    The allowance is assumed to be split evenly between the two sides
    (``A_s = A_c = T / 2``); the result quantifies how much combined
    reputation continuation value and/or trust-based accepted exposure the
    partners need before the bundle can be exchanged at the given price.
    Returns ``0.0`` when a fully safe (non-strict) schedule already exists.
    Raises :class:`InvalidPriceError` for a negative or non-finite price, and
    when the search's upper bound overflows.
    """
    if not 0.0 <= price < math.inf:
        raise InvalidPriceError(f"price must be finite and >= 0, got {price}")

    def feasible(total_tolerance: float) -> bool:
        half = total_tolerance / 2.0
        requirements = ExchangeRequirements(
            consumer_accepted_exposure=half,
            supplier_accepted_exposure=half,
        )
        return exists_feasible_sequence(bundle, price, requirements)

    if feasible(0.0):
        return 0.0
    upper = 2.0 * (
        bundle.total_supplier_cost + bundle.total_consumer_value + price + 1.0
    )
    if upper == math.inf:
        raise InvalidPriceError(
            f"tolerance search bound overflows at price {price} for bundle "
            f"totals {bundle.total_supplier_cost}/{bundle.total_consumer_value}"
        )
    if not feasible(upper):
        # Should not happen: with a huge allowance any order is feasible.
        raise NoSafeSequenceError(
            "exchange infeasible even with an unbounded allowance; "
            "this indicates an invalid price"
        )
    low, high = 0.0, upper
    while high - low > precision:
        mid = (low + high) / 2.0
        if not low < mid < high:
            # ``low`` and ``high`` are adjacent floats: at this magnitude the
            # bracket cannot narrow to ``precision``.
            break
        if feasible(mid):
            high = mid
        else:
            low = mid
    return high
