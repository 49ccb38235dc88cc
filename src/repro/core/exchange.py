"""Exchange state machine: actions, states and sequences.

An exchange between a supplier and a consumer is a sequence of two kinds of
actions:

* ``DELIVER`` — the supplier hands over one item of the goods bundle, and
* ``PAY`` — the consumer transfers a payment chunk of arbitrary size.

The state of the exchange is fully described by the set of goods still to be
delivered and the payment still outstanding.  From the state, the two
quantities the safety analysis revolves around are derived:

* the *supplier's temptation* to defect, ``Vs(remaining) - remaining_payment``
  (positive when the outstanding revenue no longer covers the outstanding
  production cost), and
* the *consumer's temptation* to defect, ``remaining_payment - Vc(remaining)``
  (positive when the outstanding payment exceeds the value still to be
  received).

:class:`ExchangeState` is the reference model of one state.  A sequence's
planner reads its :class:`TemptationProfile` instead, which holds the same
per-state quantities, bit for bit, from one walk over the actions.  A batch
of planned schedules keeps them as one :class:`ProfileBlock`: flat arrays
over every schedule's states, from one array pass over all of them.

A batch planner returns each :class:`ExchangeSequence` in a columnar
*planned* form, a row of its block, validated as arrays, which an executor
runs from the block without building any :class:`ExchangeAction` or tuple
profile.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.goods import Good, GoodsBundle
from repro.core.numeric import EPSILON, approx_eq, non_negative, total, total_rows
from repro.exceptions import InvalidActionError, InvalidSequenceError

__all__ = [
    "Role",
    "ActionKind",
    "ExchangeAction",
    "ExchangeState",
    "TemptationProfile",
    "ProfileBlock",
    "ExchangeSequence",
]


class Role(enum.Enum):
    """The two parties of an exchange."""

    SUPPLIER = "supplier"
    CONSUMER = "consumer"

    @property
    def other(self) -> "Role":
        """The counterparty of this role."""
        return Role.CONSUMER if self is Role.SUPPLIER else Role.SUPPLIER


class ActionKind(enum.Enum):
    """Kind of a single exchange step."""

    DELIVER = "deliver"
    PAY = "pay"


@dataclass(frozen=True)
class ExchangeAction:
    """One step of an exchange: a delivery of a good or a payment chunk."""

    kind: ActionKind
    good_id: Optional[str] = None
    amount: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is ActionKind.DELIVER:
            if not self.good_id:
                raise InvalidActionError("DELIVER action requires a good_id")
            if self.amount:
                raise InvalidActionError("DELIVER action must not carry an amount")
        else:
            if self.good_id is not None:
                raise InvalidActionError("PAY action must not carry a good_id")
            if self.amount <= 0:
                raise InvalidActionError(
                    f"PAY action requires a positive amount, got {self.amount}"
                )

    @classmethod
    def deliver(cls, good: "Good | str") -> "ExchangeAction":
        """Create a delivery action for ``good`` (a :class:`Good` or its id)."""
        good_id = good.good_id if isinstance(good, Good) else good
        return cls(kind=ActionKind.DELIVER, good_id=good_id)

    @classmethod
    def pay(cls, amount: float) -> "ExchangeAction":
        """Create a payment action transferring ``amount``."""
        return cls(kind=ActionKind.PAY, amount=float(amount))

    @property
    def actor(self) -> Role:
        """The role that performs this action."""
        return Role.SUPPLIER if self.kind is ActionKind.DELIVER else Role.CONSUMER

    def describe(self) -> str:
        """Human readable one-line description."""
        if self.kind is ActionKind.DELIVER:
            return f"supplier delivers {self.good_id}"
        return f"consumer pays {self.amount:.3f}"


@dataclass(frozen=True)
class ExchangeState:
    """Immutable snapshot of an exchange in progress.

    Attributes
    ----------
    bundle:
        The full goods bundle being traded.
    price:
        The agreed total price ``P``.
    delivered_ids:
        Ids of the goods already delivered.
    paid:
        Total amount already paid by the consumer.
    """

    bundle: GoodsBundle
    price: float
    delivered_ids: FrozenSet[str] = field(default_factory=frozenset)
    paid: float = 0.0

    @classmethod
    def initial(cls, bundle: GoodsBundle, price: float) -> "ExchangeState":
        """The state before any delivery or payment has happened."""
        if price < 0:
            raise InvalidActionError(f"price must be non-negative, got {price}")
        return cls(bundle=bundle, price=float(price))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def remaining_goods(self) -> Tuple[Good, ...]:
        """The goods not yet delivered, in bundle order."""
        return tuple(
            good for good in self.bundle if good.good_id not in self.delivered_ids
        )

    @property
    def delivered_goods(self) -> Tuple[Good, ...]:
        """The goods already delivered, in bundle order."""
        return tuple(
            good for good in self.bundle if good.good_id in self.delivered_ids
        )

    @property
    def remaining_payment(self) -> float:
        """Outstanding payment ``r = P - paid`` (never below zero)."""
        return non_negative(self.price - self.paid)

    @property
    def remaining_supplier_cost(self) -> float:
        """``Vs`` of the goods still to be delivered."""
        return total(good.supplier_cost for good in self.remaining_goods)

    @property
    def remaining_consumer_value(self) -> float:
        """``Vc`` of the goods still to be delivered."""
        return total(good.consumer_value for good in self.remaining_goods)

    @property
    def supplier_temptation(self) -> float:
        """How much the supplier gains by defecting right now.

        Positive when the cost of the goods still to be delivered exceeds the
        payment still to be received.
        """
        return self.remaining_supplier_cost - self.remaining_payment

    @property
    def consumer_temptation(self) -> float:
        """How much the consumer gains by defecting right now.

        Positive when the payment still owed exceeds the value of the goods
        still to be received.
        """
        return self.remaining_payment - self.remaining_consumer_value

    @property
    def supplier_utility(self) -> float:
        """The supplier's realised utility so far: payments minus costs."""
        delivered_cost = total(good.supplier_cost for good in self.delivered_goods)
        return self.paid - delivered_cost

    @property
    def consumer_utility(self) -> float:
        """The consumer's realised utility so far: received value minus payments."""
        delivered_value = total(good.consumer_value for good in self.delivered_goods)
        return delivered_value - self.paid

    @property
    def is_complete(self) -> bool:
        """``True`` when every good is delivered and the full price is paid."""
        return len(self.delivered_ids) == len(self.bundle) and approx_eq(
            self.paid, self.price
        )

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def apply(self, action: ExchangeAction) -> "ExchangeState":
        """Return the state reached by performing ``action``.

        Raises :class:`InvalidActionError` when the action is not applicable
        (unknown or already-delivered good, or an over-payment).
        """
        if action.kind is ActionKind.DELIVER:
            assert action.good_id is not None
            if action.good_id not in self.bundle:
                raise InvalidActionError(
                    f"good {action.good_id!r} is not part of the bundle"
                )
            if action.good_id in self.delivered_ids:
                raise InvalidActionError(
                    f"good {action.good_id!r} has already been delivered"
                )
            return replace(
                self, delivered_ids=self.delivered_ids | {action.good_id}
            )
        new_paid = self.paid + action.amount
        if new_paid > self.price + EPSILON:
            raise InvalidActionError(
                f"payment of {action.amount:.3f} exceeds the outstanding amount "
                f"({self.remaining_payment:.3f})"
            )
        return replace(self, paid=min(new_paid, self.price))

    def utility_of(self, role: Role) -> float:
        """Realised utility so far of the given role."""
        if role is Role.SUPPLIER:
            return self.supplier_utility
        return self.consumer_utility

    def temptation_of(self, role: Role) -> float:
        """Defection temptation of the given role in this state."""
        if role is Role.SUPPLIER:
            return self.supplier_temptation
        return self.consumer_temptation


@dataclass(frozen=True)
class TemptationProfile:
    """Per-state quantities of one exchange schedule.

    Entry ``i`` of every field describes the state after the first ``i``
    actions (entry 0 is the initial state), so each field has one entry more
    than the schedule has actions.  Every entry equals the matching
    :class:`ExchangeState` property of a replay bit for bit.
    """

    supplier_temptation: Tuple[float, ...]
    consumer_temptation: Tuple[float, ...]
    supplier_utility: Tuple[float, ...]
    consumer_utility: Tuple[float, ...]
    paid: Tuple[float, ...]
    delivered: Tuple[int, ...]

    @classmethod
    def build(
        cls,
        bundle: GoodsBundle,
        price: float,
        actions: Sequence[ExchangeAction],
    ) -> "TemptationProfile":
        """Walk ``actions`` once from the initial state of ``bundle`` at ``price``.

        The actions must deliver each good at most once (as a validated
        :class:`ExchangeSequence` does).  A payment beyond the outstanding
        amount raises :class:`InvalidActionError`, as
        :meth:`ExchangeState.apply` does.

        The valuations still to be delivered and those already delivered are
        kept in bundle order, with the goods on the other side zeroed, and
        summed with :func:`total` after each delivery.  Adding an exact 0.0
        leaves a plain or a compensated float sum unchanged, so every total
        equals the replay's sum over the goods themselves.
        """
        position = {good.good_id: index for index, good in enumerate(bundle)}
        costs = [good.supplier_cost for good in bundle]
        values = [good.consumer_value for good in bundle]
        remaining_costs = list(costs)
        remaining_values = list(values)
        delivered_costs = [0.0] * len(costs)
        delivered_values = [0.0] * len(values)
        remaining_cost = total(remaining_costs)
        remaining_value = total(remaining_values)
        delivered_cost = delivered_value = 0.0
        paid = 0.0
        delivered = 0
        remaining_payment = non_negative(price - paid)
        supplier_temptation = [remaining_cost - remaining_payment]
        consumer_temptation = [remaining_payment - remaining_value]
        supplier_utility = [paid - delivered_cost]
        consumer_utility = [delivered_value - paid]
        paid_after = [paid]
        delivered_after = [delivered]
        for action in actions:
            if action.kind is ActionKind.DELIVER:
                index = position[action.good_id]  # type: ignore[index]
                remaining_costs[index] = remaining_values[index] = 0.0
                delivered_costs[index] = costs[index]
                delivered_values[index] = values[index]
                remaining_cost = total(remaining_costs)
                remaining_value = total(remaining_values)
                delivered_cost = total(delivered_costs)
                delivered_value = total(delivered_values)
                delivered += 1
            else:
                new_paid = paid + action.amount
                if new_paid > price + EPSILON:
                    raise InvalidActionError(
                        f"payment of {action.amount:.3f} exceeds the outstanding "
                        f"amount ({remaining_payment:.3f})"
                    )
                paid = min(new_paid, price)
                remaining_payment = non_negative(price - paid)
            supplier_temptation.append(remaining_cost - remaining_payment)
            consumer_temptation.append(remaining_payment - remaining_value)
            supplier_utility.append(paid - delivered_cost)
            consumer_utility.append(delivered_value - paid)
            paid_after.append(paid)
            delivered_after.append(delivered)
        return cls(
            supplier_temptation=tuple(supplier_temptation),
            consumer_temptation=tuple(consumer_temptation),
            supplier_utility=tuple(supplier_utility),
            consumer_utility=tuple(consumer_utility),
            paid=tuple(paid_after),
            delivered=tuple(delivered_after),
        )

    @classmethod
    def build_many(
        cls,
        costs: np.ndarray,
        values: np.ndarray,
        order: np.ndarray,
        prices: np.ndarray,
        payments: np.ndarray,
        paying: np.ndarray,
    ) -> "ProfileBlock":
        """:meth:`build` for ``m`` schedules of ``k`` goods each, as one block.

        Row ``i`` describes the schedule the planner builds: before its
        ``p``-th delivery it pays ``payments[i, p]`` if ``paying[i, p]``,
        then delivers bundle item ``order[i, p]``; at the end it pays
        ``payments[i, k]`` if ``paying[i, k]``.  ``costs`` and ``values``
        are the ``(m, k)`` valuations in bundle order, ``prices`` the ``m``
        prices, and ``payments``/``paying`` have shape ``(m, k + 1)``.

        The totals after ``j`` deliveries are ``(m, k + 1)`` arrays, each
        entry the :func:`~repro.core.numeric.total_rows` of the zero-masked
        valuations in bundle order, so they round as :meth:`build`'s
        :func:`total` calls do.  The payment walk and the per-state
        differences are the same float operations, one column at a time, so
        every row of the returned :class:`ProfileBlock` equals
        :meth:`build`'s profile bit for bit.  The block also keeps the
        schedule arrays, from which a row's actions are built on demand.
        """
        count, size = costs.shape
        rows = np.arange(count)[:, None]
        step = np.empty_like(order)
        step[rows, order] = np.arange(size)
        # delivered[n, i, j]: bundle item n of row i is among the first j
        # deliveries.  The item axis leads, so the totals over it read
        # contiguous memory.
        delivered = (step.T[:, :, None] < np.arange(size + 1))[:, None]
        valuations = np.stack([costs.T, values.T], axis=1)[..., None]
        remaining_cost, remaining_value, delivered_cost, delivered_value = (
            total_rows(
                np.concatenate(
                    [
                        np.where(delivered, 0.0, valuations),
                        np.where(delivered, valuations, 0.0),
                    ],
                    axis=1,
                ),
                axis=0,
            )
        )

        # State columns: the initial state, then per delivery p a payment
        # state and a delivery state, then the final payment state.
        deliveries = [0]
        is_delivery = [False]
        active = [np.ones(count, dtype=bool)]
        paid = np.zeros(count)
        paid_after = [paid]
        for position in range(size + 1):
            paying_now = paying[:, position]
            new_paid = paid + payments[:, position]
            over = paying_now & (new_paid > prices + EPSILON)
            if over.any():
                row = int(np.flatnonzero(over)[0])
                raise InvalidActionError(
                    f"payment of {payments[row, position]:.3f} exceeds the "
                    f"outstanding amount "
                    f"({non_negative(prices[row] - paid[row]):.3f})"
                )
            paid = np.where(
                paying_now, np.where(prices < new_paid, prices, new_paid), paid
            )
            deliveries.append(position)
            is_delivery.append(False)
            active.append(paying_now)
            paid_after.append(paid)
            if position < size:
                deliveries.append(position + 1)
                is_delivery.append(True)
                active.append(np.ones(count, dtype=bool))
                paid_after.append(paid)
        columns = np.array(deliveries)
        is_state = np.stack(active, axis=1)
        paid_matrix = np.stack(paid_after, axis=1)
        remaining_payment = prices[:, None] - paid_matrix
        remaining_payment = np.where(
            (remaining_payment > -EPSILON) & (remaining_payment < 0.0),
            0.0,
            remaining_payment,
        )
        starts = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(is_state.sum(axis=1), out=starts[1:])
        # The step leaving a state is the one that reaches the row's next
        # state, so the supplier acts there when that state is a delivery.
        delivers = np.broadcast_to(np.array(is_delivery), is_state.shape)[is_state]
        supplier_acts = np.zeros_like(delivers)
        supplier_acts[:-1] = delivers[1:]
        supplier_acts[starts[1:] - 1] = False
        fields = [
            remaining_cost[:, columns] - remaining_payment,
            remaining_payment - remaining_value[:, columns],
            paid_matrix - delivered_cost[:, columns],
            delivered_value[:, columns] - paid_matrix,
            paid_matrix,
            np.broadcast_to(columns, is_state.shape),
        ]
        return ProfileBlock(
            *(field[is_state] for field in fields),
            starts,
            supplier_acts,
            schedule=(order, payments, paying),
        )


@dataclass(eq=False)
class ProfileBlock:
    """The temptation profiles of a batch of schedules, as flat arrays.

    Row ``i``'s states are entries ``starts[i]:starts[i + 1]`` of the six
    per-state fields, in the order and with the values of
    :class:`TemptationProfile`'s fields; ``supplier_acts[s]`` is ``True``
    when the supplier acts at the step leaving state ``s`` (``False`` at a
    row's final state, which no step leaves).  A batch planner's block
    (:meth:`TemptationProfile.build_many`) also keeps its ``schedule``: the
    delivery order, payment slots and paying mask its rows were built
    from.  An executor reads the block directly; :meth:`profile` builds one
    row's tuple :class:`TemptationProfile` for readers that want it.
    """

    supplier_temptation: np.ndarray
    consumer_temptation: np.ndarray
    supplier_utility: np.ndarray
    consumer_utility: np.ndarray
    paid: np.ndarray
    delivered: np.ndarray
    starts: np.ndarray
    supplier_acts: np.ndarray
    schedule: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    _maxima: Optional[Tuple[List[float], List[float]]] = field(
        default=None, init=False, repr=False
    )

    @classmethod
    def of_sequences(cls, sequences: Sequence["ExchangeSequence"]) -> "ProfileBlock":
        """One block of the sequences' own profiles and step owners."""
        profiles = [sequence.profile for sequence in sequences]
        lengths = [len(profile.paid) for profile in profiles]
        starts = np.zeros(len(profiles) + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        supplier_acts = np.fromiter(
            (
                acts
                for sequence in sequences
                for acts in sequence.actors + (False,)
            ),
            dtype=bool,
            count=int(starts[-1]),
        )

        def flat(name: str, dtype: type) -> np.ndarray:
            return np.fromiter(
                (entry for profile in profiles for entry in getattr(profile, name)),
                dtype=dtype,
                count=int(starts[-1]),
            )

        return cls(
            flat("supplier_temptation", np.float64),
            flat("consumer_temptation", np.float64),
            flat("supplier_utility", np.float64),
            flat("consumer_utility", np.float64),
            flat("paid", np.float64),
            flat("delivered", np.int64),
            starts,
            supplier_acts,
        )

    def __len__(self) -> int:
        return len(self.starts) - 1

    def profile(self, row: int) -> TemptationProfile:
        """Row ``row`` as a tuple :class:`TemptationProfile`, bit for bit."""
        start, end = int(self.starts[row]), int(self.starts[row + 1])
        return TemptationProfile(
            tuple(self.supplier_temptation[start:end].tolist()),
            tuple(self.consumer_temptation[start:end].tolist()),
            tuple(self.supplier_utility[start:end].tolist()),
            tuple(self.consumer_utility[start:end].tolist()),
            tuple(self.paid[start:end].tolist()),
            tuple(self.delivered[start:end].tolist()),
        )

    def actors(self, row: int) -> Tuple[bool, ...]:
        """Per step of row ``row``, ``True`` when the supplier acts."""
        start, end = int(self.starts[row]), int(self.starts[row + 1])
        return tuple(self.supplier_acts[start : end - 1].tolist())

    def max_temptations(self, row: int) -> Tuple[float, float]:
        """Row ``row``'s largest supplier and consumer temptations.

        One ``np.maximum.reduceat`` per field over the whole block, on the
        first read; ``max`` over a row's tuple gives the same value.
        """
        if self._maxima is None:
            offsets = self.starts[:-1]
            self._maxima = (
                np.maximum.reduceat(self.supplier_temptation, offsets).tolist(),
                np.maximum.reduceat(self.consumer_temptation, offsets).tolist(),
            )
        return self._maxima[0][row], self._maxima[1][row]


class ExchangeSequence:
    """A complete schedule of deliveries and payments for one exchange.

    A sequence takes one of two forms with the same behaviour:

    * the *actions* form, ``ExchangeSequence(bundle, price, actions)``, is
      validated on construction: every good of the bundle must be
      delivered exactly once, every payment must be positive and the
      payments must add up to the agreed price;
    * the *planned* form, :meth:`planned`, is one row of a batch
      planner's :class:`ProfileBlock` (which keeps the delivery order, the
      ``k + 1`` payment slots and which of them are paid, beside the
      profiles).  :meth:`validate_planned` has checked the same rules for
      the whole batch as array operations, so the planned form builds its
      :class:`ExchangeAction` tuple only when something reads
      :attr:`actions` (or iterates, renders or replays it), and its tuple
      :attr:`profile` only when something reads that.

    An executor reads a planned row from its block (:attr:`planned_row`);
    an actions-form sequence is executed from a block of its own
    :attr:`profile` and :attr:`actors`
    (:meth:`ProfileBlock.of_sequences`).
    """

    __slots__ = ("_bundle", "_price", "_actions", "_profile", "_actors", "_planned")

    def __init__(
        self,
        bundle: GoodsBundle,
        price: float,
        actions: Sequence[ExchangeAction],
    ):
        self._bundle = bundle
        self._price = float(price)
        self._actions: Optional[Tuple[ExchangeAction, ...]] = tuple(actions)
        self._profile: Optional[TemptationProfile] = None
        self._actors: Optional[Tuple[bool, ...]] = None
        self._planned: Optional[Tuple[ProfileBlock, int]] = None
        self._validate()

    @classmethod
    def planned(
        cls, bundle: GoodsBundle, price: float, block: ProfileBlock, row: int
    ) -> "ExchangeSequence":
        """Row ``row`` of a batch-planned block, validated by the batch.

        Before its ``p``-th delivery the schedule pays ``payments[row, p]``
        if ``paying[row, p]``, then delivers bundle item ``order[row, p]``;
        at the end it pays ``payments[row, k]`` if ``paying[row, k]``
        (``block.schedule`` is ``(order, payments, paying)``).  The row must
        have passed :meth:`validate_planned`, and the block must come from
        :meth:`TemptationProfile.build_many` over the same arrays.
        """
        sequence = cls.__new__(cls)
        sequence._bundle = bundle
        sequence._price = float(price)
        sequence._actions = None
        sequence._profile = None
        sequence._actors = None
        sequence._planned = (block, row)
        return sequence

    @staticmethod
    def validate_planned(
        bundles: Sequence[GoodsBundle],
        prices: np.ndarray,
        order: np.ndarray,
        payments: np.ndarray,
        paying: np.ndarray,
    ) -> None:
        """Check :meth:`planned` rows with the constructor's rules, as arrays.

        Row ``i`` is bundle ``bundles[i]`` at ``prices[i]`` delivered in
        ``order[i]`` (bundle positions) with the payment slots
        ``payments[i]``/``paying[i]``, laid out as :meth:`planned` reads
        them.  The rules are those of :class:`ExchangeAction` and
        :meth:`_validate`: the price is non-negative, each ``order`` row is
        a permutation (every good delivered exactly once), every paid chunk
        is positive and the paid chunks, summed in schedule order, meet the
        price within 1e-6.  A row that breaks one is rebuilt through the
        actions constructor, which raises that rule's exception and
        message.
        """
        count, size = order.shape
        paid = np.zeros(count)
        for position in range(size + 1):
            # Adding an exact 0.0 for an unpaid slot leaves the running sum
            # unchanged, so this is _validate's sum in schedule order.
            paid = paid + np.where(paying[:, position], payments[:, position], 0.0)
        broken = prices < 0
        broken |= (np.sort(order, axis=1) != np.arange(size)).any(axis=1)
        broken |= (paying & (payments <= 0)).any(axis=1)
        broken |= ~(np.abs(paid - prices) <= 1e-6)
        for row in np.flatnonzero(broken).tolist():
            actions = _planned_actions(
                bundles[row].goods,
                order[row].tolist(),
                payments[row].tolist(),
                paying[row].tolist(),
            )
            ExchangeSequence(bundles[row], prices[row], actions)

    def _validate(self) -> None:
        if self._price < 0:
            raise InvalidSequenceError(f"price must be >= 0, got {self._price}")
        delivered: Set[str] = set()
        paid = 0.0
        for action in self._actions:
            if action.kind is ActionKind.DELIVER:
                assert action.good_id is not None
                if action.good_id not in self._bundle:
                    raise InvalidSequenceError(
                        f"sequence delivers unknown good {action.good_id!r}"
                    )
                if action.good_id in delivered:
                    raise InvalidSequenceError(
                        f"sequence delivers good {action.good_id!r} twice"
                    )
                delivered.add(action.good_id)
            else:
                paid += action.amount
        if len(delivered) != len(self._bundle):
            missing = set(self._bundle.good_ids) - delivered
            raise InvalidSequenceError(
                f"sequence does not deliver all goods; missing: {sorted(missing)}"
            )
        if not approx_eq(paid, self._price, eps=1e-6):
            raise InvalidSequenceError(
                f"payments sum to {paid:.6f}, expected the agreed price "
                f"{self._price:.6f}"
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def bundle(self) -> GoodsBundle:
        return self._bundle

    @property
    def price(self) -> float:
        return self._price

    @property
    def planned_row(self) -> Optional[Tuple[ProfileBlock, int]]:
        """``(block, row)`` of a planned sequence; ``None`` in the actions form."""
        return self._planned

    @property
    def actions(self) -> Tuple[ExchangeAction, ...]:
        if self._actions is None:
            assert self._planned is not None
            block, row = self._planned
            assert block.schedule is not None
            self._actions = tuple(
                _planned_actions(
                    self._bundle.goods,
                    *(column[row].tolist() for column in block.schedule),
                )
            )
        return self._actions

    @property
    def actors(self) -> Tuple[bool, ...]:
        """Per step, ``True`` when the supplier acts (delivers a good)."""
        if self._actors is None:
            if self._planned is None:
                self._actors = tuple(
                    action.kind is ActionKind.DELIVER for action in self.actions
                )
            else:
                self._actors = self._planned[0].actors(self._planned[1])
        return self._actors

    def __len__(self) -> int:
        return len(self.actors)

    def __iter__(self) -> Iterator[ExchangeAction]:
        return iter(self.actions)

    def __repr__(self) -> str:
        return (
            f"ExchangeSequence(n_actions={len(self)}, "
            f"price={self._price:.3f}, goods={len(self._bundle)})"
        )

    @property
    def delivery_order(self) -> Tuple[str, ...]:
        """Good ids in the order they are delivered."""
        return tuple(
            action.good_id  # type: ignore[misc]
            for action in self.actions
            if action.kind is ActionKind.DELIVER
        )

    @property
    def payments(self) -> Tuple[float, ...]:
        """The payment chunks in order."""
        return tuple(
            action.amount
            for action in self.actions
            if action.kind is ActionKind.PAY
        )

    @property
    def num_deliveries(self) -> int:
        return len(self.delivery_order)

    @property
    def num_payments(self) -> int:
        return len(self.payments)

    # ------------------------------------------------------------------
    # State iteration
    # ------------------------------------------------------------------
    def states(self) -> Iterator[ExchangeState]:
        """Yield the initial state and the state after every action."""
        state = ExchangeState.initial(self._bundle, self._price)
        yield state
        for action in self.actions:
            state = state.apply(action)
            yield state

    def final_state(self) -> ExchangeState:
        """The state after the last action (complete by construction)."""
        state = ExchangeState.initial(self._bundle, self._price)
        for action in self.actions:
            state = state.apply(action)
        return state

    @property
    def profile(self) -> TemptationProfile:
        """The schedule's per-state temptations and utilities, built once.

        A planned sequence reads it off its block's row on first access."""
        if self._profile is None:
            if self._planned is not None:
                self._profile = self._planned[0].profile(self._planned[1])
            else:
                self._profile = TemptationProfile.build(
                    self._bundle, self._price, self.actions
                )
        return self._profile

    @property
    def max_supplier_temptation(self) -> float:
        """Largest supplier temptation reached anywhere in the schedule."""
        if self._planned is not None:
            return self._planned[0].max_temptations(self._planned[1])[0]
        return max(self.profile.supplier_temptation)

    @property
    def max_consumer_temptation(self) -> float:
        """Largest consumer temptation reached anywhere in the schedule."""
        if self._planned is not None:
            return self._planned[0].max_temptations(self._planned[1])[1]
        return max(self.profile.consumer_temptation)

    def describe(self) -> str:
        """Multi-line human readable rendering of the schedule."""
        profile = self.profile
        lines = [
            f"Exchange of {len(self._bundle)} goods for {self._price:.3f}",
        ]
        for index, action in enumerate(self.actions, start=1):
            remaining_payment = non_negative(self._price - profile.paid[index])
            lines.append(
                f"  {index:3d}. {action.describe():<40s} "
                f"remaining payment={remaining_payment:8.3f}  "
                f"temptation(s)={profile.supplier_temptation[index]:8.3f}  "
                f"temptation(c)={profile.consumer_temptation[index]:8.3f}"
            )
        return "\n".join(lines)


def _planned_actions(
    goods: Sequence[Good], items: List[int], chunks: List[float], pays: List[bool]
) -> List[ExchangeAction]:
    """The actions of a :meth:`ExchangeSequence.planned` row, in order."""
    actions: List[ExchangeAction] = []
    for position, item in enumerate(items):
        if pays[position]:
            actions.append(ExchangeAction.pay(chunks[position]))
        actions.append(ExchangeAction.deliver(goods[item]))
    if pays[-1]:
        actions.append(ExchangeAction.pay(chunks[-1]))
    return actions
