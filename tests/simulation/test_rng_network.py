"""Unit tests for seeded RNG streams and the simulated network."""

import math
import random

import pytest

from repro.exceptions import SimulationError
from repro.simulation.network import (
    ExponentialLatency,
    FixedLatency,
    LatencyModel,
    SimulatedNetwork,
)
from repro.simulation.rng import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(42).stream("matching")
        b = RandomStreams(42).stream("matching")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_independent(self):
        streams = RandomStreams(42)
        seq_a = [streams("a").random() for _ in range(5)]
        seq_b = [streams("b").random() for _ in range(5)]
        assert seq_a != seq_b

    def test_stream_is_cached(self):
        streams = RandomStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_spawn_derives_new_family(self):
        parent = RandomStreams(7)
        child_a = parent.spawn("child")
        child_b = RandomStreams(7).spawn("child")
        assert child_a.master_seed == child_b.master_seed
        assert child_a.master_seed != parent.master_seed


class TestLatencyModels:
    def test_fixed(self):
        assert FixedLatency(2.0).sample(random.Random(0)) == 2.0

    def test_exponential_respects_minimum(self):
        model = ExponentialLatency(mean=1.0, minimum=0.5)
        rng = random.Random(0)
        assert all(model.sample(rng) >= 0.5 for _ in range(100))

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            FixedLatency(-1.0)
        with pytest.raises(SimulationError):
            ExponentialLatency(mean=0.0)


class TestSimulatedNetwork:
    def build(self, loss=0.0):
        return SimulatedNetwork(latency=FixedLatency(1.5), loss_probability=loss)

    def test_delivery_after_latency(self):
        network = self.build()
        received = []
        network.register("bob", lambda message: received.append(message))
        assert network.send("alice", "bob", {"hello": 1})
        network.deliver_until(1.4)
        assert received == []  # not delivered yet
        network.deliver_until(1.5)
        assert len(received) == 1
        assert received[0].sender_id == "alice"
        assert received[0].payload == {"hello": 1}
        assert network.now == 1.5
        assert network.counters.delivered == 1
        assert network.counters.mean_latency == pytest.approx(1.5)

    def test_unknown_recipient_counts_undeliverable(self):
        network = self.build()
        assert not network.send("alice", "ghost", "x")
        assert network.counters.undeliverable == 1

    def test_unregister(self):
        network = self.build()
        network.register("bob", lambda message: None)
        assert network.is_registered("bob")
        network.unregister("bob")
        assert not network.is_registered("bob")

    def test_loss_drops_messages(self):
        network = SimulatedNetwork(loss_probability=0.5, rng=random.Random(3))
        received = []
        network.register("bob", lambda message: received.append(message))
        for _ in range(200):
            network.send("alice", "bob", "ping")
        network.deliver_until(1.0)
        assert network.counters.dropped > 50
        assert len(received) == network.counters.delivered
        assert network.counters.dropped + network.counters.delivered == 200

    def test_invalid_loss_probability(self):
        with pytest.raises(SimulationError):
            SimulatedNetwork(loss_probability=1.0)

    def test_empty_peer_id_rejected(self):
        network = self.build()
        with pytest.raises(SimulationError):
            network.register("", lambda message: None)


class ScriptedLatency(LatencyModel):
    """Hands out the given delays in order, one per queued message."""

    def __init__(self, *delays):
        self._delays = iter(delays)

    def sample(self, rng):
        return next(self._delays)


def _recorder(network, peer_id, log, on_message=None):
    """Register ``peer_id`` to log ``(now, payload)`` for every delivery."""

    def handler(message):
        log.append((network.now, message.payload))
        if on_message is not None:
            on_message(message)

    network.register(peer_id, handler)


class TestDeliveryQueue:
    """The network's clock and delivery queue: ``(time, send order)``."""

    def test_delivers_in_time_order(self):
        network = SimulatedNetwork(latency=ScriptedLatency(5.0, 2.0))
        log = []
        _recorder(network, "bob", log)
        network.send("alice", "bob", "late")
        network.send("alice", "bob", "early")
        assert network.deliver_until(10.0) == 2
        assert log == [(2.0, "early"), (5.0, "late")]
        assert network.now == 10.0

    def test_ties_break_by_send_order(self):
        network = SimulatedNetwork(latency=ScriptedLatency(2.0, 1.0, 1.0, 1.0))
        log = []
        _recorder(network, "bob", log)
        network.send("alice", "bob", "first")
        network.deliver_until(1.0)
        # Sent later with a shorter delay: due at the same 2.0, after "first".
        for payload in ("second", "third", "fourth"):
            network.send("alice", "bob", payload)
        network.deliver_until(2.0)
        assert log == [
            (2.0, "first"), (2.0, "second"), (2.0, "third"), (2.0, "fourth"),
        ]

    def test_horizon_is_inclusive(self):
        network = SimulatedNetwork(latency=ScriptedLatency(1.0, 5.0, 5.0 + 1e-9))
        log = []
        _recorder(network, "bob", log)
        for payload in ("a", "b", "c"):
            network.send("alice", "bob", payload)
        assert network.deliver_until(5.0) == 2
        assert log == [(1.0, "a"), (5.0, "b")]
        assert network.now == 5.0
        assert network.pending == 1

    def test_zero_delay_resend_at_horizon_fires_in_the_same_call(self):
        network = SimulatedNetwork(latency=ScriptedLatency(4.0, 0.0, 0.5))
        log = []

        def relay(message):
            network.send("bob", "carol", "chained-at-horizon")
            network.send("bob", "carol", "beyond")

        _recorder(network, "bob", log, on_message=relay)
        _recorder(network, "carol", log)
        network.send("alice", "bob", "first")
        assert network.deliver_until(4.0) == 2
        assert log == [(4.0, "first"), (4.0, "chained-at-horizon")]
        assert network.pending == 1
        network.deliver_until(4.5)
        assert log[-1] == (4.5, "beyond")

    def test_handlers_send_replies_that_arrive_later(self):
        network = SimulatedNetwork(latency=FixedLatency(1.0))
        log = []
        _recorder(
            network, "bob", log,
            on_message=lambda message: network.send("bob", "alice", "reply"),
        )
        _recorder(network, "alice", log)
        network.send("alice", "bob", "request")
        network.deliver_until(10.0)
        assert log == [(1.0, "request"), (2.0, "reply")]

    def test_back_to_back_horizons_are_seamless(self):
        network = SimulatedNetwork(latency=FixedLatency(1.0))
        log = []
        # A ping that re-sends itself on every delivery: one per time unit.
        _recorder(
            network, "bob", log,
            on_message=lambda message: network.send("bob", "bob", "ping"),
        )
        network.send("bob", "bob", "ping")
        network.deliver_until(3.0)
        assert [now for now, _ in log] == [1.0, 2.0, 3.0]
        network.deliver_until(5.0)
        assert [now for now, _ in log] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert network.pending == 1

    def test_horizon_in_the_past_rejected(self):
        network = SimulatedNetwork()
        network.deliver_until(2.0)
        with pytest.raises(SimulationError):
            network.deliver_until(1.0)
        assert network.now == 2.0

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, horizon):
        network = SimulatedNetwork(latency=FixedLatency(1.0))
        network.register("bob", lambda message: None)
        network.send("alice", "bob", "x")
        with pytest.raises(SimulationError):
            network.deliver_until(horizon)
        # Nothing was delivered and the clock did not move.
        assert network.now == 0.0
        assert network.pending == 1
        assert network.counters.delivered == 0

    def test_clock_advances_when_the_queue_is_empty(self):
        network = SimulatedNetwork()
        assert network.deliver_until(7.0) == 0
        assert network.now == 7.0

    def test_messages_are_stamped_with_the_send_time(self):
        network = SimulatedNetwork(latency=FixedLatency(1.5))
        received = []
        network.register("bob", received.append)
        network.deliver_until(3.0)
        network.send("alice", "bob", "x", kind="probe")
        network.deliver_until(4.5)
        (message,) = received
        assert message.sent_at == 3.0
        assert message.kind == "probe"
        assert network.counters.total_latency == 1.5

    def test_fault_predicate_sees_the_network_clock(self):
        seen = []

        def fault(sender, recipient, now):
            seen.append(now)
            return False

        network = SimulatedNetwork(fault=fault)
        network.register("bob", lambda message: None)
        network.send("alice", "bob", "x")
        network.deliver_until(2.5)
        network.send("alice", "bob", "y")
        assert seen == [0.0, 2.5]

    def test_recipient_gone_at_delivery_is_undeliverable(self):
        network = SimulatedNetwork(latency=FixedLatency(1.0))
        network.register("bob", lambda message: pytest.fail("delivered"))
        network.send("alice", "bob", "x")
        network.unregister("bob")
        assert network.deliver_until(1.0) == 1
        counters = network.counters
        assert (counters.delivered, counters.undeliverable) == (0, 1)
        assert counters.in_flight == network.pending == 0

    def test_pending_equals_in_flight(self):
        network = SimulatedNetwork(
            latency=ExponentialLatency(mean=2.0, minimum=0.0),
            loss_probability=0.3,
            rng=random.Random(5),
        )
        network.register("bob", lambda message: None)
        for tick in range(1, 9):
            for _ in range(20):
                network.send("alice", "bob", "x")
                network.send("alice", "ghost", "x")
            network.deliver_until(float(tick))
            assert network.pending == network.counters.in_flight
        assert network.pending > 0

    @pytest.mark.parametrize("delay", [-1.0, math.nan])
    def test_invalid_sampled_latency_rejected(self, delay):
        network = SimulatedNetwork(latency=ScriptedLatency(delay))
        network.register("bob", lambda message: None)
        with pytest.raises(SimulationError):
            network.send("alice", "bob", "x")
        assert network.pending == 0
