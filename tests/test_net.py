"""Tests for the simulated network, RPC and iSCSI layers."""

import pytest

from repro.disk import SimulatedDisk
from repro.net import (
    IscsiInitiator,
    IscsiTargetServer,
    Network,
    RemoteError,
    RpcClient,
    RpcServer,
    RpcTimeout,
    SessionError,
    StorageVolume,
)
from repro.sim import Interrupt, Simulator
from repro.workload import KB, MB


def make_net():
    sim = Simulator()
    return sim, Network(sim, jitter=0.0)


def collect(sim, net, address, kind="test"):
    """Attach a receiver for ``kind`` at ``address``; returns the list of
    ``(delivery time, message)`` pairs it records."""
    received = []
    net.attach(address, kind, lambda message: received.append((sim.now, message)))
    return received


def tagged(body):
    return {"kind": "test", "body": body}


class TestNetwork:
    def test_delivery_with_latency(self):
        sim, net = make_net()
        net.add_node("a")
        received = collect(sim, net, "b")
        net.send("a", "b", tagged("hello"), size=0)
        sim.run()
        [(when, message)] = received
        assert message.payload["body"] == "hello"
        assert (message.src, message.dst) == ("a", "b")
        assert when == pytest.approx(net.latency)

    def test_size_adds_serialization_delay(self):
        sim, net = make_net()
        net.add_node("a")
        received = collect(sim, net, "b")
        net.send("a", "b", tagged("big"), size=1_250_000)  # 10 ms at 1 GbE
        sim.run()
        [(when, _)] = received
        assert when == pytest.approx(net.latency + 0.01)

    def test_dead_receiver_drops(self):
        sim, net = make_net()
        net.add_node("a")
        received = collect(sim, net, "b")
        net.set_alive("b", False)
        net.send("a", "b", tagged("x"))
        sim.run()
        assert net.dropped_count == 1
        assert received == []

    def test_message_without_receiver_is_dropped_and_counted(self):
        sim, net = make_net()
        net.add_node("a")
        received = collect(sim, net, "b")
        net.send("a", "b", {"kind": "other"})
        net.send("a", "b", "untagged")
        sim.run()
        assert received == []
        assert net.dropped_count == 2
        assert net.delivered_count == 0

    def test_one_receiver_per_kind(self):
        sim, net = make_net()
        collect(sim, net, "b")
        with pytest.raises(ValueError):
            collect(sim, net, "b")
        collect(sim, net, "b", kind="other")  # a second kind is fine

    def test_dead_sender_drops(self):
        sim, net = make_net()
        net.add_node("a")
        net.add_node("b")
        net.set_alive("a", False)
        net.send("a", "b", "x")
        sim.run()
        assert net.dropped_count == 1

    def test_unknown_destination_drops(self):
        sim, net = make_net()
        net.add_node("a")
        net.send("a", "ghost", "x")
        assert net.dropped_count == 1

    def test_unknown_sender_raises(self):
        sim, net = make_net()
        with pytest.raises(ValueError):
            net.send("ghost", "a", "x")

    def test_partition_blocks_both_ways(self):
        sim, net = make_net()
        at_a = collect(sim, net, "a")
        at_b = collect(sim, net, "b")
        net.partition("a", "b")
        net.send("a", "b", tagged("x"))
        net.send("b", "a", tagged("y"))
        sim.run()
        assert net.dropped_count == 2
        assert at_a == [] and at_b == []
        net.heal("a", "b")
        net.send("a", "b", tagged("z"))
        sim.run()
        assert net.delivered_count == 1
        assert [m.payload["body"] for _, m in at_b] == ["z"]

    def test_duplicate_address_rejected(self):
        _, net = make_net()
        net.add_node("a")
        with pytest.raises(ValueError):
            net.add_node("a")


class TestRpc:
    def test_basic_call(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        server.register("add", lambda a, b: a + b)
        client = RpcClient(sim, net, "client")
        result = sim.run_until_event(sim.process(client.call("server", "add", 2, 3)))
        assert result == 5

    def test_kwargs(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        server.register("greet", lambda name="world": f"hi {name}")
        client = RpcClient(sim, net, "client")
        result = sim.run_until_event(
            sim.process(client.call("server", "greet", name="ustore"))
        )
        assert result == "hi ustore"

    def test_generator_handler(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")

        def slow():
            yield sim.timeout(1.0)
            return "done"

        server.register("slow", slow)
        client = RpcClient(sim, net, "client")
        result = sim.run_until_event(sim.process(client.call("server", "slow")))
        assert result == "done"
        assert sim.now > 1.0

    def test_handler_interrupt_reaches_kernel_not_caller(self):
        # Regression: the dispatch loop once swallowed kernel Interrupts
        # in its broad handler and forwarded them as RPC errors.  A
        # teardown interrupt must propagate, not become a response.
        sim, net = make_net()
        server = RpcServer(sim, net, "server")

        def stuck():
            poke = sim.event()
            sim.call_in(0.5, lambda: poke.fail(Interrupt("teardown")))
            yield poke

        server.register("stuck", stuck)
        client = RpcClient(sim, net, "client")
        sim.process(client.call("server", "stuck", timeout=10.0))
        with pytest.raises(Interrupt):
            sim.run()
        assert server.requests_served == 0

    def test_remote_exception(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")

        def boom():
            raise ValueError("nope")

        server.register("boom", boom)
        client = RpcClient(sim, net, "client")
        with pytest.raises(RemoteError, match="nope"):
            sim.run_until_event(sim.process(client.call("server", "boom")))

    def test_unknown_method(self):
        sim, net = make_net()
        RpcServer(sim, net, "server")
        client = RpcClient(sim, net, "client")
        with pytest.raises(RemoteError, match="no such method"):
            sim.run_until_event(sim.process(client.call("server", "missing")))

    def test_timeout_on_dead_server(self):
        sim, net = make_net()
        RpcServer(sim, net, "server")
        net.set_alive("server", False)
        client = RpcClient(sim, net, "client")
        with pytest.raises(RpcTimeout):
            sim.run_until_event(
                sim.process(client.call("server", "x", timeout=1.0))
            )
        assert sim.now == pytest.approx(1.0)

    def test_abandoned_calls_never_raise_in_the_kernel(self):
        # A caller interrupted mid-call leaves its reply event behind;
        # a late error response or the deadline must settle it quietly
        # rather than surface at kernel level.
        sim, net = make_net()
        server = RpcServer(sim, net, "server")

        def fail_later():
            yield sim.timeout(1.0)
            raise ValueError("late")

        server.register("fail_later", fail_later)
        RpcServer(sim, net, "dead")
        net.set_alive("dead", False)
        client = RpcClient(sim, net, "client")

        def caller(target, timeout):
            try:
                yield from client.call(target, "fail_later", timeout=timeout)
            except Interrupt:
                return "gone"

        error_caller = sim.process(caller("server", 5.0))
        timeout_caller = sim.process(caller("dead", 2.0))
        sim.call_in(0.1, error_caller.interrupt)
        sim.call_in(0.1, timeout_caller.interrupt)
        assert sim.run() == pytest.approx(5.0)
        assert error_caller.value == timeout_caller.value == "gone"
        assert server.requests_served == 1

    def test_duplicate_handler_rejected(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        server.register("m", lambda: 1)
        with pytest.raises(ValueError):
            server.register("m", lambda: 2)

    def test_concurrent_calls(self):
        sim, net = make_net()
        server = RpcServer(sim, net, "server")
        server.register("echo", lambda x: x)
        client = RpcClient(sim, net, "client")
        procs = [sim.process(client.call("server", "echo", i)) for i in range(10)]
        results = sim.run_until_event(sim.all_of(procs))
        assert results == list(range(10))


class TestIscsi:
    def setup_stack(self):
        sim = Simulator()
        net = Network(sim, jitter=0.0)
        target = IscsiTargetServer(sim, net, "host0")
        disk = SimulatedDisk(sim, "disk0")
        target.expose("tgt-disk0", StorageVolume("vol0", disk, offset=0, length=100 * MB))
        initiator = IscsiInitiator(sim, net, "client0")
        return sim, net, target, disk, initiator

    def test_login_and_read(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            result = yield from session.read(0, 4 * MB)
            return result

        result = sim.run_until_event(sim.process(scenario()))
        assert result["ok"]
        assert disk.completed_ios == 1
        assert disk.bytes_read == 4 * MB

    def test_write(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            yield from session.write(0, 1 * MB)

        sim.run_until_event(sim.process(scenario()))
        assert disk.bytes_written == 1 * MB

    def test_login_missing_target(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            yield from initiator.login("host0", "no-such-target")

        with pytest.raises(SessionError):
            sim.run_until_event(sim.process(scenario()))

    def test_io_beyond_volume_rejected(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            yield from session.read(99 * MB, 4 * MB)

        with pytest.raises(SessionError):
            sim.run_until_event(sim.process(scenario()))

    def test_withdraw_breaks_session(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            target.withdraw("tgt-disk0")
            yield from session.read(0, 4 * KB)

        with pytest.raises(SessionError):
            sim.run_until_event(sim.process(scenario()))

    def test_host_death_times_out_session(self):
        sim, net, target, disk, initiator = self.setup_stack()
        initiator.io_timeout = 2.0

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            net.set_alive("host0", False)
            yield from session.read(0, 4 * KB)

        with pytest.raises(SessionError):
            sim.run_until_event(sim.process(scenario()))

    def test_logout(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            yield from session.logout()
            assert not session.connected

        sim.run_until_event(sim.process(scenario()))

    def test_session_after_logout_rejected(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            session = yield from initiator.login("host0", "tgt-disk0")
            yield from session.logout()
            yield from session.read(0, 4 * KB)

        with pytest.raises(SessionError):
            sim.run_until_event(sim.process(scenario()))

    def test_volume_translation(self):
        sim = Simulator()
        disk = SimulatedDisk(sim, "d")
        volume = StorageVolume("v", disk, offset=10 * MB, length=10 * MB)
        done = volume.submit(0, 4 * KB, is_read=True)
        sim.run_until_event(done)
        # The disk's sequential detector saw offset 10MB, not 0.
        assert disk._last_offset_end == 10 * MB + 4 * KB

    def test_double_expose_rejected(self):
        sim, net, target, disk, initiator = self.setup_stack()
        with pytest.raises(ValueError):
            target.expose("tgt-disk0", StorageVolume("v2", disk))

    def test_list_targets(self):
        sim, net, target, disk, initiator = self.setup_stack()

        def scenario():
            result = yield from initiator.rpc.call("host0", "iscsi.list_targets")
            return result

        assert sim.run_until_event(sim.process(scenario())) == ["tgt-disk0"]
