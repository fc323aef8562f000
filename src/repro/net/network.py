"""A simulated data-center network.

Message passing with configurable latency and (optional) per-message
serialization delay.  Nodes are addressed by name; a crashed node
silently drops traffic in both directions, and explicit partitions can
sever pairs of nodes — enough to exercise heartbeat loss, failover and
remount behaviour in the management stack.

Payloads are dicts tagged with a ``kind``.  Each node registers one
receiver per kind, and delivery calls it directly with the
:class:`Message`; there is no mailbox in between.  A message whose
destination has no receiver for its kind is dropped and counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.sim import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["Message", "NetNode", "Network"]


@dataclass(frozen=True)
class Message:
    src: str
    dst: str
    payload: Any
    size: int = 0
    sent_at: float = 0.0

    @property
    def kind(self) -> Optional[str]:
        """The payload's ``kind`` tag (None for an untagged payload)."""
        payload = self.payload
        return payload.get("kind") if isinstance(payload, dict) else None


#: Called with each delivered message of the kind it is registered for.
Receiver = Callable[[Message], None]


class NetNode:
    """One addressable endpoint with one receiver per message kind."""

    def __init__(self, address: str):
        self.address = address
        self.receivers: Dict[str, Receiver] = {}
        self.alive = True


class Network:
    """Connects nodes; delivers messages with latency."""

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[RngRegistry] = None,
        latency: float = 0.2e-3,
        jitter: float = 0.05e-3,
        bandwidth: float = 1.25e8,  # 1 GbE payload bytes/s
    ):
        self.sim = sim
        self.latency = latency
        self.jitter = jitter
        self.bandwidth = bandwidth
        self._rng = (rng or RngRegistry(0)).stream("network")
        self._nodes: Dict[str, NetNode] = {}
        self._partitions: Set[Tuple[str, str]] = set()
        self.delivered_count = 0
        self.dropped_count = 0
        self.bytes_carried = 0

    # -- membership ------------------------------------------------------

    def add_node(self, address: str) -> NetNode:
        if address in self._nodes:
            raise ValueError(f"duplicate network address {address!r}")
        node = NetNode(address)
        self._nodes[address] = node
        return node

    def node(self, address: str) -> NetNode:
        return self._nodes[address]

    def attach(self, address: str, kind: str, receiver: Receiver) -> NetNode:
        """Deliver every ``kind`` message sent to ``address`` to
        ``receiver``, adding the node if it is new; one receiver per kind."""
        node = self._nodes.get(address) or self.add_node(address)
        if kind in node.receivers:
            raise ValueError(f"{address!r} already has a receiver for {kind!r}")
        node.receivers[kind] = receiver
        return node

    def __contains__(self, address: str) -> bool:
        return address in self._nodes

    def set_alive(self, address: str, alive: bool) -> None:
        self._nodes[address].alive = alive

    def is_alive(self, address: str) -> bool:
        return address in self._nodes and self._nodes[address].alive

    # -- partitions -----------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Block traffic between ``a`` and ``b`` (both directions)."""
        self._partitions.add((min(a, b), max(a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard((min(a, b), max(a, b)))

    def heal_all(self) -> None:
        self._partitions.clear()

    def _blocked(self, a: str, b: str) -> bool:
        return (min(a, b), max(a, b)) in self._partitions

    # -- transmission ------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, size: int = 256) -> None:
        """Fire-and-forget message; dropped if either side is down."""
        if src not in self._nodes:
            raise ValueError(f"unknown sender {src!r}")
        if dst not in self._nodes:
            self.dropped_count += 1
            return
        if not self._nodes[src].alive:
            self.dropped_count += 1
            return
        message = Message(src=src, dst=dst, payload=payload, size=size, sent_at=self.sim.now)
        delay = self.latency + size / self.bandwidth
        if self.jitter > 0:
            delay += self._rng.uniform(0, self.jitter)
        if self._blocked(src, dst):
            self.dropped_count += 1
            return
        self.sim.defer(delay, partial(self._deliver, message))

    def _deliver(self, message: Message) -> None:
        # A sender that died mid-flight still delivers: the packet is
        # already on the wire (TCP would too).
        node = self._nodes[message.dst]
        receiver = node.receivers.get(message.kind)
        if receiver is None or not node.alive or self._blocked(message.src, message.dst):
            self.dropped_count += 1
            return
        self.delivered_count += 1
        self.bytes_carried += message.size
        receiver(message)
