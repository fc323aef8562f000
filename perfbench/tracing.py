"""Traced-run instrumentation, installed from outside the program.

Three sources feed the per-layer metrics of a traced run:

1. ``cProfile`` self time, folded by ``repro.<package>``
   (:func:`self_shares`); stdlib, builtins and the benchmark's own code
   go to ``other``.
2. Call and raise counters, and host-time spans, that
   :class:`Instrumentation` wraps around public entry points by
   patching their classes and modules for the duration of the run.
   A wrapped entry point that returns a generator gets one span per
   resume.  Spans are kept in memory as ``(name, start, end, parent)``
   and written out as JSON when the run ends.
3. The program's own ``MetricsRegistry`` counters and
   ``CriticalPathAnalyzer`` phase totals, reached through the public
   ``metrics=`` / ``tracer=`` arguments (see ``run.py``).
"""

from __future__ import annotations

import inspect
import os
import pstats
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import cluster, gateway, shardstore, sim, tiering
from repro.fabric.bandwidth import AllocationSession, BandwidthModel
from repro.net.network import Network
from repro.net.rpc import RpcClient

#: Entry points that get host-time spans: (owner, attribute, span name).
SPANNED = (
    (cluster, "build_deployment", "cluster.build_deployment"),
    (cluster.Deployment, "settle", "cluster.Deployment.settle"),
    (cluster.Deployment, "crash_host", "cluster.Deployment.crash_host"),
    (cluster.Deployment, "new_client", "cluster.Deployment.new_client"),
    (cluster.ClientLib, "allocate", "cluster.ClientLib.allocate"),
    (cluster.ClientLib, "mount", "cluster.ClientLib.mount"),
    (cluster.MountedSpace, "read", "cluster.MountedSpace.read"),
    (cluster.MountedSpace, "write", "cluster.MountedSpace.write"),
    (cluster.MountedSpace, "readv", "cluster.MountedSpace.readv"),
    (gateway, "mount_gateway_spaces", "gateway.mount_gateway_spaces"),
    (gateway.Gateway, "attach", "gateway.Gateway.attach"),
    (gateway.Gateway, "start", "gateway.Gateway.start"),
    (gateway.Gateway, "submit_op", "gateway.Gateway.submit_op"),
    (gateway.OpenLoopTrafficGenerator, "start", "gateway.OpenLoopTrafficGenerator.start"),
    (shardstore.ShardStore, "put", "shardstore.ShardStore.put"),
    (shardstore.ShardStore, "get", "shardstore.ShardStore.get"),
    (shardstore.ShardStore, "flush_shard", "shardstore.ShardStore.flush_shard"),
    (tiering.TieredStore, "write", "tiering.TieredStore.write"),
    (tiering.TieredStore, "take_demotion_batch", "tiering.TieredStore.take_demotion_batch"),
    (tiering.MigrationOrchestrator, "start", "tiering.MigrationOrchestrator.start"),
    (sim.Simulator, "run", "sim.Simulator.run"),
    (sim.Simulator, "run_until_event", "sim.Simulator.run_until_event"),
)

#: Hot entry points that only get call and raise counters.
COUNTED = (
    (sim.Simulator, "process", "sim.processes"),
    (sim.Simulator, "timeout", "sim.timeouts"),
    (Network, "send", "net.messages"),
    (BandwidthModel, "allocate", "fabric.allocations"),
    (AllocationSession, "allocate", "fabric.allocations"),
)


class Instrumentation:
    """Counters and spans around public entry points, while installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.raises: Counter = Counter()
        self.rpc_calls: Counter = Counter()
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------

    def open_span(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        popped = self._stack.pop()
        assert popped == index, "span stack out of order"

    def _resumed(self, gen, name: str):
        """Re-yield ``gen`` with one span around each resume."""
        send_value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            index = self.open_span(name)
            try:
                if thrown is None:
                    item = gen.send(send_value)
                else:
                    item = gen.throw(thrown)
            except StopIteration as stop:
                return stop.value
            except BaseException as exc:
                self.raises[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                self.close_span(index)
            try:
                send_value = yield item
                thrown = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                send_value, thrown = None, exc

    def _spanned(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            index = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raises[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                self.close_span(index)
            if inspect.isgenerator(result):
                return self._resumed(result, name + ".resume")
            return result

        return wrapper

    # -- counters ---------------------------------------------------------

    def _counted(self, fn: Callable, name: str) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rpc_counted(self, fn: Callable) -> Callable:
        rpc_calls = self.rpc_calls
        raises = self.raises

        def counted_call(gen):
            try:
                return (yield from gen)
            except GeneratorExit:
                raise
            except BaseException as exc:
                raises[f"RpcClient.call:{type(exc).__name__}"] += 1
                raise

        def wrapper(client, target, method, *args, **kwargs):
            rpc_calls[method] += 1
            return counted_call(fn(client, target, method, *args, **kwargs))

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Callable) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for owner, attribute, name in SPANNED:
            self._patch(owner, attribute, self._spanned(getattr(owner, attribute), name))
        for owner, attribute, name in COUNTED:
            self._patch(owner, attribute, self._counted(getattr(owner, attribute), name))
        self._patch(RpcClient, "call", self._rpc_counted(RpcClient.call))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -- export -------------------------------------------------------------

    def span_summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total host s, and self host s (total
        minus the part of each span its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        summary: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = summary.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return {name: summary[name] for name in sorted(summary)}

    def spans_as_dicts(self) -> List[Dict[str, Any]]:
        return [
            {"id": index, "name": name, "start": start, "end": end, "parent": parent}
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]


def package_of(filename: str, src_root: str) -> str:
    """``repro.<package>`` owning a source file, or ``other``."""
    prefix = os.path.join(src_root, "repro") + os.sep
    if not filename.startswith(prefix):
        return "other"
    head = filename[len(prefix):].split(os.sep)[0]
    return head[:-3] if head.endswith(".py") else head


def self_shares(profiler, src_root: str) -> Dict[str, float]:
    """cProfile self time by ``repro`` package; the shares sum to 1."""
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    totals: Dict[str, float] = {}
    for (filename, _, _), (_, _, self_time, _, _) in stats.items():
        package = package_of(filename, src_root)
        totals[package] = totals.get(package, 0.0) + self_time
    grand = sum(totals.values())
    return {name: totals[name] / grand for name in sorted(totals)} if grand else {}
