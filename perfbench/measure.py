"""Statistics, fingerprints, the host-speed calibration loop and the
reference loop that host times are scaled by.

Nothing here imports ``repro``: the calibration and reference loops in
particular must not run simulator code, so a faster kernel cannot make
the host look faster.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import statistics
import time
from typing import Any, Dict, List, Sequence

#: Percentiles a tail may be reported at, lowest first.  A rung that
#: barely clears the ten-sample rule is a noisy estimate, so the ladder
#: stops at p99.  Each workload's sample counts are fixed or far from a
#: rung's threshold (100 samples for p90, 1000 for p99), so the rung a
#: workload reports at does not change from seed to seed.
TAIL_LADDER = (50.0, 90.0, 99.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile (no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil((q / 100.0) * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Falls back to the median when there are too few samples for any
    rung; the chosen percentile and the sample count are returned
    beside the value.
    """
    n = len(values)
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n - math.ceil((q / 100.0) * n) >= TAIL_MIN_BEYOND:
            chosen = q
    return {"value": percentile(values, chosen), "percentile": chosen, "samples": n}


def digest(value: Any) -> str:
    """SHA-256 of canonical JSON: sorted keys, exact float reprs."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _calibration_kernel(rounds: int) -> int:
    """A fixed mix of the interpreter work a simulator does: integer
    arithmetic, tuple building, dict and list traffic, method calls."""
    table: Dict[int, int] = {}
    queue: List[tuple] = []
    acc = 0
    for i in range(rounds):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        queue.append((key, i))
        if len(queue) > 64:
            k, v = queue.pop(0)
            acc ^= table[k] + v
    return acc


def calibrate(repeats: int = 5, rounds: int = 200_000) -> float:
    """Median process-CPU seconds of the fixed calibration loop."""
    samples = []
    for _ in range(repeats):
        start = time.process_time()
        _calibration_kernel(rounds)
        samples.append(time.process_time() - start)
    return statistics.median(samples)


#: Events one reference measurement pops.
REFERENCE_EVENTS = 30_000
#: Reference-loop CPU seconds that define the reference host speed:
#: about what ``reference()`` takes on an idle 2-vCPU development VM.
REFERENCE_SECONDS = 0.04


def _reference_kernel(events: int) -> int:
    """A fixed pure-Python event loop shaped like the simulator's: a
    heap of ``(time, seq, process)`` tuples whose processes are
    generators, with a dict updated per event."""
    heap: List[tuple] = []
    counts: Dict[int, int] = {}

    def process(pid: int):
        now = 0.0
        while True:
            now += ((pid * 7919 + int(now * 13)) % 97) / 10.0 + 0.1
            counts[pid] = counts.get(pid, 0) + 1
            yield now

    processes = [process(pid) for pid in range(512)]
    seq = 0
    for pid, proc in enumerate(processes):
        heapq.heappush(heap, (next(proc), seq, pid))
        seq += 1
    for _ in range(events):
        _, _, pid = heapq.heappop(heap)
        heapq.heappush(heap, (next(processes[pid]), seq, pid))
        seq += 1
    return len(counts)


def reference(repeats: int = 4) -> float:
    """Mean process-CPU seconds of the reference loop, right now.

    The host's speed flickers within a second; the mean, unlike the
    median, follows the average speed that a longer run sees.
    """
    start = time.process_time()
    for _ in range(repeats):
        _reference_kernel(REFERENCE_EVENTS)
    return (time.process_time() - start) / repeats
