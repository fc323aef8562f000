"""Replay-determinism regression: same seeds => byte-identical runs.

Runs the figure5 and reliability experiments twice each through the
registry with the race detector armed and an :class:`EventDigest`
armed for every simulator they build.  The digests fold every
processed event's ``(time, priority, seq)`` into SHA-256, so equal
digests mean the kernels popped exactly the same events in exactly the
same order.  Results are also compared as result JSON to cover
value-level determinism.  figure5 settles each deployment
(``settle_seconds`` > 0) so its digest covers real kernel events rather
than the empty input of the closed-form default.
"""

from repro.experiments import EXPERIMENTS
from repro.sim import EventDigest, use_digest

#: The params ``repro check-determinism`` replays each experiment with.
PARAMS = {"figure5": {"settle_seconds": 12.0}, "reliability": {}}


def run_twice(name):
    digests, results = [], []
    for _ in range(2):
        digest = EventDigest()
        with use_digest(digest):
            results.append(
                EXPERIMENTS.get(name).run(detect_races=True, **PARAMS[name])
            )
        digests.append(digest)
    return digests, results


def test_figure5_replays_identically():
    digests, results = run_twice("figure5")
    assert digests[0].hexdigest() == digests[1].hexdigest()
    assert digests[0].events == digests[1].events
    assert digests[0].events > 0, "settled figure5 should process events"
    assert results[0].to_json() == results[1].to_json()


def test_figure5_reports_no_races():
    _, results = run_twice("figure5")
    assert results[0].raw["races"] == []


def test_reliability_replays_identically():
    digests, results = run_twice("reliability")
    assert digests[0].hexdigest() == digests[1].hexdigest()
    assert digests[0].events == digests[1].events
    assert digests[0].events > 0, "reliability should process events"
    assert results[0].to_json() == results[1].to_json()


def test_reliability_reports_no_races():
    _, results = run_twice("reliability")
    assert results[0].raw["races"] == []


def _deployment_digest(seed, interleave_seed=None, seconds=60.0, step=10.0):
    """Digest of a deployment settled for ``seconds``; with
    ``interleave_seed``, a second deployment is driven in alternation
    with it, ``step`` seconds at a time."""
    from repro.cluster import DeploymentConfig, build_deployment

    deployment = build_deployment(config=DeploymentConfig(seed=seed))
    digest = EventDigest().attach(deployment.sim)
    other = None
    if interleave_seed is not None:
        other = build_deployment(config=DeploymentConfig(seed=interleave_seed))
    while deployment.sim.now < seconds:
        deployment.settle(step)
        if other is not None:
            other.settle(step)
    return digest


def test_deployment_replays_identically_when_interleaved():
    # Two simulators in one process share no hidden state: driving a
    # second deployment in between leaves the first one's run unchanged.
    alone = _deployment_digest(5)
    interleaved = _deployment_digest(5, interleave_seed=6)
    assert interleaved.events == alone.events > 0
    assert interleaved.hexdigest() == alone.hexdigest()
