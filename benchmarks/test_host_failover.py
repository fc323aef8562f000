"""Benchmark: §I — single-host failure recovery (paper: 5.8 s)."""

from repro.experiments import EXPERIMENTS


def test_host_failover(benchmark):
    outcome = benchmark.pedantic(
        lambda: EXPERIMENTS.get("host_failover").run(repetitions=2),
        rounds=1,
        iterations=1,
    )
    print()
    print(outcome.render())
    assert outcome.anchors_ok, outcome.anchors
