"""Benchmark: regenerate Figure 5 (multi-disk throughput scaling)."""

from repro.experiments import EXPERIMENTS


def test_figure5_scaling(benchmark):
    outcome = benchmark.pedantic(
        EXPERIMENTS.get("figure5").run, rounds=1, iterations=1
    )
    result = outcome.raw
    print()
    print(outcome.render())
    assert all(result["anchors"].values()), result["anchors"]
