"""Benchmark: reliability extensions (availability, rebuild, scrubbing)."""

from repro.experiments import EXPERIMENTS


def test_reliability_extensions(benchmark):
    outcome = benchmark.pedantic(
        EXPERIMENTS.get("reliability").run, rounds=1, iterations=1
    )
    result = outcome.raw
    print()
    print(outcome.render())
    assert all(result["anchors"].values()), result["anchors"]
