"""Benchmark: regenerate Table IV (hub power vs connected disks)."""

from repro.experiments import EXPERIMENTS


def test_table4_hub_power(benchmark):
    outcome = benchmark(EXPERIMENTS.get("table4").run)
    result = outcome.raw
    print()
    print(outcome.render())
    assert result["worst_error"] <= 0.05
