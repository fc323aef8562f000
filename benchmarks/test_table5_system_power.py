"""Benchmark: regenerate Table V (system power comparison, §VII-C)."""

from repro.experiments import EXPERIMENTS


def test_table5_system_power(benchmark):
    outcome = benchmark(EXPERIMENTS.get("table5").run)
    result = outcome.raw
    print()
    print(outcome.render())
    assert result["ordering_holds"]
    assert result["worst_error"] <= 0.15
