"""Benchmark: regenerate Table II (single-disk throughput, §VII-A)."""

from repro.experiments import EXPERIMENTS


def test_table2_single_disk(benchmark):
    outcome = benchmark(EXPERIMENTS.get("table2").run)
    result = outcome.raw
    print()
    print(outcome.render())
    assert len(result["rows"]) == 36
    assert result["worst_error"] <= 0.12
