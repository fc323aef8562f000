"""Benchmark: regenerate Table I (cost comparison, §VI)."""

from repro.experiments import EXPERIMENTS


def test_table1_cost(benchmark):
    outcome = benchmark(EXPERIMENTS.get("table1").run)
    result = outcome.raw
    print()
    print(outcome.render())
    assert len(result["rows"]) == 5
    assert abs(result["capex_saving_vs_backblaze"] - 0.24) < 0.03
    assert abs(result["attex_saving_vs_backblaze"] - 0.55) < 0.04
