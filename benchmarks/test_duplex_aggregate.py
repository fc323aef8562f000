"""Benchmark: §VII-A duplex throughput (540 MB/s port, 2160 MB/s total)."""

from repro.experiments import EXPERIMENTS


def test_duplex_aggregate(benchmark):
    outcome = benchmark(EXPERIMENTS.get("duplex").run)
    result = outcome.raw
    print()
    print(outcome.render())
    assert abs(result["per_port_mb_s"] - 540.0) < 6.0
    assert abs(result["aggregate_mb_s"] - 2160.0) < 25.0
