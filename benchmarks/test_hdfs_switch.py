"""Benchmark: §VII-B — HDFS write/read across a live disk switch."""

from repro.experiments import EXPERIMENTS


def test_hdfs_switch(benchmark):
    outcome = benchmark.pedantic(
        EXPERIMENTS.get("hdfs_switch").run, rounds=1, iterations=1
    )
    result = outcome.raw
    print()
    print(outcome.render())
    assert all(result["anchors"].values()), result["anchors"]
