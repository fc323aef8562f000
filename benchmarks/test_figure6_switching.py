"""Benchmark: regenerate Figure 6 (switching time decomposition)."""

from repro.experiments import EXPERIMENTS


def test_figure6_switching(benchmark):
    # One repetition per disk count keeps the bench quick; the full
    # paper sweep is ``repro run figure6`` with the defaults.
    outcome = benchmark.pedantic(
        lambda: EXPERIMENTS.get("figure6").run(repetitions=1),
        rounds=1,
        iterations=1,
    )
    print()
    print(outcome.render())
    assert outcome.anchors_ok, outcome.anchors
