"""Benchmark: regenerate Table III (one-disk power, §VII-C)."""

from repro.experiments import EXPERIMENTS


def test_table3_disk_power(benchmark):
    outcome = benchmark(EXPERIMENTS.get("table3").run)
    result = outcome.raw
    print()
    print(outcome.render())
    sata = result["measured"]["SATA"]
    usb = result["measured"]["USB bridge"]
    assert abs(sata[1] - 4.71) < 0.01 and abs(usb[1] - 5.76) < 0.01
    assert abs(sata[2] - 6.66) < 0.01 and abs(usb[2] - 7.56) < 0.01
