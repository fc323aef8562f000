"""Whole-deployment power metering.

Samples instantaneous power of a running deployment (disks in their
current spin states, the fabric with its power gating, fans, host
adapters, PSU loss) into a time series for energy integration.

With an :class:`~repro.obs.energy.EnergyLedger` armed, every sample is
also decomposed into attributable wall-watt rows — per-disk
active/spin-up/idle/standby (each divided by PSU efficiency so the
books are in wall joules) plus an ``overhead`` row defined as the
*exact residual* against the sampled wall figure — so the ledger's
accounts sum to the meter's energy integral by construction (the
conservation identity of DESIGN §15).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.cluster.deployment import Deployment
from repro.disk.states import DiskPowerState
from repro.fabric.power import FabricPowerModel
from repro.obs.energy import (
    ACCOUNT_IDLE,
    ACCOUNT_OVERHEAD,
    EnergyLedger,
    EnergyRow,
    tenant_account,
)
from repro.power.systems import (
    FAN_COUNT,
    FAN_POWER,
    PSU_EFFICIENCY,
    USB_HOST_ADAPTER_COUNT,
    USB_HOST_ADAPTER_POWER,
)
from repro.sim import Event
from repro.units import Joules, SimSeconds, Watts

__all__ = ["PowerMeter", "TimeSeries"]


class TimeSeries:
    """(time, value) samples of a step function."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[float] = []

    def sample(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def time_weighted_mean(self, end_time: Optional[float] = None) -> float:
        """Mean of the step function the samples define."""
        if not self.values:
            return 0.0
        if len(self.values) == 1:
            return self.values[0]
        end = end_time if end_time is not None else self.times[-1]
        total = 0.0
        duration = 0.0
        for i in range(len(self.values)):
            t0 = self.times[i]
            t1 = self.times[i + 1] if i + 1 < len(self.times) else end
            span = max(0.0, t1 - t0)
            total += self.values[i] * span
            duration += span
        return total / duration if duration > 0 else self.values[-1]


class PowerMeter:
    """Periodic power sampling over a deployment."""

    def __init__(
        self,
        deployment: Deployment,
        interval: SimSeconds = SimSeconds(1.0),
        ledger: Optional[EnergyLedger] = None,
    ):
        self.deployment = deployment
        self.interval = interval
        self.series = TimeSeries()
        self.fabric_model = FabricPowerModel(deployment.fabric)
        self.ledger = ledger
        self._process = None
        # Track relay state by subscription (one initial sync, then a
        # callback per flip) instead of re-deriving the whole gating map
        # from the relay bank on every sample.
        for disk_id, powered in deployment.relays.closed.items():
            self._apply_relay(disk_id, powered)
        deployment.relays.add_listener(self._apply_relay)
        if ledger is not None:
            # Spin-up blame events, at exact sim time with owning trace.
            for disk_id in sorted(deployment.disks):
                deployment.disks[disk_id].add_spin_up_listener(
                    ledger.on_spin_up
                )

    def _apply_relay(self, disk_id: str, powered: bool) -> None:
        """Mirror one relay flip into the fabric power-gating model."""
        self.fabric_model.powered[disk_id] = powered
        bridge = f"bridge{disk_id[len('disk'):]}"
        if bridge in self.fabric_model.powered:
            self.fabric_model.powered[bridge] = powered

    def instantaneous_watts(self) -> Watts:
        """Wall power right now."""
        disks = sum(
            disk.power_draw(disk.default_power_profile())
            for disk in self.deployment.disks.values()
        )
        dc_total = (
            disks
            + self.fabric_model.total_power()
            + FAN_POWER * FAN_COUNT
            + USB_HOST_ADAPTER_POWER * USB_HOST_ADAPTER_COUNT
        )
        return Watts(dc_total / PSU_EFFICIENCY)

    def _sample(self, now: float) -> None:
        wall = self.instantaneous_watts()
        self.series.sample(now, wall)
        if self.ledger is not None:
            self.ledger.record_sample(now, self._attribute(wall))

    def _attribute(self, wall: Watts) -> List[EnergyRow]:
        """Split one sampled wall figure into attributable rows.

        Disk rows carry the ownership stamps the disk layer maintains
        from the trace threading; the final ``overhead`` row is the
        exact residual ``wall - sum(disk rows)``, so the rows always
        sum back to ``wall`` up to float reassociation.
        """
        rows: List[EnergyRow] = []
        attributed = 0.0
        for disk_id, disk in self.deployment.disks.items():
            state = disk.states.state
            if state is DiskPowerState.POWERED_OFF:
                continue
            watts = (
                disk.power_draw(disk.default_power_profile()) / PSU_EFFICIENCY
            )
            if watts == 0.0:
                continue
            if state is DiskPowerState.ACTIVE:
                owner = disk.busy_owner
                bucket = "active"
            elif state is DiskPowerState.SPINNING_UP:
                owner = disk.spinup_owner
                bucket = "spinup"
            else:
                owner = None
                bucket = "idle" if state is DiskPowerState.IDLE else "standby"
            if bucket in ("active", "spinup"):
                account = tenant_account(owner[0] if owner else None)
                trace_id = owner[1] if owner is not None else -1
            else:
                account = ACCOUNT_IDLE
                trace_id = -1
            rows.append(EnergyRow(account, disk_id, bucket, trace_id, Watts(watts)))
            attributed += watts
        rows.append(
            EnergyRow(
                ACCOUNT_OVERHEAD,
                "",
                "overhead",
                -1,
                Watts(wall - attributed),
            )
        )
        return rows

    def start(self) -> None:
        if self._process is not None:
            return
        sim = self.deployment.sim

        def loop() -> Generator[Event, None, None]:
            while True:
                self._sample(sim.now)
                yield sim.timeout(self.interval)

        self._process = sim.process(loop())

    def energy_joules(self, end_time: Optional[SimSeconds] = None) -> Joules:
        end = end_time if end_time is not None else self.deployment.sim.now
        return Joules(
            self.series.time_weighted_mean(end)
            * (end - (self.series.times[0] if self.series.times else 0.0))
        )
