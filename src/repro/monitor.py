"""Deployment observability: status snapshots and a text dashboard.

Gives operators (and examples/tests) one call to see the whole system:
per-host attachment and exposure, disk power states, master/controller
health, fabric power, and client activity — the view a real UStore
operations console would render from SysConf + SysStat.

When the deployment was built with an armed :class:`repro.obs`
metrics registry, the snapshot additionally captures the registry's
dump and the dashboard renders a live-metrics section (event counts,
I/O counters, queue-depth percentiles).  Deployments without a
registry fall back to the pure state-walk view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.energy import ConservationAuditor

from repro.cluster.deployment import Deployment
from repro.cluster.multiunit import DeployUnit, MultiUnitDeployment
from repro.fabric.power import FabricPowerModel

__all__ = ["DeploymentSnapshot", "snapshot", "render_dashboard"]


@dataclass
class UnitSnapshot:
    unit_id: str
    disks_per_host: Dict[str, List[str]] = field(default_factory=dict)
    detached_disks: List[str] = field(default_factory=list)
    disk_states: Dict[str, str] = field(default_factory=dict)
    exposed_targets: Dict[str, int] = field(default_factory=dict)
    fabric_watts: float = 0.0
    switch_turns_total: int = 0
    failed_components: List[str] = field(default_factory=list)


@dataclass
class DeploymentSnapshot:
    time: float
    active_master: Optional[str]
    coord_leader: Optional[str]
    units: Dict[str, UnitSnapshot] = field(default_factory=dict)
    spaces_allocated: int = 0
    failovers_completed: int = 0
    #: ``MetricsRegistry.dump()`` of the deployment's registry, or
    #: ``None`` when metrics were not armed (NULL_REGISTRY).
    metrics: Optional[Dict] = None
    #: Critical-path aggregate over the tracer's completed request
    #: traces, or ``None`` when tracing was not armed (NULL_TRACER).
    trace_breakdown: Optional[Dict] = None
    #: Energy-ledger view — conservation identity plus per-account
    #: joules — or ``None`` when no auditor was passed to ``snapshot``.
    energy: Optional[Dict] = None


def _unit_snapshot(unit_id: str, fabric, disks, endpoints) -> UnitSnapshot:
    snap = UnitSnapshot(unit_id=unit_id)
    attachment = fabric.attachment_map()
    for host in fabric.hosts():
        snap.disks_per_host[host] = sorted(
            d for d, h in attachment.items() if h == host
        )
    snap.detached_disks = sorted(d for d, h in attachment.items() if h is None)
    snap.disk_states = {
        disk_id: disk.power_state.value for disk_id, disk in sorted(disks.items())
    }
    for host, endpoint in endpoints.items():
        snap.exposed_targets[host] = len(endpoint.targets.exposed_targets())
    snap.fabric_watts = FabricPowerModel(fabric).total_power()
    snap.switch_turns_total = sum(s.turn_count for s in fabric.switches)
    snap.failed_components = sorted(
        node_id for node_id, node in fabric.nodes.items() if node.failed
    )
    return snap


def snapshot(
    deployment: Union[Deployment, MultiUnitDeployment],
    energy: Optional["ConservationAuditor"] = None,
) -> DeploymentSnapshot:
    """Collect the current state of a (single- or multi-unit) deployment.

    When ``energy`` names a :class:`repro.obs.ConservationAuditor`, the
    snapshot also audits its ledger at the current sim time and carries
    the identity plus the per-account joule books.
    """
    from repro.coord import Role

    master = deployment.active_master()
    leader = None
    for replica in deployment.coord_replicas:
        if replica.role is Role.LEADER and not replica.crashed:
            leader = replica.address
    snap = DeploymentSnapshot(
        time=deployment.sim.now,
        active_master=master.address if master else None,
        coord_leader=leader,
        spaces_allocated=len(master.records) if master else 0,
        failovers_completed=master.failovers_completed if master else 0,
        metrics=(
            deployment.sim.metrics.dump()
            if deployment.sim.metrics.enabled
            else None
        ),
    )
    tracer = deployment.sim.tracer
    if tracer.enabled:
        from repro.obs import CriticalPathAnalyzer

        requests = [ctx for ctx in tracer.completed if ctx.kind == "request"]
        snap.trace_breakdown = CriticalPathAnalyzer().aggregate(requests)
    if energy is not None:
        snap.energy = {
            "identity": energy.audit(deployment.sim.now),
            "accounts": energy.ledger.account_joules(),
        }
    if isinstance(deployment, MultiUnitDeployment):
        for unit_id, unit in deployment.units.items():
            snap.units[unit_id] = _unit_snapshot(
                unit_id, unit.fabric, unit.disks, unit.endpoints
            )
    else:
        snap.units["unit0"] = _unit_snapshot(
            "unit0", deployment.fabric, deployment.disks, deployment.endpoints
        )
    return snap


def render_dashboard(snap: DeploymentSnapshot) -> str:
    """Operator-console style text rendering of a snapshot."""
    lines = [
        f"UStore status @ t={snap.time:.1f}s",
        f"  master: {snap.active_master or 'NONE'}   "
        f"coordination leader: {snap.coord_leader or 'NONE'}",
        f"  spaces allocated: {snap.spaces_allocated}   "
        f"failovers completed: {snap.failovers_completed}",
    ]
    for unit in snap.units.values():
        lines.append(f"  [{unit.unit_id}]  fabric {unit.fabric_watts:.1f} W, "
                     f"{unit.switch_turns_total} switch turns")
        for host, disks in unit.disks_per_host.items():
            exposed = unit.exposed_targets.get(host, 0)
            spun_down = sum(
                1 for d in disks if unit.disk_states.get(d) == "spun_down"
            )
            lines.append(
                f"    {host:<16} {len(disks):>2} disks "
                f"({spun_down} spun down), {exposed} targets: "
                f"{', '.join(disks) if disks else '-'}"
            )
        if unit.detached_disks:
            lines.append(f"    DETACHED: {', '.join(unit.detached_disks)}")
        if unit.failed_components:
            lines.append(f"    FAILED: {', '.join(unit.failed_components)}")
    if snap.metrics is not None:
        lines.extend(_render_metrics(snap.metrics))
    if snap.trace_breakdown is not None:
        lines.extend(_render_breakdown(snap.trace_breakdown))
    if snap.energy is not None:
        lines.extend(_render_energy(snap.energy))
    return "\n".join(lines)


#: Counters worth a dashboard line, in display order.
_DASHBOARD_COUNTERS = (
    "sim.events",
    "disk.ios",
    "disk.spin_ups",
    "iscsi.ios",
    "master.heartbeats",
    "master.failovers",
    "switch.turns",
    "controller.commands",
)


def _render_breakdown(aggregate: Dict) -> List[str]:
    """Latency-attribution section, fed by the request tracer."""
    lines = [
        f"  latency attribution ({aggregate['traces']} traced requests, "
        f"{aggregate['identity_failures']} identity failures):"
    ]
    shares = aggregate.get("shares", {})
    for component in sorted(shares, key=lambda c: (-shares[c], c)):
        share = shares[component]
        if share <= 0.0:
            continue
        bar = "#" * int(round(share * 40))
        lines.append(f"    {component:<20} {share:7.2%} {bar}")
    return lines


def _render_energy(energy: Dict) -> List[str]:
    """Energy-attribution section, fed by the conservation auditor."""
    identity = energy["identity"]
    wall = identity["wall_joules"]
    lines = [
        f"  energy attribution (wall {wall:.1f} J, "
        f"residual {identity['residual']:.9f} J, "
        f"{'conserved' if identity['conserved'] else 'IDENTITY VIOLATED'}):"
    ]
    accounts = energy["accounts"]
    for account in sorted(accounts, key=lambda a: (-accounts[a], a)):
        joules = accounts[account]
        share = joules / wall if wall else 0.0
        bar = "#" * int(round(share * 40))
        lines.append(f"    {account:<20} {joules:10.1f} J {share:7.2%} {bar}")
    return lines


def _render_metrics(dump: Dict) -> List[str]:
    """Live-metrics section of the dashboard, fed by the obs registry."""
    lines = ["  metrics (sim-time registry):"]
    counters = dump.get("counters", {})
    shown = [name for name in _DASHBOARD_COUNTERS if name in counters]
    for name in shown:
        lines.append(f"    {name:<24} {counters[name]:>12.0f}")
    for name in sorted(counters):
        if name not in shown:
            lines.append(f"    {name:<24} {counters[name]:>12.0f}")
    for name, hist in sorted(dump.get("histograms", {}).items()):
        if not hist.get("count"):
            continue
        lines.append(
            f"    {name:<24} n={hist['count']:.0f} "
            f"p50={hist['p50']:.4g} p95={hist['p95']:.4g} max={hist['max']:.4g}"
        )
    return lines
