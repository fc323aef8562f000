"""The four benchmark workloads, each a list of seeded trials.

A trial is one fresh deployment driven through the public APIs of
``repro.cluster``, ``repro.gateway``, ``repro.shardstore`` and
``repro.tiering``.  It has two phases, timed separately by the caller:

* ``setup(seed, metrics, tracer)`` -- build the deployment, settle the
  control plane, mount spaces and construct the gateway / store;
* ``drive(trial)`` -- offer the workload's open-loop arrivals, drain,
  and return a :class:`TrialResult` with every simulated outcome and
  the output checks that failed.

Arrival times are open-loop Poisson, drawn from the deployment's own
seeded RNG streams, so a trial is a pure function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import cluster, gateway as gateway_api
from repro.experiments.gateway_slo import TENANTS as GATEWAY_TENANTS
from repro.experiments.shardstore_small_objects import TENANT as SMALL_OBJECTS
from repro.experiments.tiering_staging import ARCHIVE, MIGRATION
from repro.gateway import (
    Gateway,
    GatewayConfig,
    ObjectRef,
    OpenLoopTrafficGenerator,
    ReadObject,
    RequestState,
)
from repro.net.rpc import RemoteError
from repro.shardstore import ObjectState, ShardStore, ShardStoreConfig
from repro.tiering import (
    MigrationOrchestrator,
    TieredStore,
    TieringConfig,
    pinned_disks_for,
)
from repro.units import MiB
from repro.workload.specs import KB, MB

SETTLE_SECONDS = 15.0
SPACE_BYTES = 64 * MB
DRAIN_STEP_SECONDS = 5.0
DRAIN_CAP_SECONDS = 900.0
#: A deployment that crashes while booting is rebuilt from the seed
#: plus this stride, at most BOOT_ATTEMPTS times.
BOOT_RETRY_STRIDE = 10**9
BOOT_ATTEMPTS = 5


@dataclass
class TrialResult:
    """Simulated outcomes of one trial (host time is measured outside)."""

    #: User-level operations attempted, and those that failed or were
    #: refused.  Check violations are listed in ``violations``.
    attempted: int = 0
    failed: int = 0
    read_latencies: List[float] = field(default_factory=list)
    write_latencies: List[float] = field(default_factory=list)
    #: Ops that missed their SLO; a failed or refused op counts as a
    #: miss.  (host_failover trials have no SLO.)
    slo_missed: int = 0
    spin_ups: int = 0
    energy_j: float = 0.0
    recovery_s: List[float] = field(default_factory=list)
    user_bytes_written: int = 0
    violations: List[str] = field(default_factory=list)
    #: Layer counts read from public objects (gateway, stores, spaces).
    counts: Dict[str, float] = field(default_factory=dict)

    def outputs(self) -> Dict[str, Any]:
        """Every deterministic simulated output, for the fingerprint."""
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "read_latencies": self.read_latencies,
            "write_latencies": self.write_latencies,
            "slo_missed": self.slo_missed,
            "spin_ups": self.spin_ups,
            "energy_j": self.energy_j,
            "recovery_s": self.recovery_s,
            "user_bytes_written": self.user_bytes_written,
            "violations": self.violations,
            "counts": self.counts,
        }


class _DiskMeter:
    """Spin-ups and joules of every deployment disk since construction."""

    def __init__(self, disks: Dict[str, Any]) -> None:
        self._disks = disks
        self._spin_ups = self._total_spin_ups()
        self._energy = self._total_energy()

    def _total_spin_ups(self) -> int:
        return sum(self._disks[d].states.spin_up_count for d in sorted(self._disks))

    def _total_energy(self) -> float:
        return sum(self._disks[d].energy_joules() for d in sorted(self._disks))

    def record(self, result: TrialResult) -> None:
        result.spin_ups = self._total_spin_ups() - self._spin_ups
        result.energy_j = self._total_energy() - self._energy


@dataclass
class Trial:
    """A booted trial: the deployment and what ``setup`` built on it."""

    deployment: Any
    #: Deployment seeds that crashed while booting before this one.
    boot_failures: int = 0
    gateway: Optional[Gateway] = None
    objects: List[Any] = field(default_factory=list)
    spaces: Dict[str, Any] = field(default_factory=dict)
    store: Any = None
    orchestrator: Any = None
    master: Any = None
    victim: str = ""
    victim_disks: List[str] = field(default_factory=list)


def _boot(seed: int, metrics, tracer) -> Trial:
    """Build a deployment and settle its control plane.

    A few deployment seeds (about one in 150) crash while booting: the
    master's coordination session creation raises ``NotLeaderError``
    out of its candidate loop.  That is a defect of the program, not of
    the workload, so the trial counts it in ``boot_failures`` -- which
    every run reports -- and boots the next derived seed instead.
    """
    for attempt in range(BOOT_ATTEMPTS):
        deployment = cluster.build_deployment(
            config=cluster.DeploymentConfig(seed=seed + attempt * BOOT_RETRY_STRIDE),
            metrics=metrics,
            tracer=tracer,
        )
        try:
            deployment.settle(SETTLE_SECONDS)
        except RemoteError:
            continue
        return Trial(deployment, boot_failures=attempt)
    raise RuntimeError(f"no deployment booted from seed {seed}")


def _gateway_trial(seed, metrics, tracer, tenants, config_for) -> Trial:
    """Deployment + one gateway space per disk, every disk spun down."""
    trial = _boot(seed, metrics, tracer)
    deployment = trial.deployment
    trial.objects, trial.spaces = gateway_api.mount_gateway_spaces(
        deployment, SPACE_BYTES
    )
    for disk_id in sorted(deployment.disks):
        deployment.disks[disk_id].spin_down()
    gateway = Gateway(deployment.sim, tenants, config_for(trial.objects))
    gateway.attach(
        trial.objects, trial.spaces, deployment.disks, host_of=deployment.host_of_disk
    )
    gateway.start()
    trial.gateway = gateway
    return trial


def _record_requests(gateway: Gateway) -> List[Any]:
    """Keep every admitted request: wraps this gateway's ``submit_op``."""
    admitted: List[Any] = []
    submit_op = gateway.submit_op

    def recording_submit_op(op):
        request = submit_op(op)
        admitted.append(request)
        return request

    gateway.submit_op = recording_submit_op  # type: ignore[method-assign]
    return admitted


def _poisson_times(rand, count: int, span: float) -> List[float]:
    """``count`` open-loop Poisson arrival offsets at rate count/span."""
    rate = count / span
    times = []
    now = 0.0
    for _ in range(count):
        now += rand.expovariate(rate)
        times.append(now)
    return times


def _drain(sim, done, cap: float = DRAIN_CAP_SECONDS) -> bool:
    deadline = sim.now + cap
    while not done() and sim.now < deadline:
        sim.run(until=sim.now + DRAIN_STEP_SECONDS)
    return done()


def _check_exactly_once(gateway: Gateway, admitted: List[Any], result: TrialResult) -> None:
    """Every admitted request completed exactly once; the gateway drained."""
    stats = gateway.stats
    if not gateway.drained():
        result.violations.append("gateway did not drain")
    completed = sum(1 for r in admitted if r.state is RequestState.COMPLETED)
    failed = sum(1 for r in admitted if r.state is RequestState.FAILED)
    if len(admitted) != stats.admitted:
        result.violations.append(
            f"recorded {len(admitted)} admitted requests, gateway counted {stats.admitted}"
        )
    if completed != stats.completed or failed != stats.failed:
        result.violations.append(
            f"completions counted {stats.completed}+{stats.failed}, "
            f"requests show {completed}+{failed}"
        )
    if completed + failed != len(admitted):
        result.violations.append(
            f"{len(admitted) - completed - failed} admitted requests never completed"
        )


def _gateway_counts(trial: Trial) -> Dict[str, float]:
    stats = trial.gateway.stats
    spaces = trial.spaces
    return {
        "cluster.boot_failures": trial.boot_failures,
        "gateway.batches": stats.batches,
        "gateway.disk_passes": stats.disk_passes,
        "gateway.completed": stats.completed,
        "gateway.coalesced_reads": stats.coalesced_reads,
        "gateway.reclaim_spin_downs": stats.reclaim_spin_downs,
        "clientlib.remounts": sum(spaces[s].stats.remounts for s in sorted(spaces)),
    }


class ColdRead:
    """Gateway tier: two tenants, cold reads against spun-down disks."""

    name = "cold_read"
    trials = 16
    traced_trials = 4
    timed_trials = 1
    duration = 180.0
    load_scale = 2.0
    power_budget_watts = 24.0

    def setup(self, seed, metrics=None, tracer=None) -> Trial:
        return _gateway_trial(
            seed,
            metrics,
            tracer,
            GATEWAY_TENANTS,
            lambda objects: GatewayConfig(
                power_budget_watts=self.power_budget_watts, scheduler="batch"
            ),
        )

    def drive(self, trial: Trial) -> TrialResult:
        deployment, gateway = trial.deployment, trial.gateway
        sim = deployment.sim
        result = TrialResult()
        meter = _DiskMeter(deployment.disks)
        admitted = _record_requests(gateway)
        generator = OpenLoopTrafficGenerator(
            sim, gateway, deployment.rng, load_scale=self.load_scale
        )
        generator.start(self.duration)
        sim.run(until=sim.now + self.duration)
        _drain(sim, gateway.drained)
        meter.record(result)
        refused = sum(generator.stats[name].rejected for name in sorted(generator.stats))
        for request in admitted:
            if request.state is not RequestState.COMPLETED:
                continue
            latencies = result.read_latencies if request.is_read else result.write_latencies
            latencies.append(request.latency)
            if not request.is_read:
                result.user_bytes_written += request.size
        result.attempted = len(admitted) + refused
        result.failed = gateway.stats.failed + refused
        result.slo_missed = gateway.stats.slo_misses + result.failed
        _check_exactly_once(gateway, admitted, result)
        result.counts = _gateway_counts(trial)
        return result


class SmallObject:
    """Shardstore: packed 64 KB puts, drain, then sampled gets."""

    name = "small_object"
    trials = 16
    traced_trials = 4
    timed_trials = 1
    num_objects = 1000
    num_gets = 200
    object_bytes = 64 * KB
    put_seconds = 60.0
    get_seconds = 30.0
    cool_seconds = 30.0
    date = "2015-06-01"
    shard_capacity = 8 * MiB

    def setup(self, seed, metrics=None, tracer=None) -> Trial:
        trial = _gateway_trial(
            seed,
            metrics,
            tracer,
            [SMALL_OBJECTS],
            lambda objects: GatewayConfig(
                power_budget_watts=24.0,
                scheduler="batch",
                coalesce_gap_bytes=self.shard_capacity,
            ),
        )
        trial.store = ShardStore(
            trial.gateway,
            ShardStoreConfig(
                tenant=SMALL_OBJECTS.name,
                shards_per_day=16,
                shard_capacity_bytes=self.shard_capacity,
            ),
        )
        return trial

    def drive(self, trial: Trial) -> TrialResult:
        deployment, gateway, store = trial.deployment, trial.gateway, trial.store
        sim = deployment.sim
        result = TrialResult()
        meter = _DiskMeter(deployment.disks)
        admitted = _record_requests(gateway)
        uids = [f"u{index:05d}" for index in range(self.num_objects)]
        put_times = _poisson_times(
            deployment.rng.stream("perfbench.puts"), self.num_objects, self.put_seconds
        )
        sample = sorted(
            deployment.rng.stream("perfbench.sample").sample(
                range(self.num_objects), self.num_gets
            )
        )
        get_times = _poisson_times(
            deployment.rng.stream("perfbench.gets"), self.num_gets, self.get_seconds
        )
        records = []

        def put_all():
            start = sim.now
            for uid, at in zip(uids, put_times):
                if start + at > sim.now:
                    yield sim.timeout(start + at - sim.now)
                records.append((store.put(uid, self.date, self.object_bytes), sim.now))
            store.flush_all()

        sim.run_until_event(sim.process(put_all()))
        _drain(sim, gateway.drained)
        # Archival reads come long after ingest: let every disk spin
        # down before the retrieval wave starts.
        sim.run(until=sim.now + self.cool_seconds)
        gets = []

        def get_all():
            start = sim.now
            for index, at in zip(sample, get_times):
                if start + at > sim.now:
                    yield sim.timeout(start + at - sim.now)
                gets.append(store.get(uids[index], self.date))

        sim.run_until_event(sim.process(get_all()))
        _drain(sim, gateway.drained)
        meter.record(result)
        for record, at in records:
            if record.state is ObjectState.ACKED:
                result.write_latencies.append(record.acked_at - at)
                result.user_bytes_written += record.size
        for request in gets:
            if request.state is RequestState.COMPLETED:
                result.read_latencies.append(request.latency)
        result.attempted = self.num_objects + self.num_gets
        result.failed = (self.num_objects - len(result.write_latencies)) + (
            self.num_gets - len(result.read_latencies)
        )
        deadline = SMALL_OBJECTS.slo_seconds
        result.slo_missed = result.failed + sum(
            1
            for latency in result.write_latencies + result.read_latencies
            if latency > deadline
        )
        _check_exactly_once(gateway, admitted, result)
        if store.stats.acked != self.num_objects:
            result.violations.append(
                f"{self.num_objects - store.stats.acked} puts never acked"
            )
        if any(request.attempts != 1 for request in gets):
            result.violations.append("a get was issued more than once")
        summary = store.summary()
        result.counts = _gateway_counts(trial)
        result.counts.update(
            {
                "shardstore.flushes": summary["flushes"],
                "shardstore.flushed_bytes": summary["flushed_bytes"],
                "shardstore.retrievals": summary["retrievals"],
            }
        )
        return result

    def audit(self, trial: Trial, result: TrialResult) -> None:
        """No acked put is lost: a media scan alone finds every one."""
        deployment, gateway, store = trial.deployment, trial.gateway, trial.store
        acked = store.stats.acked
        store.drop_directory()
        store.recover()
        _drain(deployment.sim, gateway.drained)
        if store.directory_size() != acked:
            result.violations.append(
                f"media scan found {store.directory_size()} of {acked} acked objects"
            )


class ArchiveTiering:
    """Tiering: staged archival writes, background migration, cold reads."""

    name = "archive_tiering"
    trials = 3
    traced_trials = 1
    timed_trials = 1
    num_writes = 240
    num_cold_reads = 40
    object_bytes = 256 * KB
    write_seconds = 600.0
    end_seconds = 950.0
    warm_seconds = 10.0
    hot_spaces = 1
    residents_per_space = 2
    resident_base = 40 * MB
    resident_stride = 8 * MB

    def setup(self, seed, metrics=None, tracer=None) -> Trial:
        trial = _gateway_trial(
            seed,
            metrics,
            tracer,
            (ARCHIVE, MIGRATION),
            lambda objects: GatewayConfig(
                power_budget_watts=40.0,
                scheduler="batch",
                pinned_disks=pinned_disks_for(objects, self.hot_spaces),
            ),
        )
        store = TieredStore(
            trial.gateway,
            TieringConfig(
                tenant=ARCHIVE.name,
                migration_tenant=MIGRATION.name,
                hot_spaces=self.hot_spaces,
                demotion_min_batch_bytes=4 * MiB,
                demotion_max_age_seconds=180.0,
                max_inflight_demotions=2,
                pressure_queue_depth=2,
            ),
        )
        store.start()
        trial.store = store
        trial.orchestrator = MigrationOrchestrator(store)
        trial.orchestrator.start()
        return trial

    def _residents(self, objects) -> List[ObjectRef]:
        cold = sorted(obj.space_id for obj in objects)[self.hot_spaces:]
        return [
            ObjectRef(
                space_id=space_id,
                offset=self.resident_base + index * self.resident_stride,
                size=self.object_bytes,
                object_id=f"resident:{space_id}:{index}",
            )
            for space_id in cold
            for index in range(self.residents_per_space)
        ]

    def drive(self, trial: Trial) -> TrialResult:
        deployment, gateway, store = trial.deployment, trial.gateway, trial.store
        sim = deployment.sim
        result = TrialResult()
        meter = _DiskMeter(deployment.disks)
        admitted = _record_requests(gateway)
        sim.run(until=sim.now + self.warm_seconds)
        uids = [f"arch-{index:05d}" for index in range(self.num_writes)]
        write_times = _poisson_times(
            deployment.rng.stream("perfbench.writes"), self.num_writes, self.write_seconds
        )
        read_times = _poisson_times(
            deployment.rng.stream("perfbench.reads"),
            self.num_cold_reads,
            self.write_seconds,
        )
        residents = self._residents(trial.objects)
        pick = deployment.rng.stream("perfbench.read_sample")
        read_refs = [residents[pick.randrange(len(residents))] for _ in read_times]
        start = sim.now
        records = []
        reads = []

        def write_all():
            for uid, at in zip(uids, write_times):
                if start + at > sim.now:
                    yield sim.timeout(start + at - sim.now)
                records.append(store.write(uid, self.object_bytes))

        def read_all():
            for ref, at in zip(read_refs, read_times):
                if start + at > sim.now:
                    yield sim.timeout(start + at - sim.now)
                reads.append(gateway.submit(ReadObject(tenant=ARCHIVE.name, ref=ref)))

        writer = sim.process(write_all())
        reader = sim.process(read_all())
        sim.run_until_event(writer)
        sim.run_until_event(reader)

        def settled() -> bool:
            return (
                gateway.drained()
                and store.pending_demotion_bytes() == 0
                and store.inflight_demotions == 0
            )

        while sim.now < self.end_seconds and not settled():
            sim.run(until=sim.now + DRAIN_STEP_SECONDS)
        if not settled():
            result.violations.append("staged writes not demoted by the end of the run")
        if sim.now < self.end_seconds:
            sim.run(until=self.end_seconds)
        meter.record(result)
        for record in records:
            if record.acked_at is not None:
                result.write_latencies.append(record.acked_at - record.written_at)
                result.user_bytes_written += record.size
        for request in reads:
            if request.state is RequestState.COMPLETED:
                result.read_latencies.append(request.latency)
        result.attempted = self.num_writes + self.num_cold_reads
        result.failed = (self.num_writes - len(result.write_latencies)) + (
            self.num_cold_reads - len(result.read_latencies)
        )
        deadline = ARCHIVE.slo_seconds
        result.slo_missed = result.failed + sum(
            1
            for latency in result.write_latencies + result.read_latencies
            if latency > deadline
        )
        _check_exactly_once(gateway, admitted, result)
        misplaced = [uid for uid in uids if store.durable_tiers(uid) != ["cold"]]
        if misplaced:
            result.violations.append(
                f"{len(misplaced)} objects not in exactly one tier, e.g. {misplaced[0]}"
            )
        if store.stats.demoted != self.num_writes:
            result.violations.append(
                f"{store.stats.demoted} of {self.num_writes} writes demoted"
            )
        summary = store.summary()
        result.counts = _gateway_counts(trial)
        result.counts.update(
            {
                "tiering.demotion_batches": summary["demotion_batches"],
                "tiering.demoted": summary["demoted"],
                "tiering.migration_rounds": trial.orchestrator.stats.rounds,
            }
        )
        return result


class HostFailover:
    """Cluster failover: crash one host, recover, confirm service by I/O."""

    name = "host_failover"
    trials = 64
    traced_trials = 16
    #: One timed trial per host, since each host's crash moves other disks.
    timed_trials = 4
    hosts = ("host0", "host1", "host2", "host3")
    probe_bytes = 4 * KB
    crash_mean_seconds = 2.0
    recovery_cap_seconds = 120.0
    poll_seconds = 0.1

    def setup(self, seed, metrics=None, tracer=None) -> Trial:
        trial = _boot(seed, metrics, tracer)
        deployment = trial.deployment
        trial.master = deployment.active_master()
        trial.victim = self.hosts[seed % len(self.hosts)]
        trial.victim_disks = trial.master.sysstat.disks_on_host(trial.victim)
        client = deployment.new_client("failover-client", service="failover")
        all_disks = [d.node_id for d in deployment.fabric.disks]

        def mount_all():
            for disk in trial.victim_disks:
                exclude = [d for d in all_disks if d != disk]
                info = yield from client.allocate(64 * MB, exclude_disks=exclude)
                space = yield from client.mount(info["space_id"])
                trial.spaces[space.space_id] = space

        deployment.sim.run_until_event(deployment.sim.process(mount_all()))
        for disk_id in sorted(deployment.disks):
            deployment.disks[disk_id].spin_down()
        return trial

    def drive(self, trial: Trial) -> TrialResult:
        deployment, master, victim = trial.deployment, trial.master, trial.victim
        spaces = [trial.spaces[space_id] for space_id in sorted(trial.spaces)]
        sim = deployment.sim
        result = TrialResult(attempted=1)
        meter = _DiskMeter(deployment.disks)

        def timed_io(space, is_read, latencies):
            start = sim.now
            if is_read:
                yield from space.read(0, self.probe_bytes)
            else:
                yield from space.write(0, self.probe_bytes)
            latencies.append(sim.now - start)

        def all_io(is_read, latencies):
            sim.run_until_event(
                sim.all_of(
                    [sim.process(timed_io(s, is_read, latencies)) for s in spaces]
                )
            )

        all_io(False, result.write_latencies)
        result.user_bytes_written = self.probe_bytes * len(spaces)
        crash_rand = deployment.rng.stream("perfbench.crash")
        sim.run(until=sim.now + crash_rand.expovariate(1.0 / self.crash_mean_seconds))
        crash_time = sim.now
        deployment.crash_host(victim)

        def recovered() -> bool:
            if master.sysstat.disks_on_host(victim):
                return False
            mapping = deployment.fabric.attachment_map()
            return all(mapping[d] not in (None, victim) for d in trial.victim_disks)

        while not recovered() and sim.now - crash_time <= self.recovery_cap_seconds:
            sim.run(until=sim.now + self.poll_seconds)
        if recovered():
            result.recovery_s.append(sim.now - crash_time)
            all_io(True, result.read_latencies)
        else:
            result.failed = 1
            result.violations.append(f"{victim} failover did not recover")
        meter.record(result)
        if len(result.read_latencies) != len(spaces):
            result.violations.append("service not confirmed on every moved disk")
        result.counts = {
            "cluster.boot_failures": trial.boot_failures,
            "clientlib.remounts": sum(space.stats.remounts for space in spaces),
            "cluster.disks_moved": len(trial.victim_disks),
        }
        return result


WORKLOADS = {
    workload.name: workload
    for workload in (ColdRead(), SmallObject(), ArchiveTiering(), HostFailover())
}


def trial_seeds(workload, seed: int) -> List[int]:
    """The deployment seeds of one run's trials, a pure function of ``seed``."""
    return [seed * 1000 + index for index in range(workload.trials)]
