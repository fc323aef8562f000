"""Parallel experiment campaigns with content-addressed result caching.

A *campaign* fans one registered :class:`~repro.experiments.base
.Experiment` over a grid of (seed × sweep-point) cells, runs the cells
across worker processes, and caches every cell's
:class:`~repro.experiments.base.ExperimentResult` under a
content-addressed key, so re-running a campaign is free for cells that
already ran and an interrupted campaign resumes from wherever it
stopped — the StorRep-style sweep pattern the ROADMAP calls for.

Cache layout (``cache_dir`` defaults to ``.campaigns/``)::

    <cache_dir>/<experiment>/<digest>.json

where ``digest`` is a SHA-256 over the canonical JSON of
``(experiment, result-schema version, sorted params)`` — the params
include the seed, so every cell of every campaign has its own entry and
two campaigns sharing cells share cache hits.  Each file holds the cell
metadata plus the full result document and is written atomically
(temp file + ``os.replace``), so a run killed mid-campaign never leaves
a torn entry: on the next run finished cells load from cache and only
the missing ones recompute.

Because experiments are deterministic functions of their parameters
(the repo's check-determinism gate enforces it), a cached result is
indistinguishable from a fresh run — which is what makes
content-addressed caching sound in the first place.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.base import RESULT_SCHEMA_VERSION
from repro.obs import MetricsRegistry

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "CampaignCell",
    "CampaignError",
    "CampaignReport",
    "CampaignSpec",
    "DEFAULT_CACHE_DIR",
    "run_campaign",
]

CAMPAIGN_SCHEMA_VERSION = 1

DEFAULT_CACHE_DIR = Path(".campaigns")


class CampaignError(Exception):
    """Raised for malformed campaign specifications."""


def _canonical_params(params: Mapping[str, Any]) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)


@dataclass(frozen=True)
class CampaignCell:
    """One (experiment, full parameter assignment) grid point."""

    experiment: str
    params: Tuple[Tuple[str, Any], ...]

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def digest(self) -> str:
        """Content address: experiment + result schemas + canonical params.

        The result- and metrics-dump schema versions are part of the key
        so a cache populated before an :class:`ExperimentResult` or
        ``obs`` layout change is transparently invalidated rather than
        served in the old shape.
        """
        payload = json.dumps(
            {
                "experiment": self.experiment,
                "result_schema_version": RESULT_SCHEMA_VERSION,
                "metrics_schema_version": MetricsRegistry.SCHEMA_VERSION,
                "params": dict(self.params),
            },
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def label(self) -> str:
        """Compact human-readable cell name for reports."""
        parts = [f"{k}={v}" for k, v in self.params]
        return f"{self.experiment}({', '.join(parts)})"


@dataclass(frozen=True)
class CampaignSpec:
    """A seed list crossed with per-parameter sweep values.

    ``seeds`` requires the experiment to declare a ``seed`` parameter;
    every ``sweep`` name must be a declared parameter of the experiment.
    Cells enumerate deterministically: seeds in the given order, sweep
    values in the given order, sweep parameters sorted by name (the
    rightmost sorted parameter varies fastest).
    """

    experiment: str
    seeds: Tuple[int, ...] = ()
    sweep: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    @staticmethod
    def build(
        experiment: str,
        seeds: Sequence[int] = (),
        sweep: Optional[Mapping[str, Sequence[Any]]] = None,
    ) -> "CampaignSpec":
        """Validate against the registry and normalize to tuples."""
        from repro.experiments import EXPERIMENTS

        if experiment not in EXPERIMENTS:
            raise CampaignError(
                f"unknown experiment {experiment!r}; available: "
                f"{', '.join(EXPERIMENTS.names())}"
            )
        declared = EXPERIMENTS.get(experiment).params
        if seeds and "seed" not in declared:
            raise CampaignError(
                f"experiment {experiment!r} declares no 'seed' parameter; "
                "drop --seeds or sweep a declared parameter instead"
            )
        sweep = dict(sweep or {})
        unknown = sorted(set(sweep) - set(declared))
        if unknown:
            raise CampaignError(
                f"experiment {experiment!r} has no parameter(s) {unknown}; "
                f"declared: {sorted(declared)}"
            )
        if "seed" in sweep and seeds:
            raise CampaignError("give seeds via --seeds or --set seed=…, not both")
        for name, values in sweep.items():
            if not values:
                raise CampaignError(f"sweep parameter {name!r} has no values")
        return CampaignSpec(
            experiment=experiment,
            seeds=tuple(int(s) for s in seeds),
            sweep=tuple(
                sorted((name, tuple(values)) for name, values in sweep.items())
            ),
        )

    def cells(self) -> List[CampaignCell]:
        seed_axis: List[Tuple[Tuple[str, Any], ...]] = (
            [(("seed", seed),) for seed in self.seeds] if self.seeds else [()]
        )
        sweep_axes: List[List[Tuple[str, Any]]] = [
            [(name, value) for value in values] for name, values in self.sweep
        ]
        cells = []
        for seed_part in seed_axis:
            for combo in itertools.product(*sweep_axes):
                params = tuple(sorted(seed_part + tuple(combo)))
                cells.append(CampaignCell(self.experiment, params))
        return cells


@dataclass
class CellOutcome:
    """One cell's result provenance within a campaign run."""

    cell: CampaignCell
    digest: str
    source: str  # "computed" | "cached"
    result: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "params": self.cell.params_dict,
            "digest": self.digest,
            "source": self.source,
            "result": self.result,
        }


@dataclass
class CampaignReport:
    """Everything one campaign run produced, in deterministic cell order."""

    experiment: str
    cache_dir: str
    workers: int
    outcomes: List[CellOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def computed(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "computed")

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "cached")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "experiment": self.experiment,
            "cache_dir": self.cache_dir,
            "workers": self.workers,
            "total": self.total,
            "computed": self.computed,
            "cached": self.cached,
            "wall_seconds": round(self.wall_seconds, 4),
            "cells": [o.to_dict() for o in self.outcomes],
        }

    def render(self) -> str:
        lines = [
            f"Campaign: {self.experiment} — {self.total} cell(s), "
            f"{self.computed} computed, {self.cached} cached "
            f"({self.wall_seconds:.2f}s wall, {self.workers} worker(s))",
            f"  cache: {self.cache_dir}",
        ]
        for outcome in self.outcomes:
            anchors = outcome.result.get("anchors") or {}
            verdict = "ok" if all(anchors.values()) else "ANCHOR MISS"
            if not anchors:
                verdict = "ok"
            lines.append(
                f"  [{outcome.source:8s}] {outcome.cell.label()} "
                f"{verdict} {outcome.digest[:12]}…"
            )
        return "\n".join(lines)


def _cache_path(cache_dir: Path, cell: CampaignCell) -> Path:
    return cache_dir / cell.experiment / f"{cell.digest()}.json"


def _load_cached(path: Path, cell: CampaignCell) -> Optional[Dict[str, Any]]:
    """The cached result document, or ``None`` when absent/torn/stale."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict):
        return None
    if document.get("campaign_schema_version") != CAMPAIGN_SCHEMA_VERSION:
        return None
    if document.get("params") != _canonical_params(cell.params_dict):
        return None  # digest collision or hand-edited file: recompute
    result = document.get("result")
    return result if isinstance(result, dict) else None


def _store_result(path: Path, cell: CampaignCell, result: Dict[str, Any]) -> None:
    """Atomic write: a killed campaign never leaves a torn cache entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "campaign_schema_version": CAMPAIGN_SCHEMA_VERSION,
        "experiment": cell.experiment,
        "params": _canonical_params(cell.params_dict),
        "digest": cell.digest(),
        "result": result,
    }
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


def _run_cell(experiment: str, params: Tuple[Tuple[str, Any], ...]) -> Dict[str, Any]:
    """Worker entrypoint (module-level so process pools can pickle it)."""
    from repro.experiments import EXPERIMENTS

    result = EXPERIMENTS.get(experiment).run(**dict(params))
    return result.to_dict()


def run_campaign(
    spec: CampaignSpec,
    cache_dir: Path = DEFAULT_CACHE_DIR,
    workers: int = 0,
    refresh: bool = False,
    progress: Optional[Callable[[CellOutcome], None]] = None,
) -> CampaignReport:
    """Run every cell of ``spec``, serving cached cells without recompute.

    ``workers`` > 1 fans the missing cells over a
    :class:`~concurrent.futures.ProcessPoolExecutor`; 0 or 1 runs them
    inline (no pool, exercised directly by tests).  ``refresh`` ignores
    and overwrites existing cache entries.  ``progress`` is called once
    per finished cell, in completion order; each finished cell's cache
    entry is written before the callback runs, so an interruption (even
    one raised from the callback) leaves every completed cell resumable.

    Returns a :class:`CampaignReport` with outcomes in deterministic
    cell-enumeration order regardless of completion order.
    """
    cache_root = Path(cache_dir)
    cells = spec.cells()
    if not cells:
        raise CampaignError("campaign has no cells")
    started = time.perf_counter()
    outcomes: Dict[int, CellOutcome] = {}
    missing: List[Tuple[int, CampaignCell]] = []
    for index, cell in enumerate(cells):
        path = _cache_path(cache_root, cell)
        cached = None if refresh else _load_cached(path, cell)
        if cached is not None:
            outcome = CellOutcome(cell, cell.digest(), "cached", cached)
            outcomes[index] = outcome
            if progress is not None:
                progress(outcome)
        else:
            missing.append((index, cell))

    def finish(index: int, cell: CampaignCell, result: Dict[str, Any]) -> None:
        _store_result(_cache_path(cache_root, cell), cell, result)
        outcome = CellOutcome(cell, cell.digest(), "computed", result)
        outcomes[index] = outcome
        if progress is not None:
            progress(outcome)

    if workers > 1 and len(missing) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(missing))) as pool:
            pending = {
                pool.submit(_run_cell, cell.experiment, cell.params): (index, cell)
                for index, cell in missing
            }
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index, cell = pending.pop(future)
                    finish(index, cell, future.result())
    else:
        for index, cell in missing:
            finish(index, cell, _run_cell(cell.experiment, cell.params))

    report = CampaignReport(
        experiment=spec.experiment,
        cache_dir=str(cache_root),
        workers=max(1, workers),
        outcomes=[outcomes[i] for i in sorted(outcomes)],
        wall_seconds=time.perf_counter() - started,
    )
    return report
