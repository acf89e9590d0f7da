"""The parallel ⟨technique, failed site⟩ sweep (Fig. 2 / Tables 1-2).

Each cell of the paper's headline matrix is one independent
:meth:`~repro.core.experiment.FailoverExperiment.run_site` simulation.
:func:`run_sweep` shards those cells over :func:`repro.parallel.pool.
map_cells` workers and merges the results deterministically.

Determinism guarantees (what makes ``--workers N`` byte-identical to
``--workers 1``):

* every piece of state a cell depends on -- topology, deployment,
  config, the anycast catchment, the hitlist, and each site's target
  selection -- is computed **once in the parent** and shipped to the
  workers inside a :class:`SweepShared` snapshot, so no worker ever
  recomputes (or worse, re-derives differently) shared state;
* the per-cell seed is derived in :meth:`run_site` from the cell's own
  ⟨technique, site⟩ name via crc32, never from worker identity,
  scheduling order, or wall time;
* results are merged in cell order, not completion order.

A fresh experiment of the caller's class is rebuilt around the
snapshot for each cell, in a worker or, with ``workers=1``, in-process:
every ``workers`` value runs the same cell code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.checkpoint import NetworkSnapshot
from repro.core.experiment import (
    FailoverConfig,
    FailoverExperiment,
    SiteFailoverResult,
)
from repro.core.techniques import Technique
from repro.measurement.hitlist import Hitlist, TargetSelection
from repro.parallel.pool import CellResult, map_cells
from repro.topology.generator import Topology
from repro.topology.testbed import CdnDeployment


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One ⟨technique, failed site⟩ cell of the sweep matrix."""

    technique: Technique
    site: str

    @property
    def cell_id(self) -> str:
        return f"{self.technique.name}/{self.site}"


def matrix(techniques: list[Technique], sites: list[str]) -> list[SweepCell]:
    """The full technique-major cell matrix, in deterministic order."""
    return [SweepCell(technique, site) for technique in techniques for site in sites]


@dataclass(slots=True)
class SweepShared:
    """Everything a worker needs to run any cell, precomputed once."""

    topology: Topology
    deployment: CdnDeployment
    config: FailoverConfig
    catchment: dict[str, str | None]
    hitlist: Hitlist
    selections: dict[str, TargetSelection]
    #: per-technique converged base snapshots; like the selections,
    #: computed once in the parent so every worker forks byte-identical
    #: baselines.
    baselines: dict[str, NetworkSnapshot] = field(default_factory=dict)
    #: the experiment's class, so a subclass's cells run its own
    #: ``prepare_network``/``run_site``
    experiment_type: type[FailoverExperiment] = FailoverExperiment


def shared_state(experiment: FailoverExperiment, cells: list[SweepCell]) -> SweepShared:
    """Precompute the topology-only state every cell in ``cells`` needs.

    Forces the experiment's catchment/hitlist/selection caches for each
    cell's ⟨site, selection mode⟩ and each technique's converged
    baseline snapshot, so workers receive them ready-made.
    """
    for cell in cells:
        experiment.selection_for(cell.site, mode=cell.technique.selection_mode)
        experiment.baseline_for(cell.technique)
    return SweepShared(
        topology=experiment.topology,
        deployment=experiment.deployment,
        config=experiment.config,
        catchment=experiment.catchment,
        hitlist=experiment.hitlist,
        selections=experiment.cached_selections(),
        baselines=experiment.cached_baselines(),
        experiment_type=type(experiment),
    )


def _run_cell(shared: SweepShared, cell: SweepCell) -> SiteFailoverResult:
    """Worker entry point: one cell on a fresh experiment shell."""
    experiment = shared.experiment_type(
        shared.topology,
        shared.deployment,
        shared.config,
        catchment=shared.catchment,
        hitlist=shared.hitlist,
        selections=shared.selections,
        baselines=shared.baselines,
    )
    return experiment.run_site(cell.technique, cell.site)


@dataclass(slots=True)
class SweepReport:
    """All cell outcomes of one sweep, in matrix order."""

    cells: list[SweepCell]
    results: list[CellResult]
    workers: int
    wall_s: float

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[CellResult]:
        return [r for r in self.results if not r.ok]

    def site_results(self) -> list[SiteFailoverResult]:
        """Successful :class:`SiteFailoverResult`s, in cell order."""
        return [r.value for r in self.results if r.ok]

    def results_for(self, technique_name: str) -> list[SiteFailoverResult]:
        """One technique's successful results, in site order."""
        return [
            result.value
            for cell, result in zip(self.cells, self.results)
            if result.ok and cell.technique.name == technique_name
        ]

    def raise_on_failure(self) -> None:
        failures = self.failures()
        if failures:
            summary = "; ".join(f"{r.cell_id}: {r.status}" for r in failures)
            raise RuntimeError(f"{len(failures)} sweep cell(s) failed: {summary}")


def run_sweep(
    experiment: FailoverExperiment,
    cells: list[SweepCell],
    *,
    workers: int = 1,
    timeout_s: float | None = None,
    progress=None,
) -> SweepReport:
    """Run every cell and return a :class:`SweepReport`.

    ``workers=1`` runs the cells in-process; higher values shard them
    over worker processes. Both run the same cell code. ``timeout_s``
    bounds each cell's host wall-clock time when workers are in play;
    an overdue or crashed cell is reported as failed instead of hanging
    the sweep.
    """
    shared = shared_state(experiment, cells)
    start = time.perf_counter()  # repro: noqa[DET004]
    results = map_cells(
        _run_cell,
        shared,
        [(cell.cell_id, cell) for cell in cells],
        workers=workers,
        timeout_s=timeout_s,
        progress=progress,
    )
    wall_s = time.perf_counter() - start  # repro: noqa[DET004]
    return SweepReport(cells=cells, results=results, workers=max(1, workers), wall_s=wall_s)
