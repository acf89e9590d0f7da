"""Checkpoint-forked failover runs: determinism, reuse, phases, and
equivalence with a cold start.

Every run converges its technique's base announcement plan once,
snapshots it, and forks the snapshot per cell
(``FailoverExperiment.baseline_for`` / ``prepare_network``). These tests
pin the contract: forked runs are reproducible across experiments and
worker counts, baselines are computed once per technique, and the fork
runs the same experiment as a cold start that converges each cell's
whole announcement plan from scratch -- the same distributions, tested
per technique on pooled outcomes.
"""

import json

import pytest

from repro import telemetry
from repro.checkpoint import NetworkSnapshot
from repro.core.cell import deploy_cell
from repro.core.experiment import FailoverConfig, FailoverExperiment, pooled_outcomes
from repro.core.techniques import (
    Anycast,
    ProactivePrepending,
    ProactiveSuperprefix,
    ReactiveAnycast,
    technique_by_name,
)
from repro.measurement.export import sweep_report_to_dict
from repro.measurement.stats import Cdf
from repro.parallel import matrix, run_sweep
from repro.bgp.session import SessionTiming

#: Mild pacing (mirrors test_core_experiment.TEST_TIMING): enough
#: dynamics to exercise MRAI/jitter state through the snapshot.
TIMING = SessionTiming(latency=0.05, jitter=0.5, mrai=10.0, busy_prob=0.3, fib_delay=1.0)


def make_config() -> FailoverConfig:
    return FailoverConfig(
        probe_duration=120.0, targets_per_site=6, timing=TIMING, seed=13
    )


def make_experiment(deployment, **kwargs) -> FailoverExperiment:
    return FailoverExperiment(
        deployment.topology, deployment, make_config(), **kwargs
    )


def canonical(report) -> str:
    doc = sweep_report_to_dict(report)
    doc.pop("wall_s")
    doc.pop("workers")
    for cell in doc["cells"]:
        cell.pop("wall_s")
    return json.dumps(doc, sort_keys=True)


def phase_names(tracer) -> list[str]:
    return [e.name for e in tracer.events_of(telemetry.PhaseStart)]


class TestBaselineCache:
    def test_baseline_computed_once_per_technique(self, deployment):
        experiment = make_experiment(deployment)
        technique = Anycast()
        first = experiment.baseline_for(technique)
        assert isinstance(first, NetworkSnapshot)
        assert experiment.baseline_for(technique) is first
        assert experiment.cached_baselines() == {technique.baseline_key: first}

    def test_baseline_reproducible_across_experiments(self, deployment):
        a = make_experiment(deployment)
        b = make_experiment(deployment)
        assert (
            a.baseline_for(Anycast()).dumps() == b.baseline_for(Anycast()).dumps()
        )

    def test_prepending_baseline_key_tracks_restriction(self):
        assert Anycast().baseline_key == "anycast"
        assert (
            ProactivePrepending().baseline_key
            != ProactivePrepending(restrict_to_shared_neighbors=True).baseline_key
        )


class TestForkedRunDeterminism:
    def test_forked_run_reproducible_across_experiments(self, deployment):
        site = deployment.site_names[0]
        results = []
        for _ in range(2):
            experiment = make_experiment(deployment)
            result = experiment.run_site(ReactiveAnycast(), site)
            results.append(
                (
                    result.withdrawal_time,
                    sorted(map(str, result.controllable)),
                    [
                        (str(o.target), o.reconnection_s, o.failover_s, o.final_site)
                        for o in result.outcomes
                    ],
                )
            )
        assert results[0] == results[1]

    def test_forked_sweep_serial_vs_workers_identical(self, deployment):
        techniques = [technique_by_name("anycast"), technique_by_name("reactive-anycast")]
        sites = deployment.site_names[:2]
        cells = matrix(techniques, sites)
        serial = run_sweep(
            make_experiment(deployment), cells, workers=1
        )
        parallel = run_sweep(
            make_experiment(deployment), cells, workers=2
        )
        assert serial.ok and parallel.ok
        assert canonical(serial) == canonical(parallel)


class TestPhasesAndDefaults:
    def test_use_checkpoint_accepts_only_true(self, deployment):
        make_experiment(deployment, use_checkpoint=True)
        for value in (False, None, 1):
            with pytest.raises(ValueError, match="only True"):
                make_experiment(deployment, use_checkpoint=value)

    def test_checkpoint_run_emits_fork_phases(self, deployment):
        experiment = make_experiment(deployment)
        tracer = telemetry.TraceRecorder()
        with telemetry.using(telemetry.Telemetry(tracer=tracer)):
            for site in deployment.site_names[:2]:
                experiment.run_site(Anycast(), site)
        names = phase_names(tracer)
        assert names.count("baseline-converge") == 1  # shared by both cells
        assert names.count("fork-restore") == 2
        assert "deploy-converge" not in names

    def test_sweep_precomputes_baselines_in_parent(self, deployment):
        from repro.parallel.sweep import shared_state

        techniques = [technique_by_name("anycast"), technique_by_name("combined")]
        cells = matrix(techniques, deployment.site_names[:2])
        shared = shared_state(make_experiment(deployment), cells)
        assert sorted(shared.baselines) == sorted(t.baseline_key for t in techniques)

    def test_sweep_cells_run_the_callers_subclass(self, deployment):
        """``run_all_sites`` reaches the pool, which rebuilds an experiment
        per cell; it must be the caller's class, or the cold-start
        reference below would silently fork."""
        prepared: list[str] = []

        class Recording(FailoverExperiment):
            def prepare_network(self, technique, site, **kwargs):
                prepared.append(site)
                return super().prepare_network(technique, site, **kwargs)

        experiment = Recording(deployment.topology, deployment, make_config())
        experiment.run_all_sites(Anycast(), ["msn"])
        assert prepared == ["msn"]


# ----------------------------------------------------------------------
# Fork vs cold start, in distribution


class ColdStartExperiment(FailoverExperiment):
    """The cold-start reference: each run builds a fresh network with the
    run's seed and converges the technique's whole announcement plan
    (``CdnController.deploy``) instead of forking a baseline."""

    def prepare_network(self, technique, site, *, seed, capacity):
        config = self.config
        controller, _ = deploy_cell(
            self.topology,
            self.deployment,
            technique,
            site,
            seed=seed,
            timing=config.timing,
            damping=config.damping,
            capacity=capacity,
            detection_delay=config.detection_delay,
        )
        return controller


def ks_statistic(a: Cdf, b: Cdf) -> float:
    """Two-sample Kolmogorov-Smirnov distance between two CDFs; censored
    samples (never recovered in the window) sit above every finite
    value."""
    points = set(a.series()[0]) | set(b.series()[0])
    return max((abs(a.at(x) - b.at(x)) for x in points), default=0.0)


class TestForkMatchesColdStart:
    """The default ``repro compare`` configuration (300 s window, 20
    targets per site), pooled over seeds 1-4. Superprefix and prepending
    split their plan into a base and a per-site delta, so a fork could
    bias them. The bound sits above the fork-vs-cold noise (largest KS
    measured over the compare roster: 0.15) and below the
    withdrawal-order bias it guards against (superprefix KS 0.43)."""

    SEEDS = (1, 2, 3, 4)
    TECHNIQUES = ("proactive-prepending-3", "proactive-superprefix")
    KS_BOUND = 0.25

    @pytest.fixture(scope="class")
    def runs(self, deployment):
        """technique -> (forked results, cold results), seeds pooled."""
        runs = {name: ([], []) for name in self.TECHNIQUES}
        for seed in self.SEEDS:
            config = FailoverConfig(probe_duration=300.0, targets_per_site=20, seed=seed)
            fork = FailoverExperiment(deployment.topology, deployment, config)
            techniques = (ProactivePrepending(3), ProactiveSuperprefix())
            for technique in techniques:
                runs[technique.name][0].extend(fork.run_all_sites(technique))
            cold = ColdStartExperiment(
                deployment.topology, deployment, config,
                catchment=fork.catchment, hitlist=fork.hitlist,
                selections=fork.cached_selections(),
            )
            for technique in techniques:
                runs[technique.name][1].extend(cold.run_all_sites(technique))
        return runs

    def cdfs(self, runs, name: str, metric: str) -> tuple[Cdf, Cdf]:
        return tuple(
            Cdf.from_optional([getattr(o, metric) for o in pooled_outcomes(results)])
            for results in runs[name]
        )

    @pytest.mark.parametrize("metric", ["reconnection_s", "failover_s"])
    @pytest.mark.parametrize("name", TECHNIQUES)
    def test_distributions_match(self, runs, name, metric):
        forked, cold = self.cdfs(runs, name, metric)
        assert forked.n == cold.n > 300
        assert ks_statistic(forked, cold) <= self.KS_BOUND

    def test_superprefix_failover_median_matches(self, runs):
        forked, cold = self.cdfs(runs, "proactive-superprefix", "failover_s")
        assert forked.median() == pytest.approx(cold.median(), rel=0.15)

    def test_same_controllable_targets(self, runs):
        """The base/delta decomposition reaches the same pre-failure
        controllable set as deploying the whole plan at once."""
        for name, (forked, cold) in runs.items():
            for fork_result, cold_result in zip(forked, cold, strict=True):
                assert fork_result.site == cold_result.site
                assert set(fork_result.controllable) == set(cold_result.controllable), (
                    name, fork_result.site,
                )
