"""``repro failover`` -- fail one site under one technique (§5.2)."""

from __future__ import annotations

import argparse
import logging
from collections import Counter

from repro.cli.common import (
    add_parallel_arguments,
    add_preflight_arguments,
    add_telemetry_arguments,
    add_workload_arguments,
    cell_timeout,
    report_sweep_failures,
    resolve_capacity,
    resolve_workload,
    run_gate,
    telemetry_session,
)
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import TECHNIQUES, technique_by_name
from repro.measurement.stats import summarize
from repro.parallel import SweepCell, run_sweep
from repro.topology.generator import TopologyParams
from repro.topology.testbed import build_deployment

logger = logging.getLogger(__name__)


def add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--targets", type=int, default=20, help="targets per site")
    parser.add_argument(
        "--duration", type=float, default=300.0, help="probing window (sim s)"
    )
    parser.add_argument(
        "--detection-delay", type=float, default=2.0,
        help="monitoring reaction time (sim s)",
    )
    parser.add_argument(
        "--silent", action="store_true",
        help="silent failure: the site cannot withdraw its own prefixes",
    )
    add_workload_arguments(parser)


def make_experiment(args: argparse.Namespace) -> FailoverExperiment:
    deployment = build_deployment(params=TopologyParams(seed=args.seed))
    config = FailoverConfig(
        probe_duration=args.duration,
        targets_per_site=args.targets,
        detection_delay=args.detection_delay,
        seed=args.seed,
        silent_failure=args.silent,
        workload=resolve_workload(args),
        capacity=resolve_capacity(args),
    )
    return FailoverExperiment(deployment.topology, deployment, config)


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "failover", help="fail one site under one technique and measure recovery"
    )
    parser.add_argument(
        "-t", "--technique", choices=sorted(TECHNIQUES), default="reactive-anycast"
    )
    parser.add_argument("-s", "--site", default="sea1")
    parser.add_argument("--prepend", type=int, default=3,
                        help="prepend count for proactive-prepending")
    add_scale_arguments(parser)
    add_parallel_arguments(parser)
    add_preflight_arguments(parser)
    add_telemetry_arguments(parser)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    kwargs = {"prepend": args.prepend} if args.technique == "proactive-prepending" else {}
    technique = technique_by_name(args.technique, **kwargs)

    with telemetry_session(args):
        experiment = make_experiment(args)
        if args.site not in experiment.deployment.sites:
            print(f"unknown site {args.site!r}; have {experiment.deployment.site_names}")
            return 2
        if not run_gate(
            args, experiment.deployment, [technique],
            duration=args.duration, detection_delay=args.detection_delay,
            specific_site=args.site,
            workload=experiment.config.workload,
            capacity=experiment.config.capacity,
        ):
            return 2
        print(f"failing {args.site} under {technique.name} "
              f"({'silent' if args.silent else 'withdrawing'} failure) ...")
        # One cell through the pool, like every sweep: with workers the
        # run gets crash isolation and the per-cell timeout.
        report = run_sweep(
            experiment, [SweepCell(technique, args.site)],
            workers=args.workers, timeout_s=cell_timeout(args),
        )
        if not report.ok:
            report_sweep_failures(report)
            return 1
        result = report.site_results()[0]
        print(f"selected {len(result.selection.targets)} targets, "
              f"{len(result.controllable)} controllable pre-failure")
        print(f"reconnection: {summarize([o.reconnection_s for o in result.outcomes]).row()}")
        print(f"failover:     {summarize([o.failover_s for o in result.outcomes]).row()}")
        landing = Counter(o.final_site for o in result.outcomes)
        print(f"serving sites after failover: {dict(landing)}")
        if result.workload is not None:
            from repro.workload import render_account

            print(render_account(result.workload))
    return 0
