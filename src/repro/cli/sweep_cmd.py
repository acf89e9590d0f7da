"""``repro sweep`` -- the full ⟨technique, failed site⟩ matrix, sharded
over workers, with a JSON archive of every cell.

``repro compare`` prints Figure 2; this command is the batch version:
it runs the same matrix (any subset of techniques and sites), fans the
cells out over ``--workers`` processes, and writes the complete per-cell
and pooled results to disk via :mod:`repro.measurement.export`, so runs
can be diffed across revisions or analysed outside Python. The exported
document is byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
from collections import Counter

from repro.cli.common import (
    add_parallel_arguments,
    add_preflight_arguments,
    add_telemetry_arguments,
    cell_timeout,
    report_sweep_failures,
    run_gate,
    sweep_progress,
    telemetry_session,
)
from repro.cli.failover import add_scale_arguments, make_experiment
from repro.core.techniques import TECHNIQUES, technique_by_name
from repro.measurement.export import save_json, sweep_report_to_dict
from repro.measurement.stats import summarize
from repro.parallel import matrix, run_sweep

#: compare's five-technique roster; the sweep default
DEFAULT_TECHNIQUES = (
    "anycast",
    "reactive-anycast",
    "proactive-prepending",
    "proactive-superprefix",
    "combined",
)


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "sweep",
        help="run the ⟨technique, failed site⟩ matrix and export JSON",
    )
    parser.add_argument(
        "-t", "--techniques", nargs="*", choices=sorted(TECHNIQUES),
        default=list(DEFAULT_TECHNIQUES), metavar="TECHNIQUE",
        help=f"techniques to sweep (default: {' '.join(DEFAULT_TECHNIQUES)})",
    )
    parser.add_argument(
        "--sites", nargs="*", default=None,
        help="sites to fail (default: all eight)",
    )
    parser.add_argument(
        "-o", "--output", default="sweep.json", metavar="PATH",
        help="JSON archive path (default: sweep.json)",
    )
    parser.add_argument("--prepend", type=int, default=3,
                        help="prepend count for proactive-prepending")
    add_scale_arguments(parser)
    add_parallel_arguments(parser)
    add_preflight_arguments(parser)
    add_telemetry_arguments(parser)
    parser.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    with telemetry_session(args):
        experiment = make_experiment(args)
        sites = args.sites or experiment.deployment.site_names
        unknown = [s for s in sites if s not in experiment.deployment.sites]
        if unknown:
            print(f"unknown site(s) {unknown}; have {experiment.deployment.site_names}")
            return 2
        techniques = [
            technique_by_name(name, prepend=args.prepend)
            if name == "proactive-prepending" else technique_by_name(name)
            for name in args.techniques
        ]
        if not run_gate(
            args, experiment.deployment, techniques,
            duration=args.duration, detection_delay=args.detection_delay,
            workload=experiment.config.workload,
            capacity=experiment.config.capacity,
        ):
            return 2

        cells = matrix(techniques, list(sites))
        report = run_sweep(
            experiment, cells,
            workers=args.workers,
            timeout_s=cell_timeout(args),
            progress=sweep_progress(args, len(cells)),
        )
        report_sweep_failures(report)

        statuses = Counter(r.status for r in report.results)
        status_text = ", ".join(f"{n} {s}" for s, n in sorted(statuses.items()))
        print(f"sweep: {len(cells)} cells over {report.workers} worker(s) "
              f"in {report.wall_s:.1f}s ({status_text})")
        for technique in techniques:
            outcomes = [
                o for r in report.results_for(technique.name) for o in r.outcomes
            ]
            print(f"  {technique.name:26s} "
                  f"failover {summarize([o.failover_s for o in outcomes]).row()}")
        if experiment.config.workload is not None:
            from repro.workload import merge_accounts, render_account

            for technique in techniques:
                accounts = [
                    r.workload for r in report.results_for(technique.name)
                    if r.workload is not None
                ]
                if accounts:
                    print(f"  {technique.name:26s} "
                          f"{render_account(merge_accounts(accounts))}")

        path = save_json(args.output, sweep_report_to_dict(report))
        print(f"wrote {path}")
    return 0 if report.ok else 1
