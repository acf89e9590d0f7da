"""Shared CLI helpers: telemetry flags, sessions, and the pre-run gate.

Every experiment subcommand (``failover``, ``compare``, ``sweep``,
``drill``, ``scenario``) accepts the same observability flags::

    --trace PATH        record a structured JSONL trace of the run
    --trace-limit N     keep only the newest N events (ring buffer)
    --metrics           print the counter/histogram dump after the run
    --profile PATH      write per-event-kind wall-clock attribution JSON

:func:`telemetry_session` turns those into an installed
:class:`~repro.telemetry.Telemetry` for the duration of the command and
handles the export on the way out.

The same commands run one pre-run gate, :func:`run_gate`, before any
event fires: the semantic pre-flight validator
(:mod:`repro.analysis.preflight`, PRE1xx) and then the static
control-plane verifier (:mod:`repro.verify`, VER2xx) over the exact
technique/fault configuration about to execute. Findings go to stderr;
ERROR findings from either layer refuse the run unless
``--no-preflight`` was given.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from typing import Iterator

from repro import telemetry

logger = logging.getLogger(__name__)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a JSONL trace of the run's events to PATH",
    )
    group.add_argument(
        "--trace-limit", type=_positive_int, default=None, metavar="N",
        help="bound the trace to the newest N events (ring buffer)",
    )
    group.add_argument(
        "--metrics", action="store_true",
        help="print counters and timing histograms after the run",
    )
    group.add_argument(
        "--profile", metavar="PATH", default=None,
        help="write per-event-kind wall-clock attribution to PATH as JSON "
             "(inspect with 'repro profile PATH')",
    )


def add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("parallel execution")
    group.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="worker processes for the sweep (default 1 = in-process serial; "
             "results are identical for any N)",
    )
    group.add_argument(
        "--cell-timeout", type=float, default=900.0, metavar="S",
        help="wall-clock timeout per sweep cell when --workers > 1 "
             "(0 disables; an overdue cell is reported failed, not hung)",
    )
    group.add_argument(
        "--no-progress", action="store_true",
        help="suppress the sweep progress line on stderr",
    )


def cell_timeout(args: argparse.Namespace) -> float | None:
    """The per-cell timeout for the pool (None when disabled)."""
    timeout = getattr(args, "cell_timeout", 0.0)
    return timeout if timeout and timeout > 0 else None


def sweep_progress(args: argparse.Namespace, total: int):
    """A progress callback for a ``total``-cell sweep, or None.

    Progress is only shown for parallel runs: the serial path keeps its
    historical quiet stderr.
    """
    if getattr(args, "no_progress", False) or total <= 1:
        return None
    if getattr(args, "workers", 1) <= 1:
        return None
    from repro.parallel.progress import ProgressPrinter

    return ProgressPrinter()


def report_sweep_failures(report) -> None:
    """Print failed cells (status + first traceback line) to stderr."""
    for failure in report.failures():
        detail = ""
        if failure.error:
            last = failure.error.strip().splitlines()[-1]
            detail = f": {last}"
        print(
            f"sweep: cell {failure.cell_id} {failure.status}{detail}",
            file=sys.stderr,
        )


def add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", metavar="PROFILE", default=None,
        help="stream synthetic client traffic during the run: a builtin "
             "profile name (constant, diurnal, flash-crowd, "
             "regional-surge) or a JSON profile path (docs/workload.md); "
             "adds request-level loss and user-minutes-lost accounting",
    )
    parser.add_argument(
        "--capacity", metavar="SPEC", default=None,
        help="per-site serving capacity: a uniform requests/second number "
             "or a JSON capacity profile path (docs/load.md); with "
             "--workload, requests over a site's budget are lost to "
             "overload and shedding techniques react",
    )


def resolve_capacity(args: argparse.Namespace):
    """The parsed ``--capacity`` profile, or None when the flag is absent.

    Load errors print to stderr and exit 2, like ``--workload``.
    """
    spec = getattr(args, "capacity", None)
    if spec is None:
        return None
    from repro.workload import load_capacity

    try:
        return load_capacity(spec)
    except (OSError, ValueError) as error:
        print(f"cannot load capacity profile: {error}", file=sys.stderr)
        raise SystemExit(2) from error


def resolve_fault_plan(args: argparse.Namespace):
    """The parsed ``--faults`` plan, or None when the flag is absent.

    Load errors print to stderr and exit 2, like ``--workload``.
    """
    path = getattr(args, "faults", None)
    if path is None:
        return None
    from repro.faults import load_fault_plan

    try:
        return load_fault_plan(path)
    except (OSError, ValueError) as error:
        print(f"cannot load fault plan: {error}", file=sys.stderr)
        raise SystemExit(2) from error


def resolve_workload(args: argparse.Namespace):
    """The parsed ``--workload`` profile, or None when the flag is absent.

    Load errors (unknown builtin, unreadable/malformed JSON) print to
    stderr and exit 2.
    """
    spec = getattr(args, "workload", None)
    if spec is None:
        return None
    from repro.workload import load_profile

    try:
        return load_profile(spec)
    except (OSError, ValueError) as error:
        print(f"cannot load workload profile: {error}", file=sys.stderr)
        raise SystemExit(2) from error


def add_preflight_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-preflight", action="store_true",
        help="run even when the pre-run gate (PRE1xx pre-flight and VER2xx "
             "verify checks) reports errors; its findings are still printed",
    )


def run_gate(
    args: argparse.Namespace,
    deployment,
    techniques,
    *,
    duration: float | None,
    detection_delay: float | None = None,
    specific_site: str | None = None,
    fault_plan=None,
    events=None,
    target_nodes=None,
    workload=None,
    capacity=None,
) -> bool:
    """Validate an experiment before running it: pre-flight, then verify.

    The PRE1xx checks (:func:`repro.analysis.preflight_run`) run first;
    their errors refuse the run before the VER2xx analyses
    (:func:`repro.verify.verify_world`) start, since symbolic
    propagation is unsafe on a deployment that fails PRE122. The
    pre-flight prefix plan is checked for the roster's technique when
    there is exactly one, and technique-independently otherwise.

    Findings go to stderr. Returns False (the command should exit with
    status 2) when either layer has blocking findings and
    ``--no-preflight`` was not given. The gate runs in the parent
    process before any sweep fans out, so its output is byte-identical
    for every ``--workers`` count.
    """
    from repro.analysis import preflight_run
    from repro.verify import VerifyWorld, verify_world

    report = preflight_run(
        deployment,
        technique=techniques[0] if len(techniques) == 1 else None,
        events=events,
        duration=duration,
        detection_delay=detection_delay,
        target_nodes=target_nodes,
        workload=workload,
        capacity=capacity,
    )
    if not _gate_passes(args, "preflight", report):
        return False
    world = VerifyWorld(
        deployment=deployment,
        techniques=techniques,
        specific_site=specific_site,
        fault_plan=fault_plan,
        duration=duration,
        workload=workload,
        capacity=capacity,
        source="<run>",
    )
    return _gate_passes(args, "verify", verify_world(world))


def _gate_passes(args: argparse.Namespace, layer: str, report) -> bool:
    for finding in report.findings:
        print(f"{layer}: {finding.format()}", file=sys.stderr)
    if report.ok:
        return True
    if getattr(args, "no_preflight", False):
        print(
            f"{layer}: {len(report.errors)} error(s) overridden by --no-preflight",
            file=sys.stderr,
        )
        return True
    print(
        f"{layer}: refusing to run with {len(report.errors)} error(s); "
        "use --no-preflight to override",
        file=sys.stderr,
    )
    return False


@contextmanager
def telemetry_session(args: argparse.Namespace) -> Iterator[telemetry.Telemetry | None]:
    """Install telemetry for a command when its flags ask for it.

    Yields the live :class:`~repro.telemetry.Telemetry` (or None when
    neither ``--trace`` nor ``--metrics`` was given). On exit the trace
    is written to the requested path and the metrics dump printed.
    """
    trace_path = getattr(args, "trace", None)
    profile_path = getattr(args, "profile", None)
    want_metrics = getattr(args, "metrics", False)
    if trace_path is None and profile_path is None and not want_metrics:
        yield None
        return
    tracer = None
    for path, label in ((trace_path, "trace"), (profile_path, "profile")):
        if path is None:
            continue
        # Fail fast on an unwritable path rather than after the run.
        try:
            with open(path, "w"):
                pass
        except OSError as error:
            print(f"cannot write {label} file {path}: {error}", file=sys.stderr)
            raise SystemExit(2) from error
    if trace_path is not None:
        tracer = telemetry.TraceRecorder(capacity=getattr(args, "trace_limit", None))
    profiler = None
    if profile_path is not None:
        from repro.obs.profiler import EventProfiler

        profiler = EventProfiler()
    active = telemetry.Telemetry(tracer=tracer, profiler=profiler)
    with telemetry.using(active):
        yield active
    if tracer is not None:
        count = tracer.write_jsonl(trace_path)
        logger.info("wrote %d trace events to %s", count, trace_path)
        if tracer.dropped:
            logger.warning(
                "trace ring buffer evicted %d events (kept the newest %d)",
                tracer.dropped, len(tracer),
            )
    if profiler is not None:
        with open(profile_path, "w") as handle:
            json.dump(profiler.state(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        logger.info("wrote profile to %s", profile_path)
    if want_metrics:
        print()
        print(active.render())
