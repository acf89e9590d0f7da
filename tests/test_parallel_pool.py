"""Tests for the crash-isolated multiprocess cell pool.

Worker functions live at module level so they pickle under the spawn
start method too; under the default fork context that is not strictly
required, but the pool promises it works either way.
"""

import os
import time

from repro import telemetry
from repro.parallel.pool import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellResult,
    map_cells,
    merge_telemetry,
)
from repro.telemetry.trace import CellEnd, CellStart, ProbeSent, TraceRecorder


def _scale(context, payload):
    return context * payload


def _fail_on_odd(context, payload):
    if payload % 2:
        raise RuntimeError(f"odd payload {payload}")
    return payload


def _sleep_for(context, payload):
    time.sleep(payload)
    return payload


def _exit_hard(context, payload):
    os._exit(9)


def _instrumented(context, payload):
    tel = telemetry.current()
    tel.inc("pool.test.work", payload)
    tel.observe("pool.test.payload", float(payload))
    tel.emit(ProbeSent(t=float(payload), target="10.0.0.1", seq=payload))
    return payload


def _cells(payloads):
    return [(f"cell/{i}", p) for i, p in enumerate(payloads)]


class TestSerialPath:
    def test_results_in_order_with_values(self):
        results = map_cells(_scale, 10, _cells([1, 2, 3]), workers=1)
        assert [r.value for r in results] == [10, 20, 30]
        assert [r.index for r in results] == [0, 1, 2]
        assert all(r.status == STATUS_OK for r in results)
        assert all(r.worker == -1 for r in results)  # no subprocess

    def test_error_reported_with_traceback(self):
        results = map_cells(_fail_on_odd, None, _cells([0, 1, 2]), workers=1)
        assert [r.status for r in results] == [STATUS_OK, STATUS_ERROR, STATUS_OK]
        assert "odd payload 1" in results[1].error
        assert results[1].value is None
        assert not results[1].ok

    def test_progress_called_per_cell(self):
        seen = []
        map_cells(
            _scale, 1, _cells([5, 6]), workers=1,
            progress=lambda done, total, result: seen.append((done, total, result.cell_id)),
        )
        assert seen == [(1, 2, "cell/0"), (2, 2, "cell/1")]

    def test_empty_cell_list(self):
        assert map_cells(_scale, 1, [], workers=4) == []

    def test_telemetry_recorded_live(self):
        """Serial cells write straight into the active backend."""
        active = telemetry.Telemetry()
        with telemetry.using(active):
            map_cells(_instrumented, None, _cells([2, 3]), workers=1)
        assert active.counters["pool.test.work"].value == 5


class TestParallelPath:
    def test_matches_serial_output(self):
        payloads = list(range(7))
        serial = map_cells(_scale, 3, _cells(payloads), workers=1)
        parallel = map_cells(_scale, 3, _cells(payloads), workers=2)
        assert [r.value for r in parallel] == [r.value for r in serial]
        assert [r.index for r in parallel] == list(range(7))
        assert all(r.status == STATUS_OK for r in parallel)
        assert all(r.worker >= 0 for r in parallel)

    def test_completion_order_does_not_leak_into_results(self):
        """Cell 0 sleeps longest, so it finishes last; results must
        still come back in input order with the right values."""
        delays = [0.4, 0.01, 0.01, 0.01]
        results = map_cells(_sleep_for, None, _cells(delays), workers=2)
        assert [r.value for r in results] == delays

    def test_error_isolated_to_its_cell(self):
        results = map_cells(_fail_on_odd, None, _cells([0, 1, 2, 3]), workers=2)
        assert [r.status for r in results] == [
            STATUS_OK, STATUS_ERROR, STATUS_OK, STATUS_ERROR,
        ]
        assert "odd payload 3" in results[3].error

    def test_crashed_worker_reported_and_replaced(self):
        """A worker that dies mid-cell loses that cell only; the pool
        respawns and finishes the rest."""
        cells = [("boom", 0), ("c1", 1), ("c2", 2), ("c3", 3)]
        results = map_cells(_mixed_crash, None, cells, workers=2)
        assert results[0].status == STATUS_CRASHED
        assert "exit code" in results[0].error
        assert [r.status for r in results[1:]] == [STATUS_OK] * 3
        assert [r.value for r in results[1:]] == [1, 2, 3]

    def test_timeout_kills_the_cell_not_the_sweep(self):
        delays = [5.0, 0.01, 0.01]
        results = map_cells(
            _sleep_for, None, _cells(delays), workers=2, timeout_s=0.6,
        )
        assert results[0].status == STATUS_TIMEOUT
        assert "timeout" in results[0].error
        assert [r.status for r in results[1:]] == [STATUS_OK, STATUS_OK]

    def test_progress_counts_every_completion(self):
        seen = []
        map_cells(
            _scale, 1, _cells([1, 2, 3, 4]), workers=2,
            progress=lambda done, total, result: seen.append((done, total)),
        )
        assert [done for done, _ in seen] == [1, 2, 3, 4]
        assert all(total == 4 for _, total in seen)


def _mixed_crash(context, payload):
    if payload == 0:
        os._exit(9)
    return payload


class TestTelemetryMerge:
    def test_counters_summed_across_workers(self):
        active = telemetry.Telemetry()
        with telemetry.using(active):
            map_cells(_instrumented, None, _cells([1, 2, 3, 4]), workers=2)
        assert active.counters["pool.test.work"].value == 10
        assert active.histograms["pool.test.payload"].count == 4

    def test_trace_events_bracketed_per_cell(self):
        tracer = TraceRecorder()
        active = telemetry.Telemetry(tracer=tracer)
        with telemetry.using(active):
            map_cells(_instrumented, None, _cells([1, 2]), workers=2)
        events = tracer.events
        # Per cell: CellStart, the cell's own events, CellEnd -- in cell
        # order regardless of completion order.
        kinds = [type(e).__name__ for e in events]
        assert kinds == [
            "CellStart", "ProbeSent", "CellEnd",
            "CellStart", "ProbeSent", "CellEnd",
        ]
        starts = [e for e in events if isinstance(e, CellStart)]
        assert [s.cell for s in starts] == ["cell/0", "cell/1"]
        ends = [e for e in events if isinstance(e, CellEnd)]
        assert all(e.status == STATUS_OK for e in ends)
        assert [e.events for e in ends] == [1, 1]

    def test_disabled_backend_skips_collection(self):
        results = map_cells(_instrumented, None, _cells([1]), workers=2)
        assert results[0].telemetry is None

    def test_merge_telemetry_without_tracer(self):
        """Metrics merge even when the parent records no trace."""
        backend = telemetry.Telemetry()
        result = CellResult(
            index=0, cell_id="c", status=STATUS_OK,
            telemetry=_snapshot_payload(),
        )
        merge_telemetry(backend, [result])
        assert backend.counters["x"].value == 2

    def test_failed_cell_has_no_telemetry_to_merge(self):
        backend = telemetry.Telemetry()
        merge_telemetry(
            backend,
            [CellResult(index=0, cell_id="c", status=STATUS_CRASHED)],
        )
        assert backend.counters == {}


def _snapshot_payload():
    from repro.parallel.pool import CellTelemetry

    worker = telemetry.Telemetry()
    worker.inc("x", 2)
    return CellTelemetry(cell="c", snapshot=worker.mergeable_snapshot(), events=[])


class TestWorkerHygiene:
    def test_worker_does_not_write_parent_backend(self):
        """Under fork the child inherits the parent's registry object;
        the pool must install a private one before running the cell."""
        active = telemetry.Telemetry()
        with telemetry.using(active):
            map_cells(_instrumented, None, _cells([5]), workers=2)
            # The only mutation visible here is the deterministic merge.
            assert active.counters["pool.test.work"].value == 5
            snapshot = active.mergeable_snapshot()
            # Merging is idempotent state, not double-counted live writes.
            assert snapshot["counters"]["pool.test.work"] == 5
