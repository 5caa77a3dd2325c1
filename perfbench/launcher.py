"""Start ``repro serve`` with per-layer span recorders around public calls.

Usage::

    python perfbench/launcher.py [--record OUT.json] [--double-classifier] \\
        -- serve --port 0 ...

The launcher wraps each layer's public entry point in an in-memory
recorder, then hands the remaining arguments to the CLI's entry point.
A wrapper notes its call's duration and its *self* time (duration minus
the time of wrapped calls nested inside it on the same thread) against
the request it served: worker-thread calls find the request through the
wire trace context the dispatcher activates for traced requests, codec
calls through the request id.  On exit the recorder writes everything to
``--record``, together with the program's own ``dispatch.*`` spans and
the counter deltas between the generator's two ``health`` marks.

``--double-classifier`` runs ``StateClassifier.classify_window`` twice
per call, doubling that layer's cost for the attribution self-test.

Nothing here changes what the server computes; no span is added inside
the program.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
import time

#: Counters read at the marks (names from repro.obs.instruments).
COUNTERS = (
    "incremental_cache_hits_total",
    "incremental_cache_misses_total",
    "fleet_kernels_rebuilt_total",
    "fleet_kernels_reused_total",
    "serve_shed_total",
    "serve_coalesced_requests_total",
)


class Recorder:
    """Per-call records: (layer, request key, duration s, self s, extra)."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, str, float, float, float]] = []
        self.marks: dict[str, dict] = {}
        self._local = threading.local()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def depth(self) -> int:
        return len(self._stack())

    def wrap(self, fn, layer: str, key_of, extra_of=None):
        """``fn`` recorded as ``layer``; ``key_of(args, result)`` names the request."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
            extra = extra_of(args, result) if extra_of is not None else 0.0
            calls.append((layer, key_of(args, result), dur, dur - child, extra))
            return result

        return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Rebind a module-level function in every module that imported it."""
    for module in list(sys.modules.values()):
        for name, value in list(getattr(module, "__dict__", {}).items()):
            if value is original:
                setattr(module, name, replacement)


def install(rec: Recorder) -> None:
    """Wrap each layer's public functions with ``rec``'s recorders."""
    from repro.audit import PredictionAudit
    from repro.core import smp
    from repro.core.classifier import StateClassifier
    from repro.fleet import kernel as fleet_kernel
    from repro.fleet.predictor import FleetPredictor
    from repro.obs.instruments import instrument
    from repro.obs.tracing import current_context
    from repro.serve.dispatch import Dispatcher
    from repro.serve.protocol import Request, Response
    from repro.service import AvailabilityService
    from repro.store import wal
    from repro.store.store import TraceStore

    def key(_args, _result) -> str:
        """The request a worker-thread call serves: its wire trace id."""
        ctx = current_context()
        return "" if ctx is None else ctx.trace_id

    StateClassifier.classify_window = rec.wrap(
        StateClassifier.classify_window, "core.classifier", key)
    _replace_everywhere(smp.kernel_from_observations, rec.wrap(
        smp.kernel_from_observations, "core.estimator", key))
    _replace_everywhere(smp.temporal_reliability, rec.wrap(
        smp.temporal_reliability, "core.smp", key,
        lambda args, _r: float(args[0].horizon)))
    FleetPredictor.scan = rec.wrap(FleetPredictor.scan, "fleet.scan", key)
    _replace_everywhere(fleet_kernel.solve_fleet, rec.wrap(
        fleet_kernel.solve_fleet, "fleet.solve", key))
    AvailabilityService.append_samples = rec.wrap(
        AvailabilityService.append_samples, "service.ingest", key)
    TraceStore.append = rec.wrap(TraceStore.append, "store.append", key)
    wal.SegmentWriter.append = rec.wrap(
        wal.SegmentWriter.append, "store.wal", key,
        lambda args, _r: float(len(args[1])))
    PredictionAudit.record_prediction = rec.wrap(
        PredictionAudit.record_prediction, "audit.record", key)
    PredictionAudit.observe_ingest = rec.wrap(
        PredictionAudit.observe_ingest, "audit.resolve", key)

    # fsync is a store cost only inside a store append; elsewhere
    # (segment headers at start-up) it is not on a request's path.
    real_fsync = os.fsync
    timed_fsync = rec.wrap(real_fsync, "store.fsync", key)
    os.fsync = lambda fd: timed_fsync(fd) if rec.depth() else real_fsync(fd)

    decode = Request.__dict__["decode"].__func__
    Request.decode = classmethod(rec.wrap(
        decode, "serve.protocol.decode", lambda _a, r: r.id,
        lambda args, _r: float(len(args[1]))))
    Response.encode = rec.wrap(
        Response.encode, "serve.protocol.encode", lambda args, _r: args[0].id,
        lambda _a, r: float(len(r)))

    submit = Dispatcher.submit

    @functools.wraps(submit)
    def marked_submit(self, request):
        mark = request.params.get("perfbench_mark") if request.op == "health" else None
        if mark is not None:
            rec.marks[str(mark)] = {
                "wall": time.time(),
                "counters": {name: instrument(name).value for name in COUNTERS},
            }
        return submit(self, request)

    Dispatcher.submit = marked_submit


def double_classifier() -> None:
    """Make every ``classify_window`` call do its work twice."""
    from repro.core.classifier import StateClassifier

    once = StateClassifier.classify_window

    @functools.wraps(once)
    def twice(self, view):
        once(self, view)
        return once(self, view)

    StateClassifier.classify_window = twice


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", help="write the recorded calls here on exit")
    parser.add_argument("--double-classifier", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from repro import cli
    from repro.obs.tracing import SpanRecorder, get_recorder, set_recorder

    if args.double_classifier:
        double_classifier()
    rec = None
    if args.record:
        # Keep every program span of the run in memory (no file sink:
        # the generator reads them from the record after the drain).
        set_recorder(SpanRecorder(capacity=2_000_000))
        rec = Recorder()
        install(rec)
    code = cli.main(serve_args)
    if rec is not None:
        program = [
            (s.name, s.trace_id, s.duration_s)
            for s in get_recorder().spans()
            if s.name in ("dispatch.queue_wait", "dispatch.compute")
        ]
        with open(args.record, "w") as fh:
            json.dump({"calls": rec.calls, "program": program, "marks": rec.marks}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
