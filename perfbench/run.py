"""Run one benchmark workload against the real server and check its answers.

Usage::

    python3 perfbench/run.py --workload warm_poll --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time, exact read
and write latency quantiles under an open-loop schedule, the sustained
read rate on the workload's ladder, and the server's peak memory.
``--trace 1`` measures the per-layer metrics instead: it runs the same
schedule once untraced and once through the recording launcher, and
reports each layer's work, busy time and share of the traced median
read latency.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every served answer that was checked is right.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Server spawns per untraced run; ``setup_s`` is their median.
N_SETUP = 3
#: Latency quantiles count only the requests sent while the host was
#: least disturbed: a phase is cut into windows of this length (s) by
#: scheduled send time, and a window counts when no more of the host's
#: CPU time was stolen in it than in the quietest ``QUIET_SHARE`` of the
#: windows.  On a quiet host that is every window.
QUIET_WINDOW_S = 0.1
QUIET_SHARE = 0.25
#: Rounds of one chunk per machine sent before any write is timed.
WRITE_WARMUP_ROUNDS = 2
#: Length (s) of one sustained-rate ladder step.
STEP_S = 2.0
#: A seed reserved for confirming claims; never used while tuning.
HELD_OUT_SEED = 7919


def _connections() -> int:
    """One connection per core, at most two."""
    return max(1, min(2, os.cpu_count() or 1))


def _latencies(outcomes, penalty_ms: float) -> list[float]:
    """Latency from the scheduled send; a failed request counts as ``penalty_ms``."""
    return [o.latency_ms if o.ok else max(penalty_ms, o.latency_ms) for o in outcomes]


def quiet_quantile(phase, kind: str, q: float, penalty_ms: float) -> float:
    """Exact quantile over the requests sent in the phase's quiet windows.

    See :data:`QUIET_WINDOW_S`.  The sample is pooled over the kept
    windows, so a tail quantile rests on every quiet request of the
    phase, while moments in which the neighbouring VMs took the host's
    CPU are left out at the scale on which they come and go.
    """
    from ledger import quantile

    n = max(1, round(phase.duration_s / QUIET_WINDOW_S))
    width = phase.duration_s / n
    steal = [phase.steal_share(phase.started + i * width, phase.started + (i + 1) * width)
             for i in range(n)]
    cutoff = sorted(steal)[math.ceil(n * QUIET_SHARE) - 1]
    kept = [o for o in phase.of(kind)
            if steal[min(n - 1, int((o.sched - phase.started) / width))] <= cutoff]
    return quantile(_latencies(kept, penalty_ms), q)


def _fingerprint(args, workload) -> dict:
    import numpy as np

    from workloads import HISTORY_DAYS, N_MACHINES, SAMPLE_PERIOD

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fleet": f"{N_MACHINES} machines x {HISTORY_DAYS} days @ {SAMPLE_PERIOD:g} s",
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "read_rate": workload.read_rate,
        "write_rate": workload.write_rate,
        "catchup_rate": workload.catchup_rate,
        "connections": _connections(),
    }


def _all_ok(outcomes, what: str) -> None:
    bad = [o for o in outcomes if not o.ok]
    if bad:
        raise RuntimeError(f"{what} request failed: {bad[0].status} {bad[0].result}")


async def _session(workload, inputs, server, seconds: float, *, traced=False):
    """Connect, warm up the write path, run the write phase and warm-up.

    Returns the connections and the write phase (``None`` when the
    workload interleaves its writes with the timed reads instead).
    """
    from loadgen import Connections

    conns = await Connections.open(server.port, _connections())
    # Untimed: every monitor delivers its first chunks at once, as on
    # reconnecting to a restarted server.  A fresh server's first extends
    # of a machine are slow, and concurrent ones bring up every worker
    # thread, so the timed writes meet the server in the same state on
    # every run.
    for _ in range(WRITE_WARMUP_ROUNDS):
        ops = workload.schedule(inputs, None, 1.0, 0.0, len(workload.machines(inputs)))
        warm = await conns.gather(ops, limit=len(ops))
        _all_ok(warm, "write warm-up")
        workload.resync(inputs, warm)
    catchup = None
    if workload.catchup_rate:
        ops = workload.schedule(inputs, None, seconds / 2, 0.0, workload.catchup_rate)
        catchup = await conns.run(ops, seconds / 2, traced=traced)
    _all_ok(await conns.gather(workload.warmup(inputs)), "warm-up")
    return conns, catchup


async def _timed(workload, inputs, conns, seed: int, seconds: float, *, traced=False):
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    ops = workload.schedule(inputs, rng, seconds, workload.read_rate, workload.write_rate)
    if traced:
        await conns.call("health", {"perfbench_mark": "start"})
    phase = await conns.run(ops, seconds, traced=traced)
    if traced:
        await conns.call("health", {"perfbench_mark": "end"})
    return phase


def _crossing(low: tuple[float, float], high: tuple[float, float], limit: float) -> float:
    """Rate at which the read p99 reaches ``limit`` between two ladder steps.

    ``low`` and ``high`` are (rate, p99) of the highest passing and the
    lowest failing step; p99 is interpolated linearly in log-log space.
    """
    (r0, p0), (r1, p1) = low, high
    share = (math.log(limit) - math.log(p0)) / (math.log(p1) - math.log(p0))
    return r0 * (r1 / r0) ** share


async def _ladder(workload, inputs, conns, seed: int):
    """Read rate at which the read p99 reaches the workload's limit.

    Returns that rate and every probed step's outcomes.  A step fails
    when its read p99 over the quiet windows exceeds the limit, a failed
    or shed request counting as a latency of the whole step: a backlog
    that grows through the step reaches every window, while a burst of
    host contention is left out with its windows.  Latency rises with
    rate, so the highest passing step of the geometric ladder is found
    by bisection; the reported rate is interpolated between it and the
    lowest failing step.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 2])
    rates = workload.ladder_rates()
    probed: dict[int, float] = {}
    served = []
    lo, hi = 0, len(rates) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        ops = workload.schedule(inputs, rng, STEP_S, rates[mid], workload.write_rate)
        # No spin: at these rates the sender would poll without pause and
        # take a core from the server, and a millisecond late is nothing
        # against the p99 limit.
        phase = await conns.run(ops, STEP_S, spin=False)
        workload.resync(inputs, phase.outcomes)
        served += phase.outcomes
        probed[mid] = quiet_quantile(phase, "read", 0.99, STEP_S * 1e3)
        if probed[mid] > workload.p99_limit_ms:
            hi = mid - 1
        else:
            lo = mid + 1
    if hi < 0 or lo >= len(rates):
        # Capacity moved off the ladder: report its end, and say so.
        print(f"warning: read p99 limit not crossed on the ladder {probed}", file=sys.stderr)
        return rates[0] if hi < 0 else rates[-1], served
    sustained = _crossing((rates[hi], probed[hi]), (rates[lo], probed[lo]),
                          workload.p99_limit_ms)
    return sustained, served


def _latency_metrics(reads, writes, penalty_ms: float, quantiles) -> dict:
    out = {}
    for kind, phase in (("read", reads), ("write", writes)):
        for q in quantiles:
            out[f"{kind}_p{round(q * 100)}_ms"] = (
                quiet_quantile(phase, kind, q, penalty_ms), "ms")
    return out


async def run_untraced(args, workload, inputs, workdir: Path):
    from ledger import quantile
    from spawn import Server

    setups, server = [], None
    for i in range(N_SETUP):
        workload.fresh_state(inputs)
        server = Server(workload.server_args(inputs), workdir, f"setup{i}",
                        double_classifier=args.double_classifier)
        setups.append(server.start())
        if i < N_SETUP - 1:
            server.stop()
    try:
        conns, catchup = await _session(workload, inputs, server, args.seconds)
        main = await _timed(workload, inputs, conns, args.seed, args.seconds)
        # Peak memory of set-up, warm-up and the timed phase; the ladder's
        # overload step would add queue buffers that vary run to run.
        rss = server.peak_rss_mb()
        sustained, ladder_served = await _ladder(workload, inputs, conns, args.seed)
        outcomes = (catchup.outcomes if catchup else []) + main.outcomes
        checker = await workload.check(inputs, outcomes + ladder_served, conns,
                                       _check_rng(args.seed))
        await conns.close()
    finally:
        server.stop()
    metrics = {
        "setup_s": (median(setups), "s"),
        **_latency_metrics(main, catchup or main, args.seconds * 1e3, (0.5, 0.9)),
        "sustained_rps": (sustained, "1/s"),
        "server_rss_mb": (rss, "MiB"),
    }
    # The p99s are reported but not gated: on a shared host they move with
    # the hypervisor's pauses more than with the program (see README).
    tails = _latency_metrics(main, catchup or main, args.seconds * 1e3, (0.99,))
    info = {"reads": len(main.of("read")),
            "writes": len((catchup or main).of("write")),
            "late_p99_ms": quantile([o.late_ms for o in main.outcomes], 0.99),
            **{name: round(value, 3) for name, (value, _) in tails.items()}}
    return outcomes, checker, metrics, info


async def run_traced(args, workload, inputs, workdir: Path):
    from ledger import layer_metrics, quantile
    from spawn import Server

    # Two half-length runs: an untraced twin of the traced one (same
    # schedule) prices the tracing itself.
    half = args.seconds / 2
    workload.fresh_state(inputs)
    plain = Server(workload.server_args(inputs), workdir, "plain",
                   double_classifier=args.double_classifier)
    plain.start()
    try:
        conns, plain_catchup = await _session(workload, inputs, plain, half)
        untraced = await _timed(workload, inputs, conns, args.seed, half)
        await conns.close()
    finally:
        plain.stop()

    record_path = workdir / "record.json"
    workload.fresh_state(inputs)
    server = Server(workload.server_args(inputs), workdir, "traced", record=record_path,
                    double_classifier=args.double_classifier)
    server.start()
    try:
        conns, catchup = await _session(workload, inputs, server, half, traced=True)
        traced = await _timed(workload, inputs, conns, args.seed, half, traced=True)
        traced_outcomes = (catchup.outcomes if catchup else []) + traced.outcomes
        checker = await workload.check(inputs, traced_outcomes, conns, _check_rng(args.seed))
        await conns.close()
    finally:
        server.stop()
    record = json.loads(record_path.read_text())
    layers = layer_metrics(record, traced_outcomes)
    plain_p50 = quantile([o.latency_ms for o in untraced.of("read") if o.ok], 0.5)
    layers["ledger.trace_overhead_ms"] = layers["ledger.traced_read_p50_ms"] - plain_p50
    layers["loadgen.late_p99_ms"] = quantile([o.late_ms for o in untraced.outcomes], 0.99)
    outcomes = ((plain_catchup.outcomes if plain_catchup else []) + untraced.outcomes
                + traced_outcomes)
    layers["failed_frac"] = sum(not o.ok for o in outcomes) / len(outcomes)
    layers.update((name, value) for name, (value, _) in _latency_metrics(
        untraced, plain_catchup or untraced, half * 1e3, (0.99,)).items())
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    info = {"reads": len(traced.of("read")),
            "writes": sum(o.op.kind == "write" for o in traced_outcomes)}
    return outcomes, checker, metrics, info


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_bytes", "bytes"),
                         ("bytes_appended", "bytes"), ("_share", "ratio"),
                         ("_ratio", "ratio"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _check_rng(seed: int):
    import numpy as np

    return np.random.default_rng([seed, 3])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--double-classifier", action="store_true",
                        help="run every classify_window twice in the server "
                        "(attribution self-test)")
    args = parser.parse_args(argv)
    # A terminated run still stops the servers it started (the finally
    # blocks run on the way out).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources ({SRC}/repro) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from loadgen import cpu_times
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = HERE.parent / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0, (steal0, total0) = time.perf_counter(), cpu_times()
    try:
        inputs = workload.prepare(args.seed, workdir)
        run = run_traced if args.trace else run_untraced
        outcomes, checker, metrics, info = asyncio.run(run(args, workload, inputs, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    failed_ops = sum(not o.ok for o in outcomes)
    attempted = len(outcomes)
    failed = failed_ops + len(checker.mismatches)
    print(f"fingerprint: {json.dumps(_fingerprint(args, workload))}")
    print(f"run: {info}; answers checked {checker.checked}, "
          f"mismatches {len(checker.mismatches)}, "
          f"failed_frac {failed / attempted:.6f}, wall {time.perf_counter() - t0:.1f} s")
    # Figures from a run whose host lost much CPU to its neighbours are suspect.
    steal1, total1 = cpu_times()
    print(f"host: {(steal1 - steal0) / max(1, total1 - total0):.3f} of CPU time stolen "
          "during the run")
    for line in checker.mismatches[:5]:
        print(f"MISMATCH {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    result = {
        "correct": not checker.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
