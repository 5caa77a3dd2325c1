"""The benchmark's workloads: seeded inputs, traffic mixes, answer checks.

Every workload runs over a fleet shaped like the paper's testbed: 20
synthetic lab machines (``synthesize_testbed(seed)``) with 15 days of
history sampled every 6 s.  Everything random — the fleet, the query
sequence, the monitor chunks — derives from the ``--seed`` argument; the
server receives only the generated traces and requests.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from loadgen import Op, Outcome

N_MACHINES = 20
HISTORY_DAYS = 15
SAMPLE_PERIOD = 6.0
DAY = 86400.0
#: Samples per monitor chunk (one minute of monitoring).
CHUNK = 10
#: Samples held back from the server's starting history: the monitor
#: stream starts three minutes before midnight, so its writes cross a
#: day boundary.
HELD_BACK = 30
#: Answers must match the reference to this absolute tolerance.
TOLERANCE = 1e-9


@dataclass
class Inputs:
    """Generated inputs of one run, on disk and in memory."""

    seed: int
    history: dict[str, Any]  # what the server starts with, per machine
    #: Each machine's full generated trace (one day beyond the history)
    #: and the sample its history ends at.
    stream: dict[str, Any]
    cut: int
    #: The monitors' progress: the machine whose chunk comes next, and
    #: each machine's next and last acknowledged sample.
    cursor: int = 0
    position: dict[str, int] = field(default_factory=dict)
    acked: dict[str, int] = field(default_factory=dict)
    traces_dir: Path | None = None
    store_pristine: Path | None = None
    store_live: Path | None = None


def _window_params(machine: str | None, start_hour: float, hours: float,
                   day_type: str) -> dict[str, Any]:
    params: dict[str, Any] = {"start_hour": start_hour, "hours": hours,
                              "day_type": day_type}
    if machine is not None:
        params["machine"] = machine
    return params


def _samples(trace, lo: int, hi: int):
    """Samples ``lo:hi`` of a trace, as a trace on the same grid."""
    from repro.traces.trace import MachineTrace

    return MachineTrace(
        machine_id=trace.machine_id,
        start_time=trace.start_time + lo * trace.sample_period,
        sample_period=trace.sample_period,
        load=trace.load[lo:hi],
        free_mem_mb=trace.free_mem_mb[lo:hi],
        up=trace.up[lo:hi],
    )


def _extend_params(chunk) -> dict[str, Any]:
    return {
        "machine": chunk.machine_id,
        "start_time": chunk.start_time,
        "sample_period": chunk.sample_period,
        "load": chunk.load.tolist(),
        "free_mem_mb": chunk.free_mem_mb.tolist(),
        "up": chunk.up.tolist(),
    }


def reference_service(histories):
    """A fresh in-process service over ``histories``: no shared caches."""
    from repro.service import AvailabilityService

    service = AvailabilityService()
    for trace in histories:
        service.register(trace)
    return service


def _balanced(rng: np.random.Generator, n: int, pattern) -> np.ndarray:
    """``n`` draws that repeat ``pattern`` as evenly as possible, shuffled."""
    return rng.permutation(np.resize(np.asarray(tuple(pattern)), n))


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` values in [0, 1), one in each of ``n`` equal strata, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _same(a: float, b: float) -> bool:
    if a is None or b is None:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TOLERANCE


class Checker:
    """Recomputes served answers on a fresh reference service.

    Each distinct (op, machine(s), window, day type) is recomputed once;
    every served answer for it must match within :data:`TOLERANCE`.
    """

    def __init__(self, service) -> None:
        self.service = service
        self._memo: dict[tuple, Any] = {}
        self.checked = 0
        self.mismatches: list[str] = []

    def _reference(self, op: str, params: dict[str, Any]) -> Any:
        from repro.core.windows import ClockWindow, DayType

        machines = params.get("machines")
        key = (op, params.get("machine"), params["start_hour"], params["hours"],
               params["day_type"], tuple(machines) if machines else None)
        if key not in self._memo:
            window = ClockWindow.from_hours(params["start_hour"], params["hours"])
            dtype = DayType(params["day_type"])
            if op == "predict":
                ref = self.service.predict(params["machine"], window, dtype)
            elif op == "predict_batch":
                ref = self.service.predict_batch(machines, window, dtype)
            else:
                ref = {r.machine_id: r.tr for r in self.service.rank(window, dtype)}
                ref = (list(ref), ref)
            self._memo[key] = ref
        return self._memo[key]

    def check(self, outcome: Outcome) -> None:
        """Compare one served read with the reference."""
        op, params, result = outcome.op.op, outcome.op.params, outcome.result
        ref = self._reference(op, params)
        self.checked += 1
        if op == "predict":
            ok = _same(result["tr"], ref)
        elif op == "predict_batch":
            got = {p["machine"]: p["tr"] for p in result["predictions"]}
            ok = got.keys() == ref.keys() and all(_same(got[m], ref[m]) for m in ref)
        else:
            order, trs = ref
            got = [(r["machine"], r["tr"]) for r in result["ranking"]]
            ok = [m for m, _ in got] == order and all(_same(t, trs[m]) for m, t in got)
        if not ok:
            self.mismatches.append(f"{op} {params}: served {result!r}, expected {ref!r}")


# ---------------------------------------------------------------------- #


class Workload:
    """Base class: a named traffic mix over the generated fleet.

    The fleet's monitors deliver the stream that follows each machine's
    starting history, one 10-sample chunk (a minute of monitoring) per
    ``extend``.  A workload either interleaves those writes with its
    reads (``write_rate``) or, when its reads must see a history that
    stands still, delivers them before the warm-up in a write phase of
    their own (``catchup_rate``).
    """

    name = ""
    #: Nominal open-loop read rate (ops/s) of the timed phase.
    read_rate = 0.0
    #: Writes (ops/s) interleaved with the timed phase's reads.
    write_rate = 0.0
    #: Writes (ops/s) of the write phase before the warm-up: monitors
    #: draining the chunks they spooled while the server was starting.
    catchup_rate = 0.0
    #: Read rates probed after the timed phase for ``sustained_rps``:
    #: geometric, lowest, highest and ratio of neighbouring steps.
    ladder: tuple[float, float, float] = (0.0, 0.0, 0.0)
    #: Read p99 limit (ms) a ladder step must meet to count as sustained.
    p99_limit_ms = 0.0
    #: Answers recomputed per run at most (a seeded sample beyond that).
    max_checks = 120

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        from repro.traces.io import save_traceset

        inputs = self._generate(seed)
        inputs.traces_dir = save_traceset(inputs.history.values(), workdir / "traces")
        return inputs

    def _generate(self, seed: int) -> Inputs:
        from repro.traces.synthesis import synthesize_testbed

        # One extra day of samples for the monitors to stream.
        traces = synthesize_testbed(
            N_MACHINES, n_days=HISTORY_DAYS + 1, sample_period=SAMPLE_PERIOD,
            seed=seed,
        )
        cut = int(HISTORY_DAYS * DAY / SAMPLE_PERIOD) - HELD_BACK
        return Inputs(seed=seed, history={t.machine_id: _samples(t, 0, cut) for t in traces},
                      stream={t.machine_id: t for t in traces}, cut=cut)

    def fresh_state(self, inputs: Inputs) -> None:
        """Reset before a server session starts: a new server has only
        the starting history, so the stream starts over."""
        inputs.cursor = 0
        inputs.acked = {m: inputs.cut for m in inputs.history}
        inputs.position = dict(inputs.acked)

    def server_args(self, inputs: Inputs) -> list[str]:
        return ["serve", "--traces", str(inputs.traces_dir)]

    def machines(self, inputs: Inputs) -> list[str]:
        return sorted(inputs.history)

    def ladder_rates(self) -> list[float]:
        lo, hi, ratio = self.ladder
        n = int(math.log(hi / lo) / math.log(ratio) + 1e-9)
        return [lo * ratio ** k for k in range(n + 1)]

    def warmup(self, inputs: Inputs) -> list[Op]:
        return []

    def reads(self, inputs: Inputs, rng: np.random.Generator, n: int) -> list[tuple[str, dict]]:
        raise NotImplementedError

    def writes(self, inputs: Inputs, n: int) -> list[tuple[str, dict]]:
        """The next ``n`` chunks of the monitor stream, machines in turn."""
        machines = self.machines(inputs)
        out = []
        for i in range(inputs.cursor, inputs.cursor + n):
            mid = machines[i % len(machines)]
            lo = inputs.position[mid]
            inputs.position[mid] = lo + CHUNK
            out.append(("extend", _extend_params(_samples(inputs.stream[mid], lo, lo + CHUNK))))
        inputs.cursor += n
        return out

    def resync(self, inputs: Inputs, served: list[Outcome]) -> None:
        """Resume each machine's stream after its last acked chunk.

        A monitor whose chunk was shed sends it again, as the ingest
        agent does; the chunks it sent after the lost one were refused.
        """
        for o in served:
            if o.op.kind == "write" and o.ok:
                mid = o.op.params["machine"]
                inputs.acked[mid] = max(inputs.acked[mid], o.result["n_samples"])
        inputs.position = dict(inputs.acked)

    def schedule(self, inputs: Inputs, rng: np.random.Generator, duration: float,
                 read_rate: float, write_rate: float) -> list[Op]:
        """Evenly spaced reads and writes, merged by due time."""
        ops = [
            Op(i / read_rate, "read", op, params)
            for i, (op, params) in enumerate(
                self.reads(inputs, rng, int(round(duration * read_rate))))
        ] if read_rate > 0 else []
        if write_rate > 0:
            offset = 0.5 / write_rate if ops else 0.0
            ops += [
                Op(offset + i / write_rate, "write", op, params)
                for i, (op, params) in enumerate(
                    self.writes(inputs, int(round(duration * write_rate))))
            ]
        ops.sort(key=lambda o: o.at)
        return ops

    async def check(self, inputs: Inputs, served: list[Outcome], conns,
                    rng: np.random.Generator) -> Checker:
        """Tails against the acked stream, then the served reads.

        Every machine's ``tail`` must equal the generated samples up to
        its last acked chunk.  Reads are recomputed, a seeded sample of
        at most ``max_checks``, on a reference built from those final
        histories: here every read was served after the last write.
        """
        checker = await self._check_tails(inputs, served, conns)
        ok = [o for o in served if o.ok and o.op.kind == "read"]
        if len(ok) > self.max_checks:
            keep = rng.choice(len(ok), size=self.max_checks, replace=False)
            ok = [ok[i] for i in sorted(keep)]
        for outcome in ok:
            checker.check(outcome)
        return checker

    async def _check_tails(self, inputs: Inputs, served: list[Outcome], conns) -> Checker:
        """A checker on the final histories, after checking every tail."""
        self.resync(inputs, served)
        final = [_samples(inputs.stream[m], 0, n) for m, n in sorted(inputs.acked.items())]
        checker = Checker(reference_service(final))
        for trace in final:
            reply = await conns.call("tail", {"machine": trace.machine_id, "n": 60})
            checker.checked += 1
            samples = reply.result["samples"] if reply.ok else []
            if (not reply.ok or reply.result["n_samples"] != trace.n_samples
                    or [x["load"] for x in samples] != trace.load[-60:].tolist()
                    or [x["free_mem_mb"] for x in samples] != trace.free_mem_mb[-60:].tolist()
                    or [x["up"] for x in samples] != trace.up[-60:].tolist()):
                checker.mismatches.append(
                    f"tail {trace.machine_id}: does not match the acked stream")
        return checker


class _RecurringWindows(Workload):
    """Shared query shapes of the polling scheduler."""

    #: "next 1-8 h" windows starting on the hour, for both day types:
    #: 16 windows x 20 machines = 320 keys, inside the server's default
    #: 512-entry per-window cache.
    START_HOURS = (8.0, 14.0)
    LENGTHS = (1.0, 2.0, 4.0, 8.0)
    DAY_TYPES = ("weekday", "weekend")
    #: Whole-fleet windows: 4, inside the fleet cache's 8 windows.
    FLEET = ((8.0, 4.0), (14.0, 4.0))

    def _predict_windows(self):
        return [(s, h, d) for s in self.START_HOURS for h in self.LENGTHS
                for d in self.DAY_TYPES]

    def _fleet_windows(self):
        return [(s, h, d) for s, h in self.FLEET for d in self.DAY_TYPES]

    def warmup(self, inputs: Inputs) -> list[Op]:
        """Every key the timed phase can ask, once, to fill the caches."""
        ops = [Op(0.0, "read", "predict", _window_params(m, s, h, d))
               for m in self.machines(inputs) for s, h, d in self._predict_windows()]
        ops += [Op(0.0, "read", "rank", _window_params(None, s, h, d))
                for s, h, d in self._fleet_windows()]
        return ops

    def _mix(self, inputs, rng, kinds) -> list[tuple[str, dict]]:
        """Reads of the given kinds (0 predict, 1 predict_batch, 2 rank).

        Predicts cover every (machine, window) key evenly and fleet
        reads every fleet window evenly, in seeded order.
        """
        machines = self.machines(inputs)
        windows = self._predict_windows()
        fleet = self._fleet_windows()
        keys = iter(_balanced(rng, int(np.sum(kinds == 0)),
                              range(len(machines) * len(windows))))
        fleet_keys = iter(_balanced(rng, int(np.sum(kinds != 0)), range(len(fleet))))
        out = []
        for kind in kinds:
            if kind == 0:
                key = next(keys)
                s, h, d = windows[key % len(windows)]
                out.append(("predict", _window_params(
                    machines[key // len(windows)], s, h, d)))
                continue
            s, h, d = fleet[next(fleet_keys)]
            params = _window_params(None, s, h, d)
            if kind == 1:
                pick = rng.choice(len(machines), size=5, replace=False)
                params["machines"] = [machines[i] for i in sorted(pick)]
                out.append(("predict_batch", params))
            else:
                out.append(("rank", params))
        return out


class WarmPoll(_RecurringWindows):
    """A scheduler polling recurring windows against warm caches."""

    name = "warm_poll"
    read_rate = 60.0
    catchup_rate = 40.0
    ladder = (150.0, 350.0, 1.15)
    p99_limit_ms = 100.0

    def reads(self, inputs, rng, n):
        # 8 predicts : 1 predict_batch : 1 rank, over evenly covered keys.
        kinds = _balanced(rng, n, (0,) * 8 + (1, 2))
        return self._mix(inputs, rng, kinds)


class ColdQuery(Workload):
    """Every predict asks a (machine, window, day type) never asked before."""

    name = "cold_query"
    read_rate = 30.0
    catchup_rate = 40.0
    ladder = (50.0, 120.0, 1.15)
    p99_limit_ms = 250.0

    def warmup(self, inputs: Inputs) -> list[Op]:
        # Code paths only: a handful of distinct queries (the timed
        # phase's sequence comes from another stream and never repeats
        # these starts).
        rng = np.random.default_rng([inputs.seed, 99])
        return [Op(0.0, "read", op, params) for op, params in self.reads(inputs, rng, 40)]

    def reads(self, inputs, rng, n):
        machines = self.machines(inputs)
        # Stratified draws: every run asks the same spread of start times,
        # lengths (1-8 h) and day types (2 weekend days in 7); the seed
        # moves each query within its stratum and shuffles the order.
        # Starts sit on a 1 ms grid, so two queries never share a window.
        starts = np.round(24.0 * _strata(rng, n), 6)
        lengths = 1.0 + 7.0 * _strata(rng, n)
        weekend = rng.permutation(np.arange(n) < round(n * 2 / 7))
        picks = _balanced(rng, n, range(len(machines)))
        return [
            ("predict", _window_params(machines[m], float(s), float(h),
                                       "weekend" if w else "weekday"))
            for m, s, h, w in zip(picks, starts, lengths, weekend)
        ]


class IngestMix(_RecurringWindows):
    """Monitors stream samples for every machine while a scheduler reads."""

    name = "ingest_mix"
    read_rate = 50.0
    #: One chunk per machine per second.  Each durable, audited write
    #: costs the server several ms, so this is already a fifth of its time.
    write_rate = 20.0
    ladder = (120.0, 280.0, 1.15)
    p99_limit_ms = 250.0
    FLEET = ((8.0, 4.0),)

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        from repro.store import StoreConfig, TraceStore

        inputs = self._generate(seed)
        inputs.store_pristine = workdir / "store.pristine"
        inputs.store_live = workdir / "store"
        store = TraceStore(inputs.store_pristine, StoreConfig(fsync="never"))
        try:
            for trace in inputs.history.values():
                store.replace(trace)
        finally:
            store.close()
        return inputs

    def fresh_state(self, inputs: Inputs) -> None:
        super().fresh_state(inputs)
        shutil.rmtree(inputs.store_live, ignore_errors=True)
        shutil.copytree(inputs.store_pristine, inputs.store_live)

    def server_args(self, inputs: Inputs) -> list[str]:
        return ["serve", "--store", str(inputs.store_live), "--fsync", "always",
                "--audit"]

    def reads(self, inputs, rng, n):
        # 9 predicts : 1 rank; every rank after a write rebuilds fleet rows.
        return self._mix(inputs, rng, _balanced(rng, n, (0,) * 9 + (2,)))

    async def check(self, inputs, served, conns, rng):
        """Tails against the acked stream, then a final read pass.

        Reads served while the history moved cannot be recomputed
        exactly; they must be well-formed probabilities.  After the
        stream stops, a read pass over the run's distinct read keys must
        match a reference built from the final histories.
        """
        checker = await self._check_tails(inputs, served, conns)
        for o in served:
            if o.op.kind != "read" or not o.ok:
                continue
            trs = ([o.result["tr"]] if o.op.op == "predict"
                   else [r["tr"] for r in o.result["ranking"]])
            if not all(0.0 <= t <= 1.0 or math.isnan(t) for t in trs):
                checker.mismatches.append(f"{o.op.op} {o.op.params}: TR out of range")
        keys = {}
        for o in served:
            if o.op.kind == "read":
                keys[(o.op.op, tuple(sorted((k, str(v)) for k, v in o.op.params.items())))] = o.op
        ops = list(keys.values())
        if len(ops) > self.max_checks:
            keep = rng.choice(len(ops), size=self.max_checks, replace=False)
            ops = [ops[i] for i in sorted(keep)]
        for outcome in await conns.gather(ops):
            if not outcome.ok:
                checker.mismatches.append(f"final {outcome.op.op}: {outcome.status}")
                continue
            checker.check(outcome)
        return checker


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (WarmPoll(), ColdQuery(), IngestMix())
}
