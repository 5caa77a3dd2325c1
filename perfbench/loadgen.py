"""Open-loop, pipelined load generator for the JSON-lines serving protocol.

Every operation has a scheduled send time.  A single sender task writes
each request when it falls due, whether or not earlier replies have
arrived, spreading requests round-robin over at most ``nproc``
connections; one reader task per connection matches replies to requests
by id.  Latency is measured from the *scheduled* send, so a stall in the
server (or in this process) is charged to every request it delays, and
``late`` records how far behind schedule the sender itself ran.

While a phase runs, the generator also samples how much of the host's
CPU time the hypervisor gave to other machines (``steal`` in
``/proc/stat``), so that the moments measured while the host was taken
away can be told apart.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Seconds between two samples of the host's CPU times during a phase.
HOST_SAMPLE_S = 0.05
#: The sender stops sleeping this long (s) before a send is due and
#: polls the event loop until it is: a timed wait of the loop wakes up
#: about a millisecond late (epoll rounds its timeout up to whole ms, and
#: an idle vCPU takes time to wake), which would be charged to the server.
SPIN_S = 0.003


def cpu_times() -> tuple[int, int]:
    """CPU time stolen from this host by the hypervisor, and all CPU time, in ticks.

    ``(0, 0)`` where ``/proc/stat`` is not available.
    """
    try:
        line = Path("/proc/stat").read_text().split("\n", 1)[0]
        fields = [int(x) for x in line.split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


@dataclass
class Op:
    """One scheduled request."""

    at: float  # seconds after the phase start
    kind: str  # "read" | "write"
    op: str
    params: dict[str, Any]


@dataclass
class Outcome:
    """What happened to one :class:`Op`."""

    op: Op
    rid: str
    sched: float = 0.0  # perf_counter of the scheduled send
    sent: float = 0.0
    done: float = 0.0
    status: str = "unanswered"
    result: Any = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sched) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.sched) * 1e3

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class Phase:
    """The outcomes of one open-loop phase, in schedule order."""

    outcomes: list[Outcome]
    started: float  # perf_counter at the phase start
    duration_s: float
    #: (perf_counter, stolen ticks, all ticks) samples of the host.
    host: list[tuple[float, int, int]] = field(default_factory=list)

    def of(self, kind: str) -> list[Outcome]:
        return [o for o in self.outcomes if o.op.kind == kind]

    def steal_share(self, t0: float, t1: float) -> float:
        """Share of the host's CPU time stolen between two perf_counter times."""
        times = [h[0] for h in self.host]
        i = max(0, bisect.bisect_right(times, t0) - 1)
        j = min(len(times) - 1, bisect.bisect_left(times, t1))
        if j <= i:
            return 0.0
        (_, s0, c0), (_, s1, c1) = self.host[i], self.host[j]
        return (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0


# Request versions: the lowest protocol version that carries each op, so
# the generator speaks exactly what a deployed client of each op sends.
_VERSIONS = {"predict": 1, "rank": 1, "health": 1, "extend": 2, "tail": 6,
             "predict_batch": 7}


def encode_request(rid: str, op: str, params: dict[str, Any], traced: bool) -> bytes:
    """One wire line; a traced request carries its id as the trace id."""
    obj: dict[str, Any] = {"v": _VERSIONS[op], "id": rid, "op": op}
    if params:
        obj["params"] = params
    if traced:
        obj["trace"] = {"trace_id": rid, "span_id": rid}
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


class Connections:
    """A fixed set of pipelined connections to one server."""

    def __init__(self) -> None:
        self._streams: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._pending: dict[str, tuple[Outcome, asyncio.Future]] = {}
        self._readers: list[asyncio.Task] = []
        self._seq = 0

    @classmethod
    async def open(cls, port: int, n: int) -> "Connections":
        self = cls()
        for _ in range(n):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=64 * 1024 * 1024
            )
            self._streams.append((reader, writer))
            self._readers.append(asyncio.ensure_future(self._read(reader)))
        return self

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            now = time.perf_counter()
            if not line:
                return
            reply = json.loads(line)
            entry = self._pending.pop(reply.get("id", ""), None)
            if entry is None:
                continue
            outcome, fut = entry
            outcome.done = now
            outcome.status = reply.get("status", "error")
            outcome.result = reply.get("result", reply.get("error"))
            if not fut.done():
                fut.set_result(outcome)

    def _next_id(self) -> str:
        self._seq += 1
        return f"r{self._seq}"

    def send(self, op: Op, sched: float, traced: bool = False
             ) -> tuple[Outcome, "asyncio.Future[Outcome]"]:
        """Write one request now; the future resolves when it is answered."""
        rid = self._next_id()
        outcome = Outcome(op=op, rid=rid, sched=sched)
        line = encode_request(rid, op.op, op.params, traced)
        fut = asyncio.get_running_loop().create_future()
        self._pending[rid] = (outcome, fut)
        writer = self._streams[self._seq % len(self._streams)][1]
        outcome.sent = time.perf_counter()
        writer.write(line)
        return outcome, fut

    async def call(self, op: str, params: dict[str, Any] | None = None,
                   timeout: float = 120.0) -> Outcome:
        """One request, awaited (set-up, marks and checks; not timed)."""
        _, fut = self.send(Op(0.0, "ctl", op, params or {}), time.perf_counter())
        return await asyncio.wait_for(fut, timeout)

    async def gather(self, ops: list[Op], limit: int = 16) -> list[Outcome]:
        """Send ops with at most ``limit`` in flight (warm-up and checks)."""
        out: list[Outcome] = []
        window: list[asyncio.Future] = []
        for op in ops:
            window.append(self.send(op, time.perf_counter())[1])
            if len(window) >= limit:
                out.append(await asyncio.wait_for(window.pop(0), 120.0))
        for fut in window:
            out.append(await asyncio.wait_for(fut, 120.0))
        return out

    async def run(self, ops: list[Op], duration_s: float, *, traced: bool = False,
                  spin: bool = True, drain_s: float = 30.0) -> Phase:
        """Send ``ops`` on their schedule; wait up to ``drain_s`` for replies.

        With ``spin``, the sender polls the event loop through the last
        :data:`SPIN_S` before each send instead of sleeping, so that the
        send goes out on time.  A request still unanswered after the
        drain keeps the status ``unanswered`` (a failure); its late reply
        is discarded.
        """
        # A collection pause in this process would stall reading replies
        # and be charged to the server; nothing here builds cycles.
        gc.disable()
        try:
            return await self._run(ops, duration_s, traced, spin, drain_s)
        finally:
            gc.enable()

    async def _run(self, ops: list[Op], duration_s: float, traced: bool, spin: bool,
                   drain_s: float) -> Phase:
        start = time.perf_counter() + 0.01
        outcomes, futs = [], []
        host: list[tuple[float, int, int]] = []
        sampler = asyncio.ensure_future(_sample_host(host))
        for op in ops:
            due = start + op.at
            delay = due - time.perf_counter()
            if spin:
                if delay > SPIN_S:
                    await asyncio.sleep(delay - SPIN_S)
                # Yielding on each turn keeps replies read as they arrive.
                await asyncio.sleep(0)
                while time.perf_counter() < due:
                    await asyncio.sleep(0)
            else:
                # Yield so replies are read even when sends are due back to back.
                await asyncio.sleep(delay if delay > 0.0005 else 0)
            outcome, fut = self.send(op, due, traced)
            outcomes.append(outcome)
            futs.append(fut)
        for _, writer in self._streams:
            await writer.drain()
        if futs:
            await asyncio.wait(futs, timeout=max(
                0.0, start + duration_s + drain_s - time.perf_counter()))
        for outcome, fut in zip(outcomes, futs):
            if not fut.done():
                self._pending.pop(outcome.rid, None)
                fut.cancel()
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
        host.append((time.perf_counter(), *cpu_times()))
        return Phase(outcomes=outcomes, started=start, duration_s=duration_s, host=host)

    async def close(self) -> None:
        for _, writer in self._streams:
            writer.close()
        for _, writer in self._streams:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


async def _sample_host(out: list[tuple[float, int, int]]) -> None:
    while True:
        out.append((time.perf_counter(), *cpu_times()))
        await asyncio.sleep(HOST_SAMPLE_S)
