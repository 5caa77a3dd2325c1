"""Golden request bytes: what each client op method puts on the wire.

Every public op method of :class:`ServeClient` and
:class:`AsyncServeClient` is called against a recording fake server
with fixed request ids and no trace context.  The bytes each call
writes must match ``golden_request_bytes.json`` exactly, and the sync
and async clients must write identical bytes — this pins the param
shaping of every op (names, defaults, omitted optionals, key order and
the per-op protocol version).

Regenerate the golden file only for an intended wire change::

    PYTHONPATH=src python -m tests.serve.test_request_bytes
"""

from __future__ import annotations

import asyncio
import inspect
import json
import socket
import threading
from pathlib import Path

from repro.serve.client import AsyncServeClient, ServeClient
from repro.traces.trace import MachineTrace

GOLDEN = Path(__file__).with_name("golden_request_bytes.json")

TRACE = MachineTrace(
    "lab-00", 120.0, 60.0, [0.1, 0.25, 0.5], [512.0, 256.0, 1024.0],
    [True, True, False],
)

#: (label, method, args, kwargs) — every public op method, with and
#: without its optional arguments.
CALLS = [
    ("predict", "predict", ("lab-00", 9, 2), {}),
    ("predict+opts", "predict", ("lab-00", 9.5, 2.25, "weekend"),
     {"init_state": "S1", "deadline_ms": 250.0}),
    ("predict_batch", "predict_batch", (9, 2), {}),
    ("predict_batch+opts", "predict_batch", (9, 2, "weekend"),
     {"machines": ["lab-00", "lab-01"], "deadline_ms": 100.0}),
    ("fleet_scan", "fleet_scan", (9, 2), {}),
    ("fleet_scan+opts", "fleet_scan", (8, 4), {
        "machines": ["lab-01"], "horizons_hours": [1.0, 2.5], "deadline_ms": 50.0,
    }),
    ("rank", "rank", (9, 2), {}),
    ("rank+weekend", "rank", (9, 2, "weekend"), {}),
    ("select", "select", (9, 2), {}),
    ("select+k", "select", (9, 2), {"k": 3}),
    ("horizon", "horizon", ("lab-00", 9, 5), {}),
    ("horizon+opts", "horizon", ("lab-00", 9, 5, "weekend"), {"tr_threshold": 0.8}),
    ("register", "register", (TRACE,), {}),
    ("extend", "extend", (TRACE,), {}),
    ("quality", "quality", (), {}),
    ("quality+machine", "quality", ("lab-00",), {}),
    ("tail", "tail", ("lab-00",), {}),
    ("tail+n", "tail", ("lab-00", 3), {}),
    ("health", "health", (), {}),
    ("submit", "submit", ("j1", 3600.0), {}),
    ("submit+opts", "submit", ("j1", 3600.0), {
        "cpu": 0.5, "mem_mb": 128.0, "checkpoint_interval_s": 600.0,
    }),
    ("job_status", "job_status", ("j1",), {}),
    ("cancel", "cancel", ("j1",), {}),
    ("jobs", "jobs", (), {}),
    ("adapt_status", "adapt_status", (), {}),
    ("adapt_status+machine", "adapt_status", ("lab-00",), {}),
    ("adapt_retune", "adapt_retune", ("lab-00",), {}),
    ("adapt_retune+trigger", "adapt_retune", ("lab-00",), {"trigger": "alarm"}),
    ("adapt_promote", "adapt_promote", ("lab-00",), {}),
    ("adapt_promote+force", "adapt_promote", ("lab-00",), {"force": True}),
]

#: Minimal ``ok`` results the client methods can unwrap.
RESULTS = {
    "predict": {"tr": 0.5},
    "predict_batch": {"predictions": []},
    "rank": {"ranking": []},
    "horizon": {"horizon_seconds": 60.0},
}


class RecordingServer:
    """Answers every request line with a canned ``ok`` and records it."""

    def __init__(self) -> None:
        self.lines: list[bytes] = []
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                fh = conn.makefile("rwb")
                for line in fh:
                    self.lines.append(line)
                    req = json.loads(line)
                    resp = {"v": req["v"], "id": req["id"], "status": "ok",
                            "result": RESULTS.get(req["op"], {})}
                    fh.write(json.dumps(resp).encode() + b"\n")
                    fh.flush()

    def take(self) -> list[bytes]:
        lines, self.lines = self.lines, []
        return lines

    def close(self) -> None:
        self._sock.close()
        self._thread.join(timeout=5)


def _public_ops(cls) -> set[str]:
    return {
        name for name, _ in inspect.getmembers(cls, callable)
        if not name.startswith("_")
        and name not in ("request", "close", "connect")
    }


def capture_sync(srv: RecordingServer) -> dict[str, str]:
    out = {}
    with ServeClient(port=srv.port) as client:
        for label, method, args, kwargs in CALLS:
            getattr(client, method)(*args, **kwargs)
            (line,) = srv.take()
            out[label] = line.decode()
    return out


def capture_async(srv: RecordingServer) -> dict[str, str]:
    async def run() -> dict[str, str]:
        out = {}
        client = await AsyncServeClient.connect(port=srv.port)
        try:
            for label, method, args, kwargs in CALLS:
                await getattr(client, method)(*args, **kwargs)
                (line,) = srv.take()
                out[label] = line.decode()
        finally:
            await client.close()
        return out

    return asyncio.run(run())


def test_every_public_op_method_is_covered():
    called = {method for _, method, _, _ in CALLS}
    assert _public_ops(ServeClient) == called
    assert _public_ops(AsyncServeClient) == called


def test_sync_and_async_write_identical_golden_bytes():
    golden = json.loads(GOLDEN.read_text())
    srv = RecordingServer()
    try:
        sync = capture_sync(srv)
        asynch = capture_async(srv)
    finally:
        srv.close()
    assert sync == asynch
    assert sync == golden


if __name__ == "__main__":
    srv = RecordingServer()
    try:
        GOLDEN.write_text(json.dumps(capture_sync(srv), indent=1) + "\n")
    finally:
        srv.close()
    print(f"wrote {GOLDEN}")
