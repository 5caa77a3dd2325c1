"""The cluster frontend: one socket, many sharded/replicated backends.

The router speaks the *same* JSON-lines wire protocol as a single
``repro serve`` process (:mod:`repro.serve.protocol`), so every
existing client — ``repro query``, :class:`~repro.serve.client.ServeClient`,
a scheduler with a socket — talks to a cluster by changing nothing but
the port.  Behind the socket each op is routed by the ``route`` of its
:class:`~repro.serve.protocol.OpSpec`:

* **single** reads (``predict``, ``job_status``, ...) go to the key's
  primary owner on the hash ring; on a connection error or a
  backpressure answer (``shed`` / ``shutting_down``) the router fails
  over to the next replica transparently, so a SIGKILLed backend costs
  the client nothing but latency;
* **scatter** reads (``rank``, ``select``, ``quality``, ...) go to every
  live node and the op's merge function combines the answers: replicas
  report the same machine twice, the merge dedups, and ``select``
  re-runs the top-k + gang-survival math on the merged TR map so its
  answer is identical to a single-node deployment (**broadcast** is the
  same fan-out without the shard report);
* **writes** (``register``, ``cancel``, ...) fan out to *all* R owners
  of the key and succeed only with a write quorum of ⌈(R+1)/2⌉ acks —
  for the default R=2 that is both replicas, which is what lets a
  restarted node warm-start from its own store and still hold every
  byte it ever acknowledged;
* **local** ``health`` is answered by the router itself with the cluster view
  (per-node up/down, ring shape) — it must work while backends are
  down, because it is how operators see that they are down.

The router holds no machine data: placement is pure hashing, health is
probed, and every byte of history lives in the backends' stores.  A
router restart therefore loses nothing and needs no recovery.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from repro.adapt.controller import merge_adapt_status
from repro.audit.scoreboard import merge_quality
from repro.cluster.membership import Membership
from repro.cluster.ring import HashRing
from repro.core.multi import group_survival, select_best_k
from repro.obs.events import get_event_log
from repro.obs.instruments import instrument
from repro.obs.tracing import TraceContext, current_context, start_span, use_context
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    OP_SPECS,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    ProtocolError,
    Request,
    Response,
    min_version,
)
from repro.serve.server import serve_lines

__all__ = ["RouterConfig", "ClusterRouter"]

# ---------------------------------------------------------------------- #
# scatter merges: pure functions of the nodes' answers and the parsed
# request params, named by each scatter/broadcast op's OpSpec.merge
# ---------------------------------------------------------------------- #


#: The nodes' ``ok`` results of one fan-out.
_Answers = list[Mapping[str, Any]]


def _tr_map(answers: _Answers) -> dict[str, float]:
    trs: dict[str, float] = {}
    for answer in answers:
        for entry in answer["ranking"]:
            # Replicas answer from byte-identical histories; first
            # answer wins, duplicates are dropped.
            trs.setdefault(entry["machine"], entry["tr"])
    return trs


def merge_rank(answers: _Answers, params: Mapping[str, Any]) -> dict[str, Any]:
    """The shards' rankings as one, best first."""
    order = sorted(_tr_map(answers).items(), key=lambda kv: (-kv[1], kv[0]))
    return {"ranking": [{"machine": m, "tr": tr} for m, tr in order]}


def merge_select(answers: _Answers, params: Mapping[str, Any]) -> dict[str, Any]:
    """Top-k and gang survival re-derived on the merged TR map.

    The backend math is top-k over the *global* TR map, so select
    scatters as ``rank`` and the answer equals a single-node one.
    """
    trs = _tr_map(answers)
    chosen = select_best_k(trs, params["k"])
    return {
        "machines": chosen,
        "survival": group_survival([trs[m] for m in chosen]),
        "k": params["k"],
    }


def _machine_entries(
    answers: _Answers, key: str, params: Mapping[str, Any]
) -> dict[str, Mapping[str, Any]]:
    """Per-machine entries of a fleet batch op, first answer per machine.

    Each shard ran *one* batched kernel solve over the machines it owns,
    so a cluster-wide fleet op costs one matrix pass per shard instead of
    N scalar predicts.
    """
    merged: dict[str, Mapping[str, Any]] = {}
    for answer in answers:
        for entry in answer.get(key, ()):
            merged.setdefault(str(entry["machine"]), entry)
    if params["machines"] is not None:
        missing = sorted(set(params["machines"]) - merged.keys())
        if missing:
            raise ProtocolError(f"machines not registered: {', '.join(missing)}")
    return merged


def merge_predict_batch(answers: _Answers, params: Mapping[str, Any]) -> dict[str, Any]:
    merged = _machine_entries(answers, "predictions", params)
    return {"predictions": [merged[m] for m in sorted(merged)], "count": len(merged)}


def merge_fleet_scan(answers: _Answers, params: Mapping[str, Any]) -> dict[str, Any]:
    merged = _machine_entries(answers, "machines", params)
    entries = sorted(
        merged.values(), key=lambda e: (-float(e["tr"]), str(e["machine"]))
    )
    return {
        "machines": entries,
        "count": len(entries),
        "horizons_hours": answers[0].get("horizons_hours", []),
    }


def merge_jobs(answers: _Answers, params: Mapping[str, Any]) -> dict[str, Any]:
    """The nodes' job tables as one, deduplicated by job id.

    Replicas of a job may lag one transition apart (e.g. a refresh
    discovered a completion on one owner first); the merge keeps the
    copy with the highest ``(version, lifecycle stage)``.
    """
    from repro.sched.jobs import STATE_RANK

    merged: dict[str, Mapping[str, Any]] = {}
    for answer in answers:
        for record in answer.get("jobs", ()):
            job_id = str(record["job"])
            current = merged.get(job_id)
            if current is None or (
                (record["version"], STATE_RANK.get(record["state"], 0))
                > (current["version"], STATE_RANK.get(current["state"], 0))
            ):
                merged[job_id] = record
    records = [merged[j] for j in sorted(merged)]
    states: dict[str, int] = {}
    for record in records:
        states[record["state"]] = states.get(record["state"], 0) + 1
    return {"jobs": records, "stats": {"jobs": len(records), "states": states}}


def merge_replace(answers: _Answers, params: Mapping[str, Any]) -> dict[str, Any]:
    """Sum the re-placement counts of every node's JobManager."""
    replaced = 0
    actions: dict[str, int] = {}
    restored: set[str] = set()
    for answer in answers:
        replaced += int(answer.get("replaced", 0))
        for action, count in (answer.get("actions") or {}).items():
            actions[action] = actions.get(action, 0) + int(count)
        restored.update(answer.get("restored") or ())
    return {
        "replaced": replaced,
        "actions": actions,
        "restored": sorted(restored),
        "nodes": len(answers),
    }


#: Every merge an ``OpSpec.merge`` may name.  Audit and adapt state is
#: per-node, never replicated, so those answers are summed by the
#: packages that own the state.
_MERGES: dict[str, Callable[[_Answers, Mapping[str, Any]], dict[str, Any]]] = {
    "merge_quality": lambda answers, _params: merge_quality(answers),
    "merge_adapt_status": lambda answers, _params: merge_adapt_status(answers),
    **{merge.__name__: merge for merge in (
        merge_rank, merge_select, merge_predict_batch, merge_fleet_scan,
        merge_jobs, merge_replace,
    )},
}


@dataclass(frozen=True)
class RouterConfig:
    """Tuning knobs of one :class:`ClusterRouter`."""

    #: Replication factor R: copies of each machine's history.
    replicas: int = 2
    #: Virtual nodes per backend on the hash ring.
    vnodes: int = 64
    #: Seconds to establish one backend connection.
    connect_timeout_s: float = 2.0
    #: Seconds to wait for one backend response (None: unbounded).
    request_timeout_s: float | None = 30.0
    #: Idle pooled connections kept per backend.
    pool_idle_per_node: int = 8
    #: Health-probe period.
    probe_interval_s: float = 0.5
    #: Consecutive failures before mark-down / successes before mark-up.
    down_after: int = 2
    up_after: int = 2

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")

    @property
    def write_quorum(self) -> int:
        """Acks required for a write: ⌈(R+1)/2⌉ (majority of R+1)."""
        return (self.replicas + 2) // 2


class _BackendPool:
    """Pooled JSON-lines connections to the backends, one in use per call."""

    def __init__(self, membership: Membership, config: RouterConfig) -> None:
        self._membership = membership
        self._config = config
        self._idle: dict[str, list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]] = {}
        self._ids = itertools.count(1)

    async def call(self, node_id: str, request: Request) -> Response:
        """One request/response round-trip against ``node_id``.

        Raises ``ConnectionError``/``OSError``/``TimeoutError`` when the
        backend is unreachable or the connection breaks mid-request; the
        broken connection is discarded, never pooled.
        """
        conn = await self._acquire(node_id)
        reader, writer = conn
        # The ambient trace context (the router span this call runs
        # under) rides the forwarded request, so backend-side spans join
        # the same trace.  Backends too old for v4 ignore the field.
        ctx = current_context()
        forwarded = Request(
            op=request.op,
            params=request.params,
            id=f"r{next(self._ids)}",
            deadline_ms=request.deadline_ms,
            version=min_version(request.op),
            trace=None if ctx is None else ctx.to_wire(),
        )
        try:
            writer.write(forwarded.encode())
            await writer.drain()
            line = await self._bounded(reader.readline())
            if not line:
                raise ConnectionError(f"backend {node_id} closed the connection")
            resp = Response.decode(line)
            if resp.id != forwarded.id:
                raise ProtocolError(
                    f"backend {node_id} answered id {resp.id!r}, "
                    f"expected {forwarded.id!r}"
                )
        except BaseException:
            await _close_quietly(writer)
            raise
        self._release(node_id, conn)
        return resp

    async def _bounded(self, coro: Any) -> Any:
        if self._config.request_timeout_s is None:
            return await coro
        return await asyncio.wait_for(coro, self._config.request_timeout_s)

    async def _acquire(
        self, node_id: str
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        idle = self._idle.get(node_id)
        while idle:
            reader, writer = idle.pop()
            if not writer.is_closing():
                return reader, writer
            await _close_quietly(writer)
        host, port = self._membership.address(node_id)
        return await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=MAX_LINE_BYTES),
            self._config.connect_timeout_s,
        )

    def _release(
        self, node_id: str, conn: tuple[asyncio.StreamReader, asyncio.StreamWriter]
    ) -> None:
        idle = self._idle.setdefault(node_id, [])
        if len(idle) < self._config.pool_idle_per_node and not conn[1].is_closing():
            idle.append(conn)
        else:
            conn[1].close()

    async def close(self) -> None:
        for conns in self._idle.values():
            for _, writer in conns:
                await _close_quietly(writer)
        self._idle.clear()


def _relayed(request: Request, resp: Response) -> Response:
    """A backend's answer re-addressed to the client's request."""
    return replace(
        resp, id=request.id, elapsed_ms=None, version=PROTOCOL_VERSION
    )


def _answered(results: list[Any]) -> list[Response]:
    """The responses of a fan-out: unreachable nodes are dropped, any
    other exception (a routing bug) is re-raised."""
    for result in results:
        if isinstance(result, BaseException) and not isinstance(
            result, (OSError, asyncio.TimeoutError)
        ):
            raise result
    return [result for result in results if isinstance(result, Response)]


async def _close_quietly(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (OSError, asyncio.CancelledError):
        pass


class ClusterRouter:
    """Protocol-compatible frontend over N sharded, replicated backends."""

    def __init__(
        self,
        nodes: Mapping[str, tuple[str, int]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        config: RouterConfig | None = None,
    ) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one backend node")
        self.host = host
        self.port = port  # 0 until start() binds an ephemeral port
        self.config = config or RouterConfig()
        self.ring = HashRing(
            nodes, vnodes=self.config.vnodes, replicas=self.config.replicas
        )
        self.membership = Membership(
            nodes,
            probe_interval_s=self.config.probe_interval_s,
            probe_timeout_s=self.config.connect_timeout_s,
            down_after=self.config.down_after,
            up_after=self.config.up_after,
        )
        self._pool = _BackendPool(self.membership, self.config)
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._started = time.monotonic()
        #: Machines seen in acknowledged register/extend writes.  When a
        #: node dies, the machines it primarily owns are treated as dead
        #: hosts and the surviving JobManagers re-place their jobs.
        self._machine_catalog: set[str] = set()
        self._replace_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind, start probing, start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.membership.on_down = self._on_node_down
        self.membership.on_up = self._on_node_up
        self.membership.start()
        get_event_log().emit(
            "cluster_router_started",
            host=self.host,
            port=self.port,
            nodes=len(self.ring),
            replicas=self.config.replicas,
        )

    async def stop(self) -> None:
        """Stop accepting, close backend pools and the probe loop."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.membership.stop()
        for task in list(self._replace_tasks):
            task.cancel()
        if self._replace_tasks:
            await asyncio.gather(*self._replace_tasks, return_exceptions=True)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self._pool.close()
        get_event_log().emit("cluster_router_stopped")

    async def serve_forever(self) -> None:
        """Run until cancelled (start() must have been called)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------ #
    # connection handling (framing shared with ServeServer)
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await serve_lines(reader, writer, self._answer, self._conn_tasks)

    async def _answer(self, line: bytes) -> Response:
        t0 = time.perf_counter()
        op = "invalid"
        request_id = ""
        try:
            request = Request.decode(line)
            op, request_id = request.op, request.id
            if request.trace is not None:
                # Adopt the client's context for this task: every span
                # below (and every forwarded backend call) joins its trace.
                ctx = TraceContext.from_wire(request.trace)
                with use_context(ctx), start_span("router.route", "router", op=op):
                    response = await self._route(request)
            else:
                response = await self._route(request)
        except Exception as exc:  # malformed request or routing bug: answer
            response = Response.failure(
                request_id, STATUS_ERROR, type(exc).__name__, str(exc)
            )
        outcome = "ok" if response.ok else response.status
        instrument("cluster_requests_routed_total").labels(op=op, outcome=outcome).inc()
        if response.elapsed_ms is None:
            response = replace(
                response, elapsed_ms=(time.perf_counter() - t0) * 1e3
            )
        return response

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    async def _route(self, request: Request) -> Response:
        spec = OP_SPECS[request.op]
        if spec.name == "submit":
            return await self._route_submit(request)
        if spec.route == "local":
            return Response.success(request.id, self._cluster_health())
        if spec.route == "single":
            return await self._route_single(request)
        if spec.route == "write":
            return await self._route_write(request)
        return await self._gather(request)

    async def _call_timed(self, node_id: str, request: Request) -> Response:
        t0 = time.perf_counter()
        try:
            resp = await self._pool.call(node_id, request)
        except (OSError, asyncio.TimeoutError):
            self.membership.report_failure(node_id)
            raise
        finally:
            instrument("cluster_shard_latency_seconds").labels(node=node_id).observe(
                time.perf_counter() - t0
            )
        return resp

    async def _call_traced(self, node_id: str, request: Request, **attrs: Any) -> Response:
        """One backend call under a ``router.call`` span (fan-out paths)."""
        with start_span("router.call", "router", node=node_id, **attrs):
            return await self._call_timed(node_id, request)

    @staticmethod
    def _owner_key(request: Request) -> str:
        """The ring key of a ``single``/``write`` op (its ``OpSpec.key``)."""
        spec = OP_SPECS[request.op]
        value: Any = request.params
        for part in spec.key.split("."):
            value = value.get(part) if isinstance(value, Mapping) else None
        if value is None:
            raise ProtocolError(
                f"missing required param {spec.key!r} for {request.op!r}"
            )
        # Job ops shard by the job id, prefixed so job and machine key
        # spaces never collide on the ring.
        return f"job:{value}" if spec.key.endswith("job") else str(value)

    async def _route_single(self, request: Request) -> Response:
        """Proxy to the owning replica set, failing over in ring order."""
        owners = self.membership.prefer_up(self.ring.owners(self._owner_key(request)))
        backpressure: Response | None = None
        for attempt, node_id in enumerate(owners):
            # attempt > 0 IS the failover hop: the span records which
            # replica answered after the preferred owner failed.
            with start_span(
                "router.attempt", "router",
                node=node_id, attempt=attempt, failover=attempt > 0,
            ) as sp:
                try:
                    resp = await self._call_timed(node_id, request)
                except (OSError, asyncio.TimeoutError) as exc:
                    if sp is not None:
                        sp.set(outcome=f"unreachable:{type(exc).__name__}")
                    if attempt + 1 < len(owners):
                        instrument("cluster_failovers_total").inc()
                    continue
                if sp is not None:
                    sp.set(outcome=resp.status)
            if resp.backpressure:
                backpressure = resp
                if attempt + 1 < len(owners):
                    instrument("cluster_failovers_total").inc()
                continue
            # ok — or a semantic error the next replica would repeat.
            return _relayed(request, resp)
        if backpressure is not None:
            return _relayed(request, backpressure)
        return Response.failure(
            request.id, STATUS_ERROR, "NoReplicaAvailable",
            f"all {len(owners)} replicas of "
            f"{self._owner_key(request)!r} are unreachable",
        )

    async def _gather(self, request: Request) -> Response:
        """Scatter (or broadcast) one op to every live node and merge.

        Each node answers from its own state — the machines it owns, the
        predictions it journaled, its jobs — and the op's merge function
        combines the answers; a scatter result also reports how many
        shards answered.  Nodes that are unreachable are skipped.
        """
        spec = OP_SPECS[request.op]
        # Parsed up front: a malformed request is refused before fan-out,
        # and the merge reads typed params (select's k, fleet machines).
        params = spec.parse(request.params)
        targets = self.membership.up_nodes() or self.membership.node_ids
        forwarded = dict(request.params)
        if "missing_ok" in params:
            # Each shard answers for the machines it owns and skips the
            # ids that live on other shards.
            forwarded["missing_ok"] = True
        scatter = Request(
            op=spec.scatter_as or spec.name,
            params=forwarded,
            deadline_ms=request.deadline_ms,
        )
        with start_span("router.scatter", "router", op=request.op, targets=len(targets)):
            results = await asyncio.gather(
                *(self._call_traced(n, scatter) for n in targets),
                return_exceptions=True,
            )
        answered = _answered(results)
        answers = [resp.result for resp in answered if resp.ok]
        errors = [resp for resp in answered if not resp.ok]
        if not answers:
            if errors:
                return _relayed(request, errors[0])
            return Response.failure(
                request.id, STATUS_ERROR, "NoReplicaAvailable",
                f"no node answered the {request.op} {spec.route}",
            )
        result = _MERGES[spec.merge](answers, params)
        if spec.route == "scatter":
            result["shards"] = {
                "queried": len(targets),
                "ok": len(answers),
                "partial": len(answers) < len(targets),
            }
        return Response.success(request.id, result)

    async def _route_write(self, request: Request) -> Response:
        """Fan a write out to all R owners; ack only on a write quorum."""
        owners = self.ring.owners(self._owner_key(request))
        quorum = min(self.config.write_quorum, len(owners))
        # The quorum wait is the write's latency floor: the gather
        # resolves only when every owner answered or failed, and the
        # span's children show which replica was the straggler.
        with start_span(
            "router.quorum_wait", "router",
            op=request.op, replicas=len(owners), required=quorum,
        ) as sp:
            results = await asyncio.gather(
                *(self._call_traced(n, request) for n in owners),
                return_exceptions=True,
            )
            if sp is not None:
                sp.set(acks=sum(1 for r in results
                                if isinstance(r, Response) and r.ok))
        answered = _answered(results)
        acks = [resp for resp in answered if resp.ok]
        refusals = [resp for resp in answered if not resp.ok]
        if len(acks) < quorum:
            # A semantic refusal (bad grid, gap) is the same on every
            # replica — surface it rather than a generic quorum error.
            for refusal in refusals:
                if not refusal.backpressure:
                    return _relayed(request, refusal)
            return Response.failure(
                request.id, STATUS_ERROR, "QuorumNotMet",
                f"write acknowledged by {len(acks)}/{len(owners)} replicas, "
                f"quorum is {quorum}",
            )
        result = dict(acks[0].result)
        degraded = len(acks) < len(owners)
        if degraded:
            instrument("cluster_quorum_degraded_total").inc()
        result["quorum"] = {
            "acks": len(acks),
            "replicas": len(owners),
            "required": quorum,
            "degraded": degraded,
        }
        if any(p.name == "load" for p in OP_SPECS[request.op].params):
            # An acknowledged history write (it ships samples) makes this
            # machine part of the placement pool the node-death hook
            # reasons about.
            self._machine_catalog.add(self._owner_key(request))
        return Response.success(request.id, result)

    # ------------------------------------------------------------------ #
    # scheduling ops (protocol v5)
    # ------------------------------------------------------------------ #

    async def _route_submit(self, request: Request) -> Response:
        """Two-phase submit: place at the primary owner, then replicate.

        Each backend holds only its shard of machine histories, so
        independent placement at every owner would diverge.  Instead the
        job-key's primary owner (with failover) places *and* adopts the
        job; the router then fans the resulting record out to the full
        R owner set as ``job_put`` under the write quorum.  The placer's
        own adopt is a version-equal no-op, so the fan-out is idempotent.
        """
        placed = await self._route_single(request)
        if not placed.ok or not isinstance(placed.result, Mapping):
            return placed
        record = placed.result.get("record")
        if not isinstance(record, Mapping):
            return placed
        put = Request(
            op="job_put",
            params={"record": record},
            deadline_ms=request.deadline_ms,
        )
        replicated = await self._route_write(put)
        if not replicated.ok:
            return _relayed(request, replicated)
        result = dict(placed.result)
        result["quorum"] = replicated.result.get("quorum")
        return Response.success(request.id, result)

    # ------------------------------------------------------------------ #
    # node-death reaction (membership transition hooks)
    # ------------------------------------------------------------------ #

    def _machines_owned_by(self, node_id: str) -> list[str]:
        """Cataloged machines whose *primary* owner is ``node_id``."""
        return sorted(
            m for m in self._machine_catalog if self.ring.owners(m)[0] == node_id
        )

    def _on_node_down(self, node_id: str) -> None:
        machines = self._machines_owned_by(node_id)
        if machines:
            self._spawn_replace(machines, f"node_down:{node_id}", restore=False)

    def _on_node_up(self, node_id: str) -> None:
        machines = self._machines_owned_by(node_id)
        if machines:
            self._spawn_replace(machines, f"node_up:{node_id}", restore=True)

    def _spawn_replace(self, machines: list[str], reason: str, *, restore: bool) -> None:
        request = Request(
            op="replace",
            params={"machines": machines, "reason": reason, "restore": restore},
        )
        task = asyncio.ensure_future(self._replace_after_transition(request, reason))
        self._replace_tasks.add(task)
        task.add_done_callback(self._replace_tasks.discard)

    async def _replace_after_transition(self, request: Request, reason: str) -> None:
        with start_span("sched.replace", "router", reason=reason):
            try:
                response = await self._gather(request)
            except Exception as exc:
                get_event_log().emit(
                    "cluster_replace_error",
                    severity="error",
                    reason=reason,
                    error=f"{type(exc).__name__}: {exc}",
                )
                return
        get_event_log().emit(
            "cluster_jobs_replaced",
            severity="warning",
            reason=reason,
            machines=len(request.params["machines"]),
            replaced=(response.result or {}).get("replaced"),
            ok=response.ok,
        )

    # ------------------------------------------------------------------ #

    def _cluster_health(self) -> dict[str, Any]:
        nodes = self.membership.status()
        up = sum(1 for st in nodes.values() if st["state"] == "up")
        if up == len(nodes):
            status = "ok"
        elif up > 0:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "role": "router",
            "protocol_version": PROTOCOL_VERSION,
            "nodes": nodes,
            "up_nodes": up,
            "ring": {
                "nodes": len(self.ring),
                "replicas": self.config.replicas,
                "vnodes": self.config.vnodes,
                "write_quorum": self.config.write_quorum,
            },
            "uptime_seconds": time.monotonic() - self._started,
        }
