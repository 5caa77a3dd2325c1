"""Wire protocol of the serving tier: JSON lines, versioned op set.

One request per line, one response per line, both UTF-8 JSON objects —
the simplest protocol a scheduler written in any language can speak
with nothing but a socket and a JSON parser.  Requests carry a protocol
version so the op set can evolve without breaking deployed clients; a
server that does not understand a request answers with a structured
error response instead of dropping the connection.

Request wire form::

    {"v": 1, "id": "c1-17", "op": "predict",
     "params": {"machine": "lab-03", "start_hour": 9, "hours": 5,
                "day_type": "weekday"},
     "deadline_ms": 250,
     "trace": {"trace_id": "…", "span_id": "…"}}   # optional, v4

The ``trace`` field is the distributed-tracing envelope (protocol v4):
requests carrying it produce per-tier spans server-side; peers that
predate v4 ignore the key, so traced clients interoperate with old
servers unchanged.

Response wire form::

    {"v": 1, "id": "c1-17", "status": "ok", "result": {"tr": 0.93},
     "coalesced": false, "elapsed_ms": 1.8}

``status`` is ``ok`` or one of the failure codes in :data:`STATUSES`;
``shed`` and ``shutting_down`` are the 503-style answers of admission
control — the :class:`~repro.cluster.router.ClusterRouter` reacts by
failing the request over to another replica of the shard, and a
directly-connected client retries later (``retries=`` on the clients) —
``deadline_exceeded`` means the request was admitted but expired before
a worker reached it.

This module is wire format only — no sockets, no service logic — so
both the asyncio server and the sync/async clients share one source of
truth for encoding and validation.  :data:`OP_SPECS` is the one place an
op is declared; version gating, the dispatcher, the router, both clients
and ``repro query`` derive from it, so adding an op is one
:class:`OpSpec` plus one ``Dispatcher._op_<name>`` handler.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.states import State
from repro.core.windows import DayType

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "OPS",
    "OPS_BY_VERSION",
    "OP_SPECS",
    "OpSpec",
    "Param",
    "min_version",
    "STATUSES",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_SHED",
    "STATUS_DEADLINE",
    "STATUS_CLOSING",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "Request",
    "Response",
]

#: Current protocol version; bump when an op's contract changes.  Each
#: op's ``OpSpec.since`` names the version that introduced it.  v4
#: added no op but the optional ``trace`` envelope field (distributed-
#: tracing context), which may ride a request at *any* version — pre-v4
#: servers decode with ``from_wire``, which ignores unknown keys, so
#: the envelope degrades silently on old peers.  A client sending an op
#: newer than the request's version gets the structured
#: unsupported-version error.
PROTOCOL_VERSION = 8

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_SHED = "shed"
STATUS_DEADLINE = "deadline_exceeded"
STATUS_CLOSING = "shutting_down"

#: Every status a response may carry.
STATUSES: frozenset[str] = frozenset(
    {STATUS_OK, STATUS_ERROR, STATUS_SHED, STATUS_DEADLINE, STATUS_CLOSING}
)

#: Statuses that mean "the server refused work it was offered" — safe to
#: retry elsewhere/later, no computation happened.
BACKPRESSURE_STATUSES: frozenset[str] = frozenset({STATUS_SHED, STATUS_CLOSING})

#: Upper bound on one request/response line.  Generous enough for a
#: register op shipping a multi-week trace, small enough to stop a
#: malformed client from ballooning server memory.
MAX_LINE_BYTES = 32 * 1024 * 1024


class ProtocolError(ValueError):
    """A request (or response) that violates the wire contract."""


# ---------------------------------------------------------------------- #
# the op table: the one place an op is declared
# ---------------------------------------------------------------------- #


def _finite(p: "Param", value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{p.name!r} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ProtocolError(f"{p.name!r} must be finite, got {value!r}")
    return float(value)


def _positive(p: "Param", value: Any) -> float:
    value = _finite(p, value)
    if value <= 0:
        raise ProtocolError(f"{p.name!r} must be positive, got {value!r}")
    return value


def _int(p: "Param", value: Any) -> int:
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ProtocolError(f"{p.name!r} must be an integer, got {value!r}")
    if value < p.lo:
        raise ProtocolError(f"{p.name} must be >= {p.lo}, got {value!r}")
    return int(value)


def _bool(p: "Param", value: Any) -> bool:
    if not isinstance(value, bool):
        raise ProtocolError(f"{p.name!r} must be true or false, got {value!r}")
    return value


def _str(p: "Param", value: Any) -> str:
    if not isinstance(value, str):
        raise ProtocolError(f"{p.name!r} must be a string, got {value!r}")
    return value


def _list(p: "Param", value: Any) -> list:
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(f"{p.name!r} must be a list, got {type(value).__name__}")
    return list(value)


def _str_list(p: "Param", value: Any) -> list[str]:
    return [_str(p, v) for v in _list(p, value)]


def _positive_list(p: "Param", value: Any) -> list[float]:
    return [_positive(p, v) for v in _list(p, value)]


def _day_type(p: "Param", value: Any) -> DayType:
    try:
        return DayType(value)
    except ValueError:
        raise ProtocolError(
            f"unknown day_type {value!r}; expected one of "
            f"{[d.value for d in DayType]}"
        ) from None


def _init_state(p: "Param", value: Any) -> State:
    try:
        return State[_str(p, value).upper()]
    except KeyError:
        raise ProtocolError(
            f"unknown init_state {value!r}; expected one of {[s.name for s in State]}"
        ) from None


def _mapping(p: "Param", value: Any) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ProtocolError(f"{p.name!r} must be an object, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Param:
    """One declared request parameter.

    ``kind`` is one of the converters above, the closed set of param
    types (``_list`` carries samples, whose values ``MachineTrace``
    checks); ``default`` is the parsed value an absent (or null)
    optional param takes; ``lo`` is the lower bound of an ``_int``.
    """

    name: str
    kind: Callable[["Param", Any], Any]
    required: bool = False
    default: Any = None
    lo: int = 0

    def parse(self, params: Mapping[str, Any]) -> Any:
        value = params.get(self.name)
        if value is None:
            if self.required:
                raise ProtocolError(f"missing required param {self.name!r}")
            return self.default
        return self.kind(self, value)


@dataclass(frozen=True)
class OpSpec:
    """Everything the wire, the dispatcher, the router, the clients and
    ``repro query`` need to know about one op."""

    name: str
    #: Protocol version that introduced the op.
    since: int
    #: Declared params, in the order clients put them on the wire;
    #: params a request carries beyond these are ignored.
    params: tuple[Param, ...] = ()
    #: How the cluster router serves the op: ``local`` (answered by the
    #: receiving process), ``single`` (the key's owner, with failover),
    #: ``scatter`` (every live node, merged), ``write`` (all owners of
    #: the key, under a quorum) or ``broadcast`` (a scatter without the
    #: shard report).
    route: str = "local"
    #: Routing key of ``single``/``write`` ops: a param name, or a dotted
    #: path into a mapping param.  Job keys shard apart from machines.
    key: str | None = None
    #: Name of the ``repro.cluster.router`` function merging the nodes'
    #: answers of a ``scatter``/``broadcast`` op.
    merge: str | None = None
    #: Op the router scatters instead, when merging needs other answers.
    scatter_as: str | None = None
    #: Dispatcher component the op needs (``sched`` or ``adapt``).
    gate: str | None = None

    def parse(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Validated, typed values of every declared param."""
        return {p.name: p.parse(params) for p in self.params}


_WINDOW = (
    Param("start_hour", _finite, required=True),
    Param("hours", _positive, required=True),
    Param("day_type", _day_type, default=DayType.WEEKDAY),
)
_MACHINE = Param("machine", _str, required=True)
_JOB = Param("job", _str, required=True)
_FLEET = (Param("machines", _str_list), Param("missing_ok", _bool, default=False))
_SAMPLES = (
    _MACHINE,
    Param("start_time", _finite, default=0.0),
    Param("sample_period", _positive, required=True),
    Param("load", _list, required=True),
    Param("free_mem_mb", _list),
    Param("up", _list),
)

#: Every op of the current protocol version.
OP_SPECS: dict[str, OpSpec] = {spec.name: spec for spec in (
    OpSpec("predict", 1, (*_WINDOW, _MACHINE, Param("init_state", _init_state)),
           route="single", key="machine"),
    OpSpec("rank", 1, _WINDOW, route="scatter", merge="merge_rank"),
    OpSpec("select", 1, (*_WINDOW, Param("k", _int, default=1, lo=1)),
           route="scatter", merge="merge_select", scatter_as="rank"),
    OpSpec("horizon", 1,
           (*_WINDOW, _MACHINE, Param("tr_threshold", _finite, default=0.9)),
           route="single", key="machine"),
    OpSpec("register", 1, _SAMPLES, route="write", key="machine"),
    OpSpec("health", 1),
    OpSpec("extend", 2, _SAMPLES, route="write", key="machine"),
    OpSpec("quality", 3, (Param("machine", _str),),
           route="scatter", merge="merge_quality"),
    OpSpec("submit", 5, (
        _JOB,
        Param("total_cpu_seconds", _positive, required=True),
        Param("cpu", _positive, default=1.0),
        Param("mem_mb", _finite, default=64.0),
        Param("checkpoint_interval_s", _positive),
    ), route="single", key="job", gate="sched"),
    OpSpec("job_status", 5, (_JOB,), route="single", key="job", gate="sched"),
    OpSpec("cancel", 5, (_JOB,), route="write", key="job", gate="sched"),
    OpSpec("jobs", 5, route="scatter", merge="merge_jobs", gate="sched"),
    OpSpec("replace", 5, (
        Param("machines", _str_list, required=True),
        Param("reason", _str, default="node_down"),
        Param("restore", _bool, default=False),
    ), route="broadcast", merge="merge_replace", gate="sched"),
    OpSpec("job_put", 5, (Param("record", _mapping, required=True),),
           route="write", key="record.job", gate="sched"),
    OpSpec("tail", 6, (_MACHINE, Param("n", _int, default=10)),
           route="single", key="machine"),
    OpSpec("predict_batch", 7, (*_WINDOW, *_FLEET),
           route="scatter", merge="merge_predict_batch"),
    OpSpec("fleet_scan", 7,
           (*_WINDOW, *_FLEET, Param("horizons_hours", _positive_list)),
           route="scatter", merge="merge_fleet_scan"),
    OpSpec("adapt_status", 8, (Param("machine", _str),),
           route="scatter", merge="merge_adapt_status"),
    OpSpec("adapt_retune", 8, (_MACHINE, Param("trigger", _str, default="manual")),
           route="write", key="machine", gate="adapt"),
    OpSpec("adapt_promote", 8, (_MACHINE, Param("force", _bool, default=False)),
           route="write", key="machine", gate="adapt"),
)}

#: The op set of each protocol version.  A server validates a request's
#: op against the *request's* version, so an old client is never
#: answered with an op it cannot know about, and a new client talking
#: to an old server gets a structured "unsupported version" error
#: rather than a dropped connection.
OPS_BY_VERSION: dict[int, frozenset[str]] = {
    version: frozenset(s.name for s in OP_SPECS.values() if s.since <= version)
    for version in range(1, PROTOCOL_VERSION + 1)
}

#: Versions this build can answer.
SUPPORTED_VERSIONS: frozenset[int] = frozenset(OPS_BY_VERSION)

#: The full op set of the current version.
OPS: frozenset[str] = OPS_BY_VERSION[PROTOCOL_VERSION]


def min_version(op: str) -> int:
    """The lowest protocol version that includes ``op``.

    Clients send each request at this version so they stay compatible
    with older servers for ops those servers already speak.
    """
    try:
        return OP_SPECS[op].since
    except KeyError:
        raise ProtocolError(
            f"unknown op {op!r}; v{PROTOCOL_VERSION} ops: {', '.join(sorted(OPS))}"
        ) from None


def _encode(obj: Mapping[str, Any]) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def _decode_line(line: bytes | str) -> dict[str, Any]:
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


@dataclass(frozen=True)
class Request:
    """One client request."""

    op: str
    params: Mapping[str, Any] = field(default_factory=dict)
    id: str = ""
    deadline_ms: float | None = None
    version: int = PROTOCOL_VERSION
    #: Optional distributed-tracing context (v4 envelope).  Kept as the
    #: raw wire mapping — this module stays pure wire format; the obs
    #: layer parses it into a ``TraceContext``.  Absent (None) on
    #: untraced requests, so a v3 peer round-trips byte-identically.
    trace: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.version not in SUPPORTED_VERSIONS:
            raise ProtocolError(
                f"unsupported protocol version {self.version!r} "
                f"(this build speaks v1..v{PROTOCOL_VERSION})"
            )
        version_ops = OPS_BY_VERSION[self.version]
        if self.op not in version_ops:
            if self.op in OPS:
                raise ProtocolError(
                    f"op {self.op!r} requires protocol v{min_version(self.op)}, "
                    f"request declared v{self.version}"
                )
            raise ProtocolError(
                f"unknown op {self.op!r}; v{self.version} ops: "
                f"{', '.join(sorted(version_ops))}"
            )
        if self.deadline_ms is not None and not (
            0 < self.deadline_ms < math.inf
        ):
            raise ProtocolError(
                f"deadline_ms must be positive and finite, got {self.deadline_ms}"
            )
        if self.trace is not None:
            if not isinstance(self.trace, Mapping):
                raise ProtocolError(
                    f"'trace' must be an object, got {type(self.trace).__name__}"
                )
            if not self.trace.get("trace_id") or not self.trace.get("span_id"):
                raise ProtocolError(
                    "'trace' needs non-empty trace_id and span_id"
                )

    def to_wire(self) -> dict[str, Any]:
        """The JSON-serializable wire object."""
        obj: dict[str, Any] = {"v": self.version, "id": self.id, "op": self.op}
        if self.params:
            obj["params"] = dict(self.params)
        if self.deadline_ms is not None:
            obj["deadline_ms"] = self.deadline_ms
        if self.trace is not None:
            obj["trace"] = dict(self.trace)
        return obj

    def encode(self) -> bytes:
        """One wire line (JSON + newline)."""
        return _encode(self.to_wire())

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any]) -> "Request":
        """Validate and build a request from a decoded wire object."""
        if "op" not in obj:
            raise ProtocolError("request is missing 'op'")
        params = obj.get("params", {})
        if not isinstance(params, Mapping):
            raise ProtocolError(f"'params' must be an object, got {type(params).__name__}")
        deadline = obj.get("deadline_ms")
        if deadline is not None and (
            isinstance(deadline, bool) or not isinstance(deadline, (int, float))
        ):
            raise ProtocolError(f"'deadline_ms' must be a number, got {deadline!r}")
        version = obj.get("v", PROTOCOL_VERSION)
        if isinstance(version, bool) or not isinstance(version, int):
            raise ProtocolError(f"'v' must be an integer version, got {version!r}")
        trace = obj.get("trace")
        if trace is not None and not isinstance(trace, Mapping):
            raise ProtocolError(f"'trace' must be an object, got {type(trace).__name__}")
        return cls(
            op=str(obj["op"]),
            params=params,
            id=str(obj.get("id", "")),
            deadline_ms=None if deadline is None else float(deadline),
            version=version,
            trace=trace,
        )

    @classmethod
    def decode(cls, line: bytes | str) -> "Request":
        """Parse one wire line into a request."""
        return cls.from_wire(_decode_line(line))


@dataclass(frozen=True)
class Response:
    """One server response."""

    id: str
    status: str
    result: Any = None
    error: Mapping[str, str] | None = None
    coalesced: bool = False
    elapsed_ms: float | None = None
    version: int = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ProtocolError(
                f"unknown status {self.status!r}; expected one of {sorted(STATUSES)}"
            )

    @property
    def ok(self) -> bool:
        """True when the request succeeded."""
        return self.status == STATUS_OK

    @property
    def backpressure(self) -> bool:
        """True when the server refused the work (shed / shutting down)."""
        return self.status in BACKPRESSURE_STATUSES

    # -- construction helpers ------------------------------------------- #

    @classmethod
    def success(
        cls,
        request_id: str,
        result: Any,
        *,
        coalesced: bool = False,
        elapsed_ms: float | None = None,
    ) -> "Response":
        """An ``ok`` response carrying ``result``."""
        return cls(
            id=request_id,
            status=STATUS_OK,
            result=result,
            coalesced=coalesced,
            elapsed_ms=elapsed_ms,
        )

    @classmethod
    def failure(
        cls,
        request_id: str,
        status: str,
        error_type: str,
        message: str,
        *,
        coalesced: bool = False,
        elapsed_ms: float | None = None,
    ) -> "Response":
        """A non-``ok`` response with a structured error."""
        return cls(
            id=request_id,
            status=status,
            error={"type": error_type, "message": message},
            coalesced=coalesced,
            elapsed_ms=elapsed_ms,
        )

    # -- wire form ------------------------------------------------------- #

    def to_wire(self) -> dict[str, Any]:
        """The JSON-serializable wire object."""
        obj: dict[str, Any] = {"v": self.version, "id": self.id, "status": self.status}
        if self.result is not None:
            obj["result"] = self.result
        if self.error is not None:
            obj["error"] = dict(self.error)
        if self.coalesced:
            obj["coalesced"] = True
        if self.elapsed_ms is not None:
            obj["elapsed_ms"] = round(self.elapsed_ms, 3)
        return obj

    def encode(self) -> bytes:
        """One wire line (JSON + newline)."""
        return _encode(self.to_wire())

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any]) -> "Response":
        """Validate and build a response from a decoded wire object."""
        if "status" not in obj:
            raise ProtocolError("response is missing 'status'")
        error = obj.get("error")
        if error is not None and not isinstance(error, Mapping):
            raise ProtocolError(f"'error' must be an object, got {type(error).__name__}")
        return cls(
            id=str(obj.get("id", "")),
            status=str(obj["status"]),
            result=obj.get("result"),
            error=error,
            coalesced=bool(obj.get("coalesced", False)),
            elapsed_ms=obj.get("elapsed_ms"),
            version=int(obj.get("v", PROTOCOL_VERSION)),
        )

    @classmethod
    def decode(cls, line: bytes | str) -> "Response":
        """Parse one wire line into a response."""
        return cls.from_wire(_decode_line(line))
