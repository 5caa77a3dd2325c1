"""The op table: one ``OpSpec`` per op, everything else derived.

Structural checks pin that every declared op has a dispatcher handler
taking exactly its params and a router route, and that no wire layer
lists op names of its own.  The schema checks drive malformed params
and envelopes through the dispatcher and a real server socket: every
one must come back as a structured ``ProtocolError``, never as a
Python internal or a dropped line.
"""

from __future__ import annotations

import ast
import inspect
import json
import math
import socket
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cluster import router
from repro.serve import protocol
from repro.serve.dispatch import _DISABLED, DispatchConfig, Dispatcher
from repro.serve.protocol import (
    OP_SPECS,
    OPS,
    OPS_BY_VERSION,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    ProtocolError,
    Request,
)

from tests.serve.test_server import ServerThread, idle_trace

SRC = Path(protocol.__file__).resolve().parents[1]

#: A well-typed value of each param kind.
VALID = {
    protocol._finite: 9.0,
    protocol._positive: 2.0,
    protocol._int: 3,
    protocol._bool: False,
    protocol._str: "m",
    protocol._str_list: ["m"],
    protocol._positive_list: [1.0],
    protocol._day_type: "weekday",
    protocol._init_state: "S1",
    protocol._mapping: {"job": "j"},
    protocol._list: [0.1],
}

#: Malformed values of each param kind.
MALFORMED = {
    protocol._finite: ["9", True, math.inf, -math.inf, math.nan, [1.0]],
    protocol._positive: ["2", True, math.inf, math.nan, 0, -1.5],
    protocol._int: ["a", True, 1.5, math.inf, math.nan, "3"],
    protocol._bool: ["true", 1, 0.0],
    protocol._str: [5, True, ["m"], {"m": 1}],
    protocol._str_list: ["m", [1], 5],
    protocol._positive_list: [[math.inf], [0.0], [True], "1", 1.0],
    protocol._day_type: ["holiday", 5, ["weekday"]],
    protocol._init_state: ["S9", 5, ["S1"]],
    protocol._mapping: [[], "record", 5],
    protocol._list: ["0.1", 5, {"a": 1}],
}


class TestStructure:
    def test_every_op_has_a_handler_taking_its_params(self):
        for spec in OP_SPECS.values():
            declared = {p.name for p in spec.params}
            if {"start_hour", "hours"} <= declared:
                declared = (declared - {"start_hour", "hours"}) | {"window"}
            params = inspect.signature(
                getattr(Dispatcher, f"_op_{spec.name}")
            ).parameters.values()
            named = {p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD}
            named.discard("self")
            if any(p.kind is p.VAR_KEYWORD for p in params):
                # forwards the rest of its params wholesale
                assert named <= declared, spec.name
            else:
                assert named == declared, spec.name

    def test_every_op_has_a_route(self):
        for spec in OP_SPECS.values():
            assert spec.route in (
                "local", "single", "scatter", "write", "broadcast"
            ), spec.name
            if spec.route in ("single", "write"):
                assert spec.key, spec.name
            if spec.route in ("scatter", "broadcast"):
                assert spec.merge in router._MERGES, spec.name
            if spec.scatter_as is not None:
                assert spec.scatter_as in OP_SPECS, spec.name
            if spec.gate is not None:
                assert spec.gate in _DISABLED, spec.name

    def test_versions_come_from_the_table(self):
        assert set(OP_SPECS) == OPS
        for spec in OP_SPECS.values():
            assert 1 <= spec.since <= PROTOCOL_VERSION
            assert protocol.min_version(spec.name) == spec.since
            assert spec.name in OPS_BY_VERSION[spec.since]
            assert spec.name not in OPS_BY_VERSION.get(spec.since - 1, ())

    def test_no_op_names_listed_outside_the_table(self):
        """A set, tuple, list or dict naming two or more ops in a wire
        layer is an op list that should be derived from the table."""
        paths = [SRC / "cli.py", *(SRC / "serve").glob("*.py"),
                 *(SRC / "cluster").glob("*.py")]
        found = []
        for path in paths:
            if path.name == "protocol.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
                    elts = node.elts
                elif isinstance(node, ast.Dict):
                    elts = [k for k in node.keys if k is not None]
                else:
                    continue
                names = [e.value for e in elts
                         if isinstance(e, ast.Constant) and e.value in OPS]
                if len(names) >= 2:
                    found.append(f"{path.name}:{node.lineno} {names}")
        assert found == []


@pytest.fixture(scope="module")
def dispatcher():
    from repro.core.estimator import EstimatorConfig
    from repro.service import AvailabilityService

    service = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=5))
    service.register(idle_trace("m"))
    # Stand-in components open every gate: a malformed request must be
    # refused by the schema before any handler touches them.
    stub = SimpleNamespace(close=lambda: None)
    d = Dispatcher(service, DispatchConfig(max_workers=2), sched=stub, adapt=stub)
    yield d
    d.close()


def run(dispatcher, op, params):
    return dispatcher.submit(Request(op=op, params=params, id="t")).result(timeout=10)


def _bad_requests():
    for spec in OP_SPECS.values():
        base = {p.name: VALID[p.kind] for p in spec.params if p.required}
        for p in spec.params:
            for bad in MALFORMED[p.kind]:
                yield pytest.param(
                    spec.name, dict(base, **{p.name: bad}), p.name,
                    id=f"{spec.name}-{p.name}={bad!r}",
                )
            if p.required:
                missing = {k: v for k, v in base.items() if k != p.name}
                yield pytest.param(
                    spec.name, missing, p.name, id=f"{spec.name}-no-{p.name}"
                )


class TestSchema:
    @pytest.mark.parametrize("op,params,name", list(_bad_requests()))
    def test_malformed_param_is_protocol_error(self, dispatcher, op, params, name):
        resp = run(dispatcher, op, params)
        assert resp.status == STATUS_ERROR
        assert resp.error["type"] == "ProtocolError", resp.error
        assert name in resp.error["message"]

    @pytest.mark.parametrize("op,params", [
        ("predict", {"machine": "m", "start_hour": 9, "hours": math.inf}),
        ("predict", {"machine": "m", "start_hour": 9, "hours": math.nan}),
        ("fleet_scan", {"start_hour": 9, "hours": 2, "horizons_hours": [math.inf]}),
        ("select", {"start_hour": 9, "hours": 2, "k": "a"}),
        ("tail", {"machine": "m", "n": "x"}),
        ("tail", {"machine": "m", "n": True}),
    ])
    def test_values_that_used_to_leak_python_errors(self, dispatcher, op, params):
        resp = run(dispatcher, op, params)
        assert resp.error["type"] == "ProtocolError", resp.error

    def test_semantic_errors_keep_their_types(self, dispatcher):
        ghost = run(dispatcher, "predict",
                    {"machine": "ghost", "start_hour": 9, "hours": 2})
        assert ghost.error["type"] == "KeyError"
        too_many = run(dispatcher, "select", {"start_hour": 9, "hours": 2, "k": 5})
        assert too_many.error["type"] == "ValueError"

    def test_integral_float_and_unknown_params_accepted(self, dispatcher):
        resp = run(dispatcher, "tail", {"machine": "m", "n": 2.0, "extra": [1]})
        assert resp.ok and len(resp.result["samples"]) == 2

    def test_gate_is_checked_before_the_schema(self):
        from repro.service import AvailabilityService

        d = Dispatcher(AvailabilityService(), DispatchConfig(max_workers=1))
        try:
            for spec in OP_SPECS.values():
                if spec.gate is None:
                    continue
                resp = run(d, spec.name, {})
                assert resp.error["type"] == _DISABLED[spec.gate][0].__name__
        finally:
            d.close()


#: Envelopes ``Request.decode`` must refuse (bad version, bad deadline,
#: undecodable bytes) — each with a ProtocolError, never an escape.
BAD_ENVELOPES = [
    b'{"v":"x","id":"a","op":"health"}',
    b'{"v":null,"id":"a","op":"health"}',
    b'{"v":true,"id":"a","op":"health"}',
    b'{"v":1.5,"id":"a","op":"health"}',
    b'{"v":1,"id":"a","op":"health","deadline_ms":NaN}',
    b'{"v":1,"id":"a","op":"health","deadline_ms":Infinity}',
    b'{"v":1,"id":"a","op":"health","deadline_ms":true}',
    b'\xff\xfe{"v":1}',
]


@pytest.mark.parametrize("line", BAD_ENVELOPES)
def test_bad_envelope_is_protocol_error(line):
    with pytest.raises(ProtocolError):
        Request.decode(line)


def raw_exchange(port: int, lines: list[bytes]) -> list[dict]:
    """Send each line on one connection; read one answer per line."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        fh = sock.makefile("rwb")
        answers = []
        for line in lines:
            fh.write(line + b"\n")
            fh.flush()
            answers.append(json.loads(fh.readline()))
        return answers


def assert_refused_then_served(answers: list[dict]) -> None:
    *refused, health = answers
    for answer in refused:
        assert answer["status"] == "error"
        assert answer["error"]["type"] == "ProtocolError"
    assert health["status"] == "ok" and health["id"] == "h"


def test_server_answers_bad_envelopes():
    from repro.service import AvailabilityService

    srv = ServerThread(AvailabilityService())
    try:
        answers = raw_exchange(
            srv.port, BAD_ENVELOPES + [b'{"v":1,"id":"h","op":"health"}']
        )
    finally:
        srv.stop()
    assert_refused_then_served(answers)
