"""Deterministic dispatcher tests: coalescing, shedding, deadlines, drain.

A gated stub service lets the tests hold a worker mid-computation, so
queue states (in flight, queued, full) are reached deterministically
instead of by timing races.
"""

import threading

import numpy as np
import pytest

from repro.core.estimator import EstimatorConfig
from repro.core.windows import SECONDS_PER_DAY
from repro.obs.metrics import scoped_registry
from repro.serve.dispatch import DispatchConfig, Dispatcher
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    STATUS_CLOSING,
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_SHED,
    Request,
)
from repro.service import AvailabilityService
from repro.traces.trace import MachineTrace


class GatedService:
    """Duck-typed service whose predict blocks until the gate opens."""

    def __init__(self):
        self.gate = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def predict(self, machine, window, dtype, init_state=None):
        with self._lock:
            self.calls += 1
        assert self.gate.wait(timeout=10.0), "test gate never opened"
        return 0.5

    def __len__(self):
        return 1


def predict_req(rid, machine="m0", start_hour=9.0, hours=2.0, deadline_ms=None):
    return Request(
        op="predict",
        params={"machine": machine, "start_hour": start_hour, "hours": hours},
        id=rid,
        deadline_ms=deadline_ms,
    )


@pytest.fixture()
def gated():
    svc = GatedService()
    yield svc
    svc.gate.set()  # never leave a worker thread blocked


class TestCoalescing:
    def test_identical_inflight_queries_compute_once(self, gated):
        with scoped_registry() as reg:
            d = Dispatcher(gated, DispatchConfig(max_workers=1, queue_depth=16))
            primary = d.submit(predict_req("a"))
            follower1 = d.submit(predict_req("b"))
            follower2 = d.submit(predict_req("c"))
            distinct = d.submit(predict_req("d", start_hour=14.0))
            gated.gate.set()
            responses = [f.result(timeout=5) for f in (primary, follower1, follower2, distinct)]
            d.close()
        assert all(r.ok for r in responses)
        assert [r.coalesced for r in responses] == [False, True, True, False]
        assert [r.id for r in responses] == ["a", "b", "c", "d"]
        assert all(r.result == {"machine": "m0", "tr": 0.5} for r in responses[:3])
        # only the primary and the distinct window computed
        assert gated.calls == 2
        assert reg.get("serve_coalesced_requests_total").value == 2.0

    def test_coalesced_requests_do_not_consume_queue_depth(self, gated):
        d = Dispatcher(gated, DispatchConfig(max_workers=1, queue_depth=1))
        primary = d.submit(predict_req("a"))
        followers = [d.submit(predict_req(f"f{i}")) for i in range(5)]
        gated.gate.set()
        assert primary.result(timeout=5).ok
        assert all(f.result(timeout=5).ok for f in followers)
        d.close()

    def test_different_day_type_not_coalesced(self, gated):
        d = Dispatcher(gated, DispatchConfig(max_workers=2, queue_depth=16))
        r1 = Request(op="predict", id="wd",
                     params={"machine": "m0", "start_hour": 9, "hours": 2,
                             "day_type": "weekday"})
        r2 = Request(op="predict", id="we",
                     params={"machine": "m0", "start_hour": 9, "hours": 2,
                             "day_type": "weekend"})
        f1, f2 = d.submit(r1), d.submit(r2)
        gated.gate.set()
        assert not f1.result(timeout=5).coalesced
        assert not f2.result(timeout=5).coalesced
        assert gated.calls == 2
        d.close()


class TestAdmissionControl:
    def test_sheds_when_queue_full_and_recovers(self, gated):
        with scoped_registry() as reg:
            d = Dispatcher(gated, DispatchConfig(max_workers=1, queue_depth=2))
            running = d.submit(predict_req("run", start_hour=6.0))
            queued = d.submit(predict_req("q", start_hour=7.0))
            shed = d.submit(predict_req("shed", start_hour=8.0))
            # the shed response arrives immediately, without the gate
            resp = shed.result(timeout=5)
            assert resp.status == STATUS_SHED
            assert resp.error["type"] == "Overload"
            assert reg.get("serve_shed_total").value == 1.0
            # health still answers under overload
            health = d.submit(Request(op="health", id="h")).result(timeout=5)
            assert health.ok and health.result["queue_depth"] == 2
            gated.gate.set()
            assert running.result(timeout=5).ok
            assert queued.result(timeout=5).ok
            # capacity freed: new work admitted again
            ok = d.submit(predict_req("again", start_hour=9.5)).result(timeout=5)
            assert ok.ok
            d.close()
            assert reg.get("serve_queue_depth").value == 0.0

    def test_requests_total_statuses(self, gated):
        with scoped_registry() as reg:
            d = Dispatcher(gated, DispatchConfig(max_workers=1, queue_depth=1))
            a = d.submit(predict_req("a", start_hour=6.0))
            b = d.submit(predict_req("b", start_hour=7.0))
            gated.gate.set()
            a.result(timeout=5), b.result(timeout=5)
            d.close()
            totals = reg.get("serve_requests_total")
            assert totals.labels(op="predict", status="ok").value == 1.0
            assert totals.labels(op="predict", status=STATUS_SHED).value == 1.0


class TestDeadlines:
    def test_expired_request_is_not_computed(self, gated):
        d = Dispatcher(gated, DispatchConfig(max_workers=1, queue_depth=16))
        blocker = d.submit(predict_req("blocker", start_hour=6.0))
        doomed = d.submit(predict_req("doomed", start_hour=7.0, deadline_ms=1.0))
        import time

        time.sleep(0.05)  # let the deadline pass while 'doomed' is queued
        gated.gate.set()
        assert blocker.result(timeout=5).ok
        resp = doomed.result(timeout=5)
        assert resp.status == STATUS_DEADLINE
        assert resp.error["type"] == "DeadlineExceeded"
        assert gated.calls == 1  # the doomed request never touched the service
        d.close()

    def test_default_deadline_from_config(self, gated):
        d = Dispatcher(
            gated,
            DispatchConfig(max_workers=1, queue_depth=16, default_deadline_ms=1.0),
        )
        # Only ``doomed`` relies on the 1 ms config default; the blocker
        # gets its own long deadline so a slow worker pickup cannot
        # expire it too.
        blocker = d.submit(predict_req("blocker", start_hour=6.0, deadline_ms=60_000))
        doomed = d.submit(predict_req("doomed", start_hour=7.0))
        import time

        time.sleep(0.05)
        gated.gate.set()
        assert blocker.result(timeout=5).ok
        assert doomed.result(timeout=5).status == STATUS_DEADLINE
        d.close()


class TestShutdown:
    def test_drain_refuses_new_work_and_finishes_inflight(self, gated):
        d = Dispatcher(gated, DispatchConfig(max_workers=1, queue_depth=16))
        inflight = d.submit(predict_req("inflight"))
        drained: list[bool] = []
        closer = threading.Thread(target=lambda: drained.append(d.close(drain=True)))
        closer.start()
        while not d.closing:  # close() has marked the dispatcher closing
            pass
        refused = d.submit(predict_req("late", start_hour=15.0)).result(timeout=5)
        assert refused.status == STATUS_CLOSING
        gated.gate.set()
        closer.join(timeout=10)
        assert drained == [True]
        assert inflight.result(timeout=5).ok

    def test_drain_timeout_reports_failure(self, gated):
        d = Dispatcher(
            gated,
            DispatchConfig(max_workers=1, queue_depth=16, drain_timeout_s=0.05),
        )
        d.submit(predict_req("stuck"))
        assert d.close(drain=True) is False


class TestOpsAgainstRealService:
    @pytest.fixture()
    def service(self):
        def idle_trace(mid, fail_hour=None, n_days=14, period=60.0):
            n_per_day = int(SECONDS_PER_DAY / period)
            load = np.full(n_days * n_per_day, 0.05)
            if fail_hour is not None:
                i0 = int(fail_hour * 3600 / period)
                for day in range(n_days):
                    load[day * n_per_day + i0 : day * n_per_day + i0 + 15] = 0.95
            return MachineTrace(mid, 0.0, period, load, np.full(load.shape, 400.0))

        svc = AvailabilityService(estimator_config=EstimatorConfig(step_multiple=5))
        svc.register(idle_trace("safe"))
        svc.register(idle_trace("risky", fail_hour=9.0))
        return svc

    @pytest.fixture()
    def dispatcher(self, service):
        d = Dispatcher(service, DispatchConfig(max_workers=2, queue_depth=16))
        yield d
        d.close()

    def run(self, dispatcher, op, **params):
        return dispatcher.submit(Request(op=op, params=params, id="t")).result(timeout=10)

    def test_predict_matches_service(self, dispatcher, service):
        from repro.core.windows import ClockWindow, DayType

        resp = self.run(
            dispatcher, "predict", machine="risky", start_hour=8, hours=3
        )
        assert resp.ok
        direct = service.predict("risky", ClockWindow.from_hours(8, 3), DayType.WEEKDAY)
        assert resp.result["tr"] == pytest.approx(direct, abs=1e-12)

    def test_rank_and_select(self, dispatcher):
        rank = self.run(dispatcher, "rank", start_hour=8, hours=3)
        assert [r["machine"] for r in rank.result["ranking"]] == ["safe", "risky"]
        select = self.run(dispatcher, "select", start_hour=8, hours=3, k=2)
        assert select.result["machines"][0] == "safe"
        assert 0.0 <= select.result["survival"] <= 1.0

    def test_horizon(self, dispatcher):
        resp = self.run(
            dispatcher, "horizon", machine="safe", start_hour=8, hours=5,
            tr_threshold=0.9,
        )
        assert resp.result["horizon_seconds"] == pytest.approx(5 * 3600.0)

    def test_register_roundtrip(self, dispatcher):
        load = [0.05] * (14 * 24 * 60)
        resp = self.run(
            dispatcher, "register", machine="fresh", sample_period=60.0, load=load
        )
        assert resp.ok and resp.result == {
            "machine": "fresh", "n_samples": len(load), "replaced": False,
        }
        again = self.run(
            dispatcher, "register", machine="fresh", sample_period=60.0, load=load
        )
        assert again.result["replaced"] is True
        pred = self.run(dispatcher, "predict", machine="fresh", start_hour=9, hours=1)
        assert pred.result["tr"] == pytest.approx(1.0)

    def test_unknown_machine_is_error_response(self, dispatcher):
        resp = self.run(dispatcher, "predict", machine="ghost", start_hour=8, hours=1)
        assert resp.status == STATUS_ERROR
        assert resp.error["type"] == "KeyError"

    def test_missing_param_is_protocol_error(self, dispatcher):
        resp = self.run(dispatcher, "predict", machine="safe")
        assert resp.status == STATUS_ERROR
        assert resp.error["type"] == "ProtocolError"
        assert "start_hour" in resp.error["message"]

    def test_bad_day_type_is_protocol_error(self, dispatcher):
        resp = self.run(
            dispatcher, "predict", machine="safe", start_hour=8, hours=1,
            day_type="holiday",
        )
        assert resp.status == STATUS_ERROR
        assert "day_type" in resp.error["message"]

    def test_health(self, dispatcher):
        resp = self.run(dispatcher, "health")
        assert resp.ok
        assert resp.result["status"] == "ok"
        assert resp.result["machines"] == 2
        assert resp.result["protocol_version"] == PROTOCOL_VERSION
