"""Per-layer metrics and the latency ledger of one traced phase.

Input: the launcher's record (wrapped calls keyed by request, the
program's ``dispatch.*`` spans, counters at the two marks) and the
generator's outcomes for the same phase.  Only requests of the traced
phases count (the timed phase, and the write phase of ``warm_poll`` and
``cold_query``); warm-up and check traffic carry other ids.

The ledger splits the traced end-to-end latency of reads, and
separately of writes, into layer self times.  It averages over the
requests whose latency lies in the middle fifth of the distribution
(40th to 60th percentile), so it describes the median request;
``unattributed`` is what no layer recorded: socket and event-loop time
on both sides, the client, and thread hand-offs that no span covers.
"""

from __future__ import annotations

from collections import defaultdict

#: Ledger row of each recorded layer (store.wal nests inside store.append).
ROWS = {
    "serve.protocol.decode": "serve.protocol",
    "serve.protocol.encode": "serve.protocol",
    "fleet.scan": "fleet.scan",
    "fleet.solve": "fleet.solve",
    "core.classifier": "core.classifier",
    "core.estimator": "core.estimator",
    "core.smp": "core.smp",
    "service.ingest": "service.ingest",
    "store.append": "store.append",
    "store.wal": "store.append",
    "store.fsync": "store.fsync",
    "audit.record": "audit.record",
    "audit.resolve": "audit.resolve",
}
LEDGER_ROWS = ("serve.protocol", "serve.dispatch.queue_wait", "serve.dispatch",
               *dict.fromkeys(v for v in ROWS.values() if v != "serve.protocol"))
_CODEC = ("serve.protocol.decode", "serve.protocol.encode")


def quantile(values, q: float) -> float:
    """Exact nearest-rank quantile of raw samples (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))  # ceil(n q), at least 1
    return float(ordered[int(rank) - 1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(record: dict, outcomes: list) -> dict[str, float]:
    """Every per-layer metric of one traced phase."""
    keys = {o.rid: o for o in outcomes if o.rid}
    calls = [c for c in record["calls"] if c[1] in keys]
    by_layer: dict[str, list] = defaultdict(list)
    for layer, _key, dur, _self, extra in calls:
        by_layer[layer].append((dur, extra))
    program: dict[str, list[float]] = defaultdict(list)
    for name, key, dur in record["program"]:
        if key in keys:
            program[name].append(dur * 1e3)
    start, end = record["marks"]["start"]["counters"], record["marks"]["end"]["counters"]
    delta = {name: end[name] - start[name] for name in start}

    def busy_ms(layer: str) -> float:
        return sum(d for d, _ in by_layer[layer]) * 1e3

    m: dict[str, float] = {}
    for layer in ("core.classifier", "core.estimator", "core.smp", "fleet.scan",
                  "store.append"):
        m[f"{layer}.calls"] = float(len(by_layer[layer]))
        m[f"{layer}.busy_ms"] = busy_ms(layer)
    m["core.online.day_reuse_ratio"] = _ratio(
        delta["incremental_cache_hits_total"],
        delta["incremental_cache_hits_total"] + delta["incremental_cache_misses_total"])
    m["core.smp.steps_p50"] = quantile([e for _, e in by_layer["core.smp"]], 0.5)
    m["fleet.solve_busy_ms"] = busy_ms("fleet.solve")
    m["fleet.rows_rebuilt"] = delta["fleet_kernels_rebuilt_total"]
    m["fleet.row_reuse_ratio"] = _ratio(
        delta["fleet_kernels_reused_total"],
        delta["fleet_kernels_reused_total"] + delta["fleet_kernels_rebuilt_total"])
    for side in ("decode", "encode"):
        layer = f"serve.protocol.{side}"
        m[f"{layer}_us"] = quantile([d * 1e6 for d, _ in by_layer[layer]], 0.5)
    m["serve.protocol.request_bytes"] = _mean([e for _, e in by_layer["serve.protocol.decode"]])
    m["serve.protocol.response_bytes"] = _mean([e for _, e in by_layer["serve.protocol.encode"]])
    m["serve.dispatch.queue_wait_p50_ms"] = quantile(program["dispatch.queue_wait"], 0.5)
    m["serve.dispatch.queue_wait_p99_ms"] = quantile(program["dispatch.queue_wait"], 0.99)
    m["serve.dispatch.compute_p50_ms"] = quantile(program["dispatch.compute"], 0.5)
    m["serve.dispatch.shed"] = delta["serve_shed_total"]
    predicts = sum(1 for o in outcomes if o.op.op == "predict")
    m["serve.dispatch.coalesced_ratio"] = _ratio(delta["serve_coalesced_requests_total"], predicts)
    m["store.fsync_p99_ms"] = quantile([d * 1e3 for d, _ in by_layer["store.fsync"]], 0.99)
    m["store.bytes_appended"] = sum((e for _, e in by_layer["store.wal"]), 0.0)
    m["audit.record.busy_ms"] = busy_ms("audit.record")
    m["audit.resolve.busy_ms"] = busy_ms("audit.resolve")
    reads = [o.latency_ms for o in outcomes if o.op.kind == "read" and o.ok]
    m["ledger.traced_read_p50_ms"] = quantile(reads, 0.5)
    m.update(ledger(record, outcomes, "read", "ledger."))
    m.update(ledger(record, outcomes, "write", "ledger.write."))
    return m


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def ledger(record: dict, outcomes: list, kind: str, prefix: str) -> dict[str, float]:
    """Layer self-time shares of the median-band traced latency of ``kind`` ops."""
    ops = sorted((o for o in outcomes if o.op.kind == kind and o.ok),
                 key=lambda o: o.latency_ms)
    lo = int(len(ops) * 0.4)
    band = ops[lo: max(int(len(ops) * 0.6), lo + 1)]
    wanted = {o.rid for o in band}
    rows: dict[str, dict[str, float]] = {rid: defaultdict(float) for rid in wanted}
    worker_self: dict[str, float] = defaultdict(float)
    for layer, key, _dur, self_s, _extra in record["calls"]:
        if key in wanted:
            rows[key][ROWS[layer]] += self_s * 1e3
            if layer not in _CODEC:
                worker_self[key] += self_s * 1e3
    for name, key, dur in record["program"]:
        if key in wanted:
            if name == "dispatch.queue_wait":
                rows[key]["serve.dispatch.queue_wait"] += dur * 1e3
            else:  # the compute span's own time, outside any wrapped layer
                rows[key]["serve.dispatch"] += dur * 1e3 - worker_self[key]
    e2e = _mean([o.latency_ms for o in band])
    out = {}
    for row in LEDGER_ROWS:
        out[f"{prefix}{row}_share"] = _ratio(_mean([rows[o.rid][row] for o in band]), e2e)
    out[f"{prefix}unattributed_share"] = 1.0 - sum(out.values())
    return out
