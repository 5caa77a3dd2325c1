"""Attribution self-test: a doubled layer must show where it was doubled.

The benchmark's launcher can run ``StateClassifier.classify_window``
twice per call (``--double-classifier``).  That must

* raise ``core.classifier.busy_ms`` in the traced run of ``cold_query``;
* push ``read_p50_ms`` on ``cold_query`` past its bound;
* leave every end-to-end metric of ``warm_poll`` within its bound
  (that workload never classifies);

and an unwrapped rerun of ``cold_query`` must stay within bounds.

Each configuration runs ``RUNS`` times on different seeds and is
compared by its median, as the benchmark's acceptance rule compares
commits.  The whole test takes about ten minutes on a 2-core host, so it
lives with the benchmark rather than in the tier-1 suite::

    python3 -m pytest perfbench/test_attribution.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import median

import pytest

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 10
RUNS = 3
SEEDS = (101, 102, 103)


def _bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _run(workload: str, seed: int, *, trace: int = 0, double: bool = False) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    if double:
        argv.append("--double-classifier")
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def _medians(workload: str, *, double: bool = False) -> dict[str, float]:
    runs = [_run(workload, seed, double=double) for seed in SEEDS[:RUNS]]
    return {name: median(r[name] for r in runs) for name in runs[0]}


def _worse_by(name: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    higher_is_better = name == "sustained_rps"
    return (base - new) / base if higher_is_better else (new - base) / base


@pytest.fixture(scope="module")
def bounds() -> dict[str, float]:
    return _bounds()


@pytest.fixture(scope="module")
def cold_base() -> dict[str, float]:
    return _medians("cold_query")


def test_doubling_raises_classifier_busy_time():
    base = _run("cold_query", SEEDS[0], trace=1)
    doubled = _run("cold_query", SEEDS[0], trace=1, double=True)
    warm = _run("warm_poll", SEEDS[0], trace=1)
    assert base["core.classifier.calls"] > 0
    assert warm["core.classifier.calls"] <= 0.01 * base["core.classifier.calls"]
    assert doubled["core.classifier.busy_ms"] > 1.5 * base["core.classifier.busy_ms"]


def test_doubling_pushes_cold_query_read_p50_past_its_bound(bounds, cold_base):
    doubled = _medians("cold_query", double=True)
    assert _worse_by("read_p50_ms", cold_base["read_p50_ms"],
                     doubled["read_p50_ms"]) > bounds["read_p50_ms"]


def test_doubling_leaves_warm_poll_within_bounds(bounds):
    base = _medians("warm_poll")
    doubled = _medians("warm_poll", double=True)
    for name, bound in bounds.items():
        assert _worse_by(name, base[name], doubled[name]) <= bound, name


def test_unwrapped_rerun_stays_within_bounds(bounds, cold_base):
    rerun = _medians("cold_query")
    for name, bound in bounds.items():
        assert _worse_by(name, cold_base[name], rerun[name]) <= bound, name
