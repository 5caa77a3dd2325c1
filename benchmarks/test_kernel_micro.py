"""Micro-benchmarks of the hot kernels (true timing benchmarks)."""

import numpy as np
import pytest

from repro.core.classifier import StateClassifier
from repro.core.smp import SmpKernel, estimate_kernel, failure_probabilities
from repro.fleet import FleetKernel, solve_fleet
from repro.traces.synthesis import synthesize_trace


@pytest.fixture(scope="module")
def random_kernel():
    rng = np.random.default_rng(0)
    n = 3000
    k = np.zeros((8, n + 1))
    for rows in (slice(0, 4), slice(4, 8)):
        raw = rng.random((4, n))
        raw /= raw.sum()
        k[rows, 1:] = raw * 0.8
    return SmpKernel(k, 6.0)


@pytest.fixture(scope="module")
def day_sequences():
    rng = np.random.default_rng(1)
    seqs = []
    for _ in range(40):
        s = np.ones(1200, dtype=np.int8)
        i = 0
        while i < 1200:
            ln = int(rng.integers(5, 60))
            s[i : i + ln] = int(rng.choice([1, 1, 2, 2, 3]))
            i += ln
        seqs.append(s)
    return seqs


def test_solver_speed_horizon_3000(benchmark, random_kernel):
    """The Eq.-3 recursion at a 5 h window with d = 6 s."""
    result = benchmark(failure_probabilities, random_kernel, 1)
    assert 0.0 <= result.sum() <= 1.0


def test_kernel_estimation_speed(benchmark, day_sequences):
    """Q/H estimation from 40 pooled history windows."""
    kern = benchmark(estimate_kernel, day_sequences, 1200, 6.0)
    assert kern.horizon == 1200


def test_classifier_speed_one_day(benchmark):
    """Classifying one day of 6-second samples."""
    trace = synthesize_trace("micro", n_days=1, sample_period=6.0, seed=2)
    clf = StateClassifier()
    states = benchmark(clf.classify_trace, trace)
    assert states.shape[0] == trace.n_samples


@pytest.fixture(scope="module")
def fleet_100():
    rng = np.random.default_rng(4)
    n = 600
    kernels = []
    for _ in range(100):
        k = np.zeros((8, n + 1))
        for rows in (slice(0, 4), slice(4, 8)):
            raw = rng.random((4, n))
            raw /= raw.sum()
            k[rows, 1:] = raw * 0.8
        kernels.append(SmpKernel(k, 6.0))
    ids = [f"m{i:03d}" for i in range(100)]
    inits = rng.integers(1, 3, size=100)
    return FleetKernel(ids, kernels), inits


def test_fleet_solve_speed_100(benchmark, fleet_100):
    """One stacked 100-machine solve at horizon 600."""
    fleet, inits = fleet_100
    solution = benchmark(solve_fleet, fleet, inits)
    assert solution.tr.shape == (100,)


def test_fleet_kernel_tensors_stay_contiguous(fleet_100):
    """The stacked tensors must be owned, C-contiguous float64.

    ``solve_fleet`` slices ``coupling`` and ``direct`` every step of the
    recursion; a silent regression to a strided view (e.g. dropping the
    copy of the reversed rows) would force numpy to copy per matmul call.
    This guard fails loudly instead.
    """
    fleet, inits = fleet_100
    solve_fleet(fleet, inits)  # a solve must not perturb the tensors
    for name in ("k", "coupling", "direct"):
        arr = getattr(fleet, name)
        assert arr.flags["C_CONTIGUOUS"], f"{name} lost C-contiguity"
        assert arr.dtype == np.float64, f"{name} is {arr.dtype}, not float64"
        assert arr.base is None, f"{name} is a view, not an owned copy"


def test_fleet_solve_beats_scalar_loop(fleet_100):
    """The batched pass must outrun the equivalent scalar loop."""
    import time

    fleet, inits = fleet_100
    kernels = [SmpKernel(np.array(fleet.k[i]), 6.0) for i in range(len(fleet))]
    solve_fleet(fleet, inits)  # warm both paths
    [failure_probabilities(k, int(s)) for k, s in zip(kernels, inits)]
    t0 = time.perf_counter()
    [failure_probabilities(k, int(s)) for k, s in zip(kernels, inits)]
    scalar_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    solve_fleet(fleet, inits)
    batched_s = time.perf_counter() - t0
    assert batched_s < scalar_s, (
        f"batched solve ({batched_s:.4f}s) slower than "
        f"scalar loop ({scalar_s:.4f}s)"
    )


def test_synthesis_speed_one_week(benchmark):
    """Synthesizing one week of 6-second samples."""
    trace = benchmark(
        synthesize_trace, "micro2", n_days=7, sample_period=6.0, seed=3
    )
    assert trace.n_days == 7
