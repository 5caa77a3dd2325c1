"""Batched Eq.-3 solver over a stacked fleet of SMP kernels.

:class:`FleetKernel` stacks the per-machine kernels into a single
C-contiguous ``(M, 8, H+1)`` float64 tensor (zero-padded to the longest
horizon) and precomputes, once, the operands that
:func:`repro.core.smp.eq3_recursion` slices every step.  :func:`solve_fleet`
then runs that recursion — the same one the scalar solvers run on a
stack of one — for the whole fleet at once: each of the H time steps is
one batched ``matmul`` over both source states and all M machines, so
the Python loop cost is amortized M-fold and the inner products run in
BLAS.

Padding is harmless: at step ``m <= h_i`` the recursion only reads
kernel entries ``l <= m``, all inside machine *i*'s real horizon, so the
per-machine result read out at its own horizon index is bit-for-bit
unaffected by the other machines' longer windows.  (Entries *beyond* a
machine's own horizon are meaningless and the reliability profile holds
its last real value there.)

Clipping parity with the scalar path is deliberate and tested:

* failure probabilities are clipped to [0, 1] elementwise;
* TR = ``clip(1 - clipped_fail.sum(), 0, 1)`` like
  :func:`~repro.core.smp.temporal_reliability`;
* the profile is ``clip(1 - unclipped_sum, 0, 1)`` like
  :func:`~repro.core.smp.temporal_reliability_profile`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.smp import SLOTS, SmpKernel, eq3_operands, eq3_recursion
from repro.obs.instruments import instrument

__all__ = [
    "FleetKernel",
    "FleetSolution",
    "solve_fleet",
    "fleet_failure_probabilities",
    "fleet_temporal_reliability",
    "fleet_reliability_profiles",
]


class FleetKernel:
    """Per-machine SMP kernels stacked into one solvable tensor.

    Parameters
    ----------
    machine_ids:
        One id per kernel, unique, in stacking order.
    kernels:
        The per-machine :class:`~repro.core.smp.SmpKernel` objects.
        Horizons may differ ("ragged" fleets); shorter kernels are
        zero-padded to the longest horizon and their results read out at
        their own horizon index.

    The stack ``k`` and the recursion operands ``coupling`` and ``direct``
    (see :func:`~repro.core.smp.eq3_operands`) are C-contiguous float64
    copies built once here, so :func:`solve_fleet` performs no per-call
    copies.
    """

    __slots__ = ("machine_ids", "k", "horizons", "steps", "coupling", "direct", "_index")

    def __init__(
        self, machine_ids: Sequence[str], kernels: Sequence[SmpKernel]
    ) -> None:
        ids = tuple(str(m) for m in machine_ids)
        if len(ids) != len(kernels):
            raise ValueError(
                f"{len(ids)} machine ids but {len(kernels)} kernels"
            )
        if not ids:
            raise ValueError("a FleetKernel needs at least one machine")
        if len(set(ids)) != len(ids):
            raise ValueError("machine ids must be unique")
        for kern in kernels:
            if not isinstance(kern, SmpKernel):
                raise TypeError(f"expected SmpKernel, got {type(kern).__name__}")
        self.machine_ids = ids
        self._index = {mid: i for i, mid in enumerate(ids)}
        self.horizons = np.array([k.horizon for k in kernels], dtype=np.int64)
        self.steps = np.array([k.step for k in kernels], dtype=np.float64)
        self.k = np.zeros((len(ids), len(SLOTS), int(self.horizons.max()) + 1))
        for i, kern in enumerate(kernels):
            self.k[i, :, : kern.horizon + 1] = kern.k
        self.coupling, self.direct = eq3_operands(self.k)

    def __len__(self) -> int:
        return len(self.machine_ids)

    @property
    def max_horizon(self) -> int:
        """The padded (longest) horizon, in steps."""
        return self.k.shape[2] - 1

    def index(self, machine_id: str) -> int:
        """Stacking index of one machine."""
        try:
            return self._index[machine_id]
        except KeyError:
            raise KeyError(f"machine {machine_id!r} not in this fleet") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FleetKernel(machines={len(self)}, max_horizon={self.max_horizon})"
        )


@dataclass(frozen=True)
class FleetSolution:
    """Everything one batched solve yields, in stacking order.

    ``fail[i]`` are the clipped failure probabilities ``[P_3, P_4, P_5]``
    at machine *i*'s own horizon; ``tr[i]`` its temporal reliability; and
    ``profiles[i, m]`` is ``TR(m)`` for every sub-horizon, holding the
    last real value past the machine's own horizon (ragged fleets).
    """

    fail: np.ndarray  # (M, 3)
    tr: np.ndarray  # (M,)
    profiles: np.ndarray  # (M, max_horizon + 1)


def _validate_inits(fleet: FleetKernel, init_states) -> np.ndarray:
    inits = np.asarray([int(s) for s in init_states], dtype=np.int64)
    if inits.shape != (len(fleet),):
        raise ValueError(
            f"need one init state per machine ({len(fleet)}), got {inits.shape}"
        )
    if np.any((inits < 1) | (inits > 5)):
        bad = inits[(inits < 1) | (inits > 5)][0]
        raise ValueError(f"init states must be one of S1..S5, got {bad}")
    return inits


def solve_fleet(fleet: FleetKernel, init_states) -> FleetSolution:
    """Run the batched Eq.-3 recursion for the whole fleet at once.

    ``init_states`` is one :class:`~repro.core.states.State` (or int) per
    machine in stacking order.  Per machine the result equals the scalar
    :func:`~repro.core.smp.failure_probabilities` /
    :func:`~repro.core.smp.temporal_reliability_profile` pair: both run
    :func:`~repro.core.smp.eq3_recursion`, and property tests pin the
    agreement at 1e-9.
    """
    inits = _validate_inits(fleet, init_states)
    t0 = time.perf_counter()
    m_count, h = len(fleet), fleet.max_horizon
    rows = np.arange(m_count)
    operational = inits <= 2
    if np.any(operational):
        p = eq3_recursion(fleet.coupling, fleet.direct)
        p_own = p[np.where(operational, inits - 1, 0), rows]
    else:
        p_own = np.zeros((m_count, h + 1, 3))

    fail = p_own[rows, fleet.horizons, :]
    fail_sum = p_own.sum(axis=2)  # unclipped, as the scalar profile uses
    profiles = np.clip(1.0 - fail_sum, 0.0, 1.0)
    profiles[:, 0] = 1.0
    # Ragged fleets: beyond a machine's own horizon the padded recursion
    # keeps accumulating meaningless mass — hold the last real value so
    # any sub-horizon read (tr_at) stays well-defined and non-increasing.
    cols = np.arange(h + 1)[None, :]
    beyond = cols > fleet.horizons[:, None]
    profiles = np.where(beyond, profiles[rows, fleet.horizons][:, None], profiles)

    failed = ~operational
    if np.any(failed):
        # Boundary condition P_{i,j}(0) = delta_{ij}: already in a
        # failure state means that failure with certainty, TR(m>0) = 0.
        fail[failed] = 0.0
        fail[failed, inits[failed] - 3] = 1.0
        profiles[failed] = 0.0
        profiles[failed, 0] = 1.0

    fail = np.clip(fail, 0.0, 1.0)
    tr = np.clip(1.0 - fail.sum(axis=1), 0.0, 1.0)
    instrument("fleet_solve_seconds").observe(time.perf_counter() - t0)
    return FleetSolution(fail=fail, tr=tr, profiles=profiles)


def fleet_failure_probabilities(fleet: FleetKernel, init_states) -> np.ndarray:
    """``(M, 3)`` clipped failure probabilities at each machine's horizon."""
    return solve_fleet(fleet, init_states).fail


def fleet_temporal_reliability(fleet: FleetKernel, init_states) -> np.ndarray:
    """``(M,)`` temporal reliabilities, one batched solve."""
    return solve_fleet(fleet, init_states).tr


def fleet_reliability_profiles(fleet: FleetKernel, init_states) -> np.ndarray:
    """``(M, max_horizon + 1)`` TR-by-sub-horizon profiles."""
    return solve_fleet(fleet, init_states).profiles
