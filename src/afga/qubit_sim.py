"""Single-qubit statevector runs of the adaptive schedule and of plain
fixed-step amplitude amplification.

The target is |0> throughout.  Each adaptive step applies the target phase
e^{i del_lam |0><0|} first and the start-state phase e^{i alpha_j |s'><s'|}
second; the miss probability after k steps is ERR_k = |<1|psi_k>|^2, read
off the amplitude, since 1 - |<0|psi_k>|^2 cancels near 1e-16 and can go
negative.  Both phases are rank-1, so a run carries the two amplitudes
(a0, a1) and never forms a 2x2 operator, the same update search_sim applies
to 2^nb amplitudes.
"""

from __future__ import annotations

import cmath
import itertools
import math
from operator import itemgetter
from typing import Iterable

# polar_unit_vec and the afga.bloch names served below are unused here but
# stay importable: the benchmark tracer patches them
from .schedule import AfgaParams, _lazy_getattr, iter_angles, polar_unit_vec  # noqa: F401

__all__ = ["ErrTrace", "run_afga_qubit", "run_grover_qubit"]
__getattr__ = _lazy_getattr(__name__, "bloch", ("ket_from_unit_vec", "bloch_vec_of", "paulion"))


class ErrTrace:
    """Per-step miss probabilities err[k] and z-components s_fin_z[k], the
    float lists the run built; len() is the step count plus one."""

    def __init__(self, err: list[float], s_fin_z: list[float]) -> None:
        self._err, self._z = err, s_fin_z

    @property
    def err(self) -> list[float]:
        return self._err

    @property
    def s_fin_z(self) -> list[float]:
        return self._z

    @property
    def final_err(self) -> float:
        return self._err[-1]

    def __len__(self) -> int:
        return len(self._err)


def _run(gamma: float, del_lam: float, alphas: Iterable[float]) -> ErrTrace:
    """Start at angle gamma; per alpha, apply the target phase del_lam, then
    the s'-phase alpha: a += (e^{i alpha} - 1) <s'|a> |s'>."""
    s0, s1 = math.cos(0.5 * gamma), math.sin(0.5 * gamma)
    target_factor = cmath.exp(1.0j * del_lam)
    a0, a1 = complex(s0), complex(s1)
    p0, p1 = s0 * s0, s1 * s1
    errs, zs = [p1], [p0 - p1]
    for alpha_j in alphas:
        a0 *= target_factor
        shift = (cmath.exp(1.0j * alpha_j) - 1.0) * (s0 * a0 + s1 * a1)
        a0 += shift * s0
        a1 += shift * s1
        p0, p1 = abs(a0) ** 2, abs(a1) ** 2
        errs.append(p1)
        zs.append(p0 - p1)
    return ErrTrace(errs, zs)


def run_afga_qubit(params: AfgaParams) -> ErrTrace:
    """Run num_steps adaptive steps from the start state at angle gamma.

    err[k] falls monotonically to 0 (rounding rises stay below 1e-26) for
    del_lam in (0, pi); at del_lam = pi it stalls at the trap's residual angle.
    """
    angles = itertools.islice(iter_angles(params.gamma, params.del_lam), params.num_steps)
    return _run(params.gamma, params.del_lam, map(itemgetter(2), angles))


def run_grover_qubit(gamma: float, num_steps: int) -> ErrTrace:
    """Run num_steps fixed steps; err[k] = sin^2((gamma - 2k(pi - gamma)) / 2).

    The fixed step is both phases at pi, which is -sigma_{s'} sigma_z up to
    a global sign.  Unlike the adaptive schedule this overshoots: past the
    best k the miss probability climbs again, with period pi / (pi - gamma)
    in k.
    """
    AfgaParams(gamma, math.pi, num_steps)  # raises on gamma or num_steps out of range
    if gamma == 0.0:
        raise ValueError("gamma = 0 leaves nothing to amplify")
    return _run(gamma, math.pi, itertools.repeat(math.pi, num_steps))
