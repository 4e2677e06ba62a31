"""Unstructured search over 2^nb basis states with the adaptive schedule.

The start state is the uniform superposition, so the angle between start
and target is gamma = 2 arccos(2^{-nb/2}) and the run stays in the span of
the target and the uniform superposition of the rest.  A run updates one
vector of 16 * 2^nb bytes in place and holds O(1) more: both phase operators
are rank-1 updates, no 2^nb x 2^nb matrix.  A step makes one pass over
memory: the s'-phase reads and writes every entry once to add the scaled
mean; the target phase and the success read touch one entry.  The mean
needs no pass of its own.  The run carries the sum of the amplitudes,
<s'|psi> 2^{nb/2}, as one complex number: |s'> is an eigenvector of the
s'-phase with eigenvalue e^{i alpha_j}, so that phase multiplies the sum,
and the target phase adds the change of the one entry it moves.
"""

from __future__ import annotations

import cmath
import math
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

from .schedule import AfgaParams, _check_steps, iter_angles, steps_to_tolerance

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_NB",
    "SearchState",
    "SearchTrace",
    "init_uniform",
    "apply_target_phase",
    "apply_sprime_phase",
    "run_afga_search",
]

MAX_NB = 24
# 1 - success bottoms out at the rounding of the amplitudes, measured at up to
# 3.2e-12 (nb = 19, del_lam = 10 degrees); a tol below this floor is refused
TOL_FLOOR = 1e-10


class SearchState(NamedTuple):
    """Amplitude vector over 2^nb basis states with a marked target index."""

    nb: int
    amps: np.ndarray
    target_index: int

    @property
    def gamma(self) -> float:
        """Angle between the uniform start state and the target, in radians."""
        return _start_angle(self.nb, self.target_index)

    @property
    def success_probability(self) -> float:
        return _success(self.amps, self.target_index)


class SearchTrace(NamedTuple):
    """success[k] after k adaptive steps, plus whether the tol was reached."""

    success: list[float]
    converged: bool
    gamma: float
    del_lam: float

    @property
    def steps(self) -> int:
        return len(self.success) - 1

    @property
    def final_success(self) -> float:
        return self.success[-1]


def _start_angle(nb: int, target_index: int) -> float:
    """gamma = 2 arccos(2^{-nb/2}); raises on nb or target_index out of range."""
    if not 1 <= nb <= MAX_NB:
        raise ValueError(f"nb must lie in [1, {MAX_NB}], got {nb}")
    if not 0 <= target_index < 2**nb:
        raise ValueError(f"target_index must lie in [0, {2**nb - 1}], got {target_index}")
    return 2.0 * math.acos(2.0 ** (-0.5 * nb))


def _success(amps: np.ndarray, target_index: int) -> float:
    """|<t|psi>|^2, the probability of measuring the target."""
    return float(abs(amps[target_index]) ** 2)


def init_uniform(nb: int, target_index: int = 0) -> SearchState:
    """Uniform superposition over 2^nb states with the given marked index."""
    _start_angle(nb, target_index)  # raises on nb or target_index out of range
    import numpy as np
    amps = np.full(2**nb, 2.0 ** (-0.5 * nb), dtype=complex)
    return SearchState(nb, amps, target_index)


def _sprime_phase_inplace(amps: np.ndarray, factor: complex, total: complex) -> complex:
    """e^{i phase |s'><s'|}: adds (factor - 1) <s'|psi> |s'>, the mean in every entry.

    total is the sum of amps, <s'|psi> sqrt(len(amps)); its quotient by
    len(amps) = 2^nb, a power of two, is the mean.  |s'> is an eigenvector of
    the phase with eigenvalue factor, so the sum afterwards is factor * total,
    which is returned.
    """
    amps += (factor - 1.0) * (total / len(amps))
    return factor * total


def apply_target_phase(state: SearchState, phase: float) -> SearchState:
    """e^{i phase |t><t|}: multiplies the target amplitude alone."""
    amps = state.amps.copy()
    amps[state.target_index] *= cmath.exp(1.0j * phase)
    return SearchState(state.nb, amps, state.target_index)


def apply_sprime_phase(state: SearchState, phase: float) -> SearchState:
    """e^{i phase |s'><s'|} with |s'> uniform, on a copy of the state."""
    amps = state.amps.copy()
    _sprime_phase_inplace(amps, cmath.exp(1.0j * phase), complex(amps.sum()))
    return SearchState(state.nb, amps, state.target_index)


def run_afga_search(
    nb: int,
    target_index: int = 0,
    del_lam: float = math.pi / 2,
    max_steps: int | None = None,
    tol: float = 1e-6,
) -> SearchTrace:
    """Drive the uniform start state onto the target with adaptive steps.

    Stops as soon as success >= 1 - tol (converged) or after max_steps
    steps (not converged; the trace is still returned so the caller can
    tell a stalled run from invalid input, which raises ValueError).  The
    default max_steps is ten times the step count predicted by the scalar
    recursion, which raises ConvergenceError where it cycles (del_lam = 0
    or pi); pass max_steps, at most MAX_SCHEDULE_STEPS, to study the
    trapped case.  Every check runs before the 2^nb vector is allocated.
    """
    if not TOL_FLOOR <= tol < 1.0:
        raise ValueError(f"tol must lie in [{TOL_FLOOR:g}, 1), got {tol}")
    gamma = _start_angle(nb, target_index)
    AfgaParams(gamma, del_lam, 0)  # raises on del_lam outside [0, pi]
    if max_steps is None:
        gamma_tol = 2.0 * math.asin(math.sqrt(tol))
        max_steps = 10 * max(steps_to_tolerance(gamma, del_lam, gamma_tol), 1)
    else:
        _check_steps("max_steps", max_steps)
    amps = init_uniform(nb, target_index).amps
    # the sum of the 2^nb equal start amplitudes, exact: a power-of-two scaling
    total = complex(2**nb * 2.0 ** (-0.5 * nb))
    target_factor = cmath.exp(1.0j * del_lam)
    goal = 1.0 - tol
    success = [_success(amps, target_index)]
    for _, _, alpha_j in islice(iter_angles(gamma, del_lam), max_steps):
        if success[-1] >= goal:
            break
        a_t = amps.item(target_index)
        amps[target_index] = a_t * target_factor
        total += (target_factor - 1.0) * a_t
        total = _sprime_phase_inplace(amps, cmath.exp(1.0j * alpha_j), total)
        success.append(_success(amps, target_index))
    return SearchTrace(success, success[-1] >= goal, gamma, del_lam)
