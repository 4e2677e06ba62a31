"""Limit behavior of the adaptive schedule.

Two regimes are covered: the del_lam = pi boundary, where the recursion
steps by a constant decrement and lands in a two-cycle instead of
converging, and the continuum limit, where the step index becomes a time
variable and gamma_j relaxes along the flow

    dg/dt = gamma - g - mu(g),

with mu(g) in [0, pi] the arc between the start vector and the point at
angle g after the target phase.  The right-hand side is -dbar_gamma(gamma,
g, del_lam): the flow takes the recursion's own step as its slope.  The
tail of the flow decays like e^{-(1 - cos del_lam) t} for every start angle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import pi
from typing import TYPE_CHECKING

# build_schedule is unused here but importable: the benchmark tracer patches it
from .schedule import MAX_SCHEDULE_STEPS, arc_rj_sprime, build_schedule, iter_angles  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SaturationReport",
    "ContinuumTrace",
    "saturation_analysis",
    "verify_saturation",
    "mu_of_g",
    "integrate_continuum",
    "fit_tail_rate",
]

_LOCAL_ERR_TOL = 1e-8
_MAX_HALVINGS = 40
_DOMAIN_EPS = 1e-12
_TAIL_WINDOW = (1e-8, 1e-2)  # g_min < g < g_max for the tail-rate fit


@dataclass(frozen=True)
class SaturationReport:
    """Where uniform stepping at del_lam = pi lands, exact in degrees.

    The decrement is the constant del_gamma = 2(180 - gamma) degrees;
    j_sat counts full decrements until the remainder gamma_jsat drops
    below del_gamma, and the tail then alternates between +/-big_gamma
    with big_gamma = min(gamma_jsat, del_gamma - gamma_jsat).
    """

    j_sat: int
    del_gamma_degs: Fraction
    gamma_jsat_degs: Fraction
    big_gamma_degs: Fraction

    @property
    def big_gamma(self) -> float:
        return math.radians(float(self.big_gamma_degs))


def saturation_analysis(gamma_degs) -> SaturationReport:
    """Exact landing point of the del_lam = pi recursion for gamma in degrees.

    Accepts int, float, str or Fraction; the arithmetic is exact rational,
    so boundary cases such as gamma_jsat = 0 come out exactly zero.
    """
    if gamma_degs in (math.inf, -math.inf) or not 90 < (g := Fraction(gamma_degs)) < 180:
        raise ValueError(f"gamma must lie in (90, 180) degrees, got {gamma_degs}")
    del_gamma = 2 * (180 - g)
    j_sat = g // del_gamma
    gamma_jsat = g - j_sat * del_gamma
    big_gamma = min(gamma_jsat, del_gamma - gamma_jsat)
    return SaturationReport(int(j_sat), del_gamma, gamma_jsat, big_gamma)


def verify_saturation(gamma_degs, n_tail: int = 10) -> float:
    """Run the real recursion at del_lam = pi and measure the tail residual.

    Returns max over the last n_tail steps of ||gamma_j| - big_gamma| in
    radians; also checks that the tail alternates in sign whenever
    big_gamma is away from zero.
    """
    if n_tail < 1:
        raise ValueError(f"n_tail must be >= 1, got {n_tail}")
    report = saturation_analysis(gamma_degs)
    gamma = math.radians(float(Fraction(gamma_degs)))
    # an even margin past the exact landing j_sat keeps the tail's parity
    landing = 2 * (report.j_sat // 2 + 2)
    if landing + n_tail > MAX_SCHEDULE_STEPS:
        culprit = f"j_sat = {report.j_sat}" if landing > MAX_SCHEDULE_STEPS else f"{n_tail = }"
        raise ValueError(f"{culprit} runs past the {MAX_SCHEDULE_STEPS}-step cap")
    angles = islice(iter_angles(gamma, pi), landing + n_tail + 1)
    tail = [gamma_j for gamma_j, _, _ in deque(angles, maxlen=n_tail)]
    big = report.big_gamma
    if big > 1e-9 and not all(prev * cur < 0.0 for prev, cur in zip(tail, tail[1:])):
        raise ArithmeticError(f"tail failed to alternate at gamma = {gamma_degs} degrees")
    return max(abs(abs(gamma_j) - big) for gamma_j in tail)


def mu_of_g(g: float, gamma: float, del_lam: float) -> float:
    """Arc in [0, pi] between the start vector and the post-target-phase point:
    schedule.arc_rj_sprime at gamma_j = g, within the flow's domain.
    """
    if not -_DOMAIN_EPS <= g <= gamma + _DOMAIN_EPS or not 0.0 <= gamma <= pi:
        raise ValueError(f"need 0 <= g <= gamma <= pi, got g={g}, gamma={gamma}")
    return arc_rj_sprime(gamma, g, del_lam)


@dataclass(frozen=True)
class ContinuumTrace:
    """Accepted integration samples of the continuum flow g(t)."""

    t: np.ndarray
    g: np.ndarray

    def at(self, t) -> np.ndarray | float:
        """g at arbitrary times by linear interpolation of the samples."""
        import numpy as np
        return np.interp(t, self.t, self.g)


def _rhs(g: float, gamma: float, del_lam: float) -> float:
    return gamma - g - mu_of_g(g, gamma, del_lam)


def integrate_continuum(
    gamma: float,
    del_lam: float,
    t_max: float,
    step_size: float = 0.01,
) -> ContinuumTrace:
    """Integrate the continuum flow from g(0) = gamma out to t_max.

    Classical RK4 with step-doubling error control: a step is accepted only
    if the full-step and two-half-step results agree to within 1e-8, else
    the step is retried at half size, as is a step whose RK4 stage leaves
    the flow's domain [0, gamma].  The slope at the start of a step is
    computed once and serves the sign check, the full step and the first
    half-step: 11 slope evaluations per accepted step, 10 per retry.  The
    slope must stay non-positive at every accepted step, and g is clamped
    at 0.  The trace ends early at g = 0 or at the first step that returns
    g itself, since each later step would repeat that one.
    """
    import numpy as np
    if not 0.0 < gamma <= math.pi:
        raise ValueError(f"gamma must lie in (0, pi], got {gamma}")
    if not 0.0 <= del_lam <= math.pi:
        raise ValueError(f"del_lam must lie in [0, pi], got {del_lam}")
    if not (0.0 < t_max < math.inf and 0.0 < step_size < math.inf):
        raise ValueError(
            f"t_max and step_size must be finite and > 0, got {t_max} and {step_size}"
        )

    def rk4_step(g: float, k1: float, h: float) -> float:
        """One RK4 step from g, given its slope k1 = _rhs(g)."""
        k2 = _rhs(g + 0.5 * h * k1, gamma, del_lam)
        k3 = _rhs(g + 0.5 * h * k2, gamma, del_lam)
        k4 = _rhs(g + h * k3, gamma, del_lam)
        return g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    ts, gs = [0.0], [gamma]
    t, g = 0.0, gamma
    while t < t_max and g > 0.0:
        k1 = _rhs(g, gamma, del_lam)
        if k1 > _DOMAIN_EPS:
            raise ArithmeticError(f"positive slope at g = {g}; flow must decay")
        h = min(step_size, t_max - t)
        for _ in range(_MAX_HALVINGS):
            try:
                full = rk4_step(g, k1, h)
                mid = rk4_step(g, k1, 0.5 * h)
                half = rk4_step(mid, _rhs(mid, gamma, del_lam), 0.5 * h)
                if abs(half - full) <= _LOCAL_ERR_TOL:
                    break
            except ValueError:
                pass  # an RK4 stage left [0, gamma], where mu_of_g refuses
            h *= 0.5
        else:
            raise ArithmeticError(
                f"step size underflow at t = {t}: local error stayed above {_LOCAL_ERR_TOL}"
            )
        g_next = max(half, 0.0)
        if g_next == g:
            break  # a fixed point: each later pass would repeat this one
        t, g = t + h, g_next
        ts.append(t)
        gs.append(g)
    return ContinuumTrace(np.array(ts), np.array(gs))


def fit_tail_rate(trace: ContinuumTrace) -> float:
    """Exponential decay rate of the trace tail, from a straight-line fit
    of log g(t) over the window 1e-8 < g < 1e-2.

    For del_lam in (0, pi) the fitted rate approaches 1 - cos(del_lam)
    independent of gamma.
    """
    import numpy as np
    g_min, g_max = _TAIL_WINDOW
    mask = (trace.g > g_min) & (trace.g < g_max)
    if int(mask.sum()) < 2:
        raise ValueError(
            "tail window holds fewer than 2 samples; integrate to larger t_max"
        )
    slope = np.polyfit(trace.t[mask], np.log(trace.g[mask]), 1)[0]
    return float(-slope)

