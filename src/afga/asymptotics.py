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
from itertools import compress, pairwise
from math import fsum, log, pi
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

# build_schedule is unused here but importable: the benchmark tracer patches it
from .schedule import MAX_SCHEDULE_STEPS, arc_rj_sprime, build_schedule, dbar_gamma  # noqa: F401

if TYPE_CHECKING:
    from fractions import Fraction

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


class SaturationReport(NamedTuple):
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
    from fractions import Fraction
    try:
        g = Fraction(gamma_degs)
    except (ValueError, OverflowError):  # nan and inf, as floats or strings
        g = None
    if g is None or not 90 < g < 180:
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
    from fractions import Fraction
    if n_tail < 1:
        raise ValueError(f"n_tail must be >= 1, got {n_tail}")
    report = saturation_analysis(gamma_degs)
    gamma = math.radians(float(Fraction(gamma_degs)))
    # an even margin past the exact landing j_sat keeps the tail's parity
    landing = 2 * (report.j_sat // 2 + 2)
    if landing + n_tail > MAX_SCHEDULE_STEPS:
        culprit = f"j_sat = {report.j_sat}" if landing > MAX_SCHEDULE_STEPS else f"{n_tail = }"
        raise ValueError(f"{culprit} runs past the {MAX_SCHEDULE_STEPS}-step cap")
    tail, gamma_j = deque([gamma], maxlen=n_tail), gamma
    for _ in range(landing + n_tail):
        gamma_j -= dbar_gamma(gamma, gamma_j, pi)
        tail.append(gamma_j)
    big = report.big_gamma
    if big > 1e-9 and not all(prev * cur < 0.0 for prev, cur in pairwise(tail)):
        raise ArithmeticError(f"tail failed to alternate at gamma = {gamma_degs} degrees")
    return max(abs(abs(gamma_j) - big) for gamma_j in tail)


def mu_of_g(g: float, gamma: float, del_lam: float) -> float:
    """Arc in [0, pi] between the start vector and the post-target-phase point:
    schedule.arc_rj_sprime at gamma_j = g, within the flow's domain.
    """
    if not -_DOMAIN_EPS <= g <= gamma + _DOMAIN_EPS or not 0.0 <= gamma <= pi:
        raise ValueError(f"need 0 <= g <= gamma <= pi, got g={g}, gamma={gamma}")
    return arc_rj_sprime(gamma, g, del_lam)


class ContinuumTrace(NamedTuple):
    """Accepted integration samples of the continuum flow g(t)."""

    t: list[float]
    g: list[float]

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

    Dormand-Prince 5(4): a trial step keeps its 5th-order value and is
    accepted only if the embedded 4th-order estimate puts its local error
    within 1e-8, else it is retried at half size, as is a trial whose stage
    leaves the flow's domain [0, gamma].  The pair is first same as last:
    the slope at an accepted value starts the next step, so a trace costs
    one start slope plus 6 slope evaluations per trial.  The slope must stay
    non-positive at every accepted step, and g is clamped at 0.  The trace
    ends early at g = 0 or at the first step that returns g itself, since
    each later step would repeat that one.
    """
    if not 0.0 < gamma <= math.pi:
        raise ValueError(f"gamma must lie in (0, pi], got {gamma}")
    if not 0.0 <= del_lam <= math.pi:
        raise ValueError(f"del_lam must lie in [0, pi], got {del_lam}")
    if not (0.0 < t_max < math.inf and 0.0 < step_size < math.inf):
        raise ValueError(
            f"t_max and step_size must be finite and > 0, got {t_max} and {step_size}"
        )

    ts, gs = [0.0], [gamma]
    t, g, k1 = 0.0, gamma, _rhs(gamma, gamma, del_lam)
    while t < t_max and g > 0.0:
        if k1 > _DOMAIN_EPS:
            raise ArithmeticError(f"positive slope at g = {g}; flow must decay")
        h = min(step_size, t_max - t)
        for _ in range(_MAX_HALVINGS):
            try:  # a Dormand-Prince 5(4) trial, each stage summed left to right
                k2 = _rhs(g + h * (1 / 5 * k1), gamma, del_lam)
                k3 = _rhs(g + h * (3 / 40 * k1 + 9 / 40 * k2), gamma, del_lam)
                k4 = _rhs(g + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3), gamma, del_lam)
                k5 = _rhs(g + h * (19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3
                                   - 212 / 729 * k4), gamma, del_lam)
                k6 = _rhs(g + h * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                                   + 49 / 176 * k4 - 5103 / 18656 * k5), gamma, del_lam)
                y = g + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                             - 2187 / 6784 * k5 + 11 / 84 * k6)
                k7 = _rhs(y, gamma, del_lam)
                err = h * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                           - 17253 / 339200 * k5 + 22 / 525 * k6 - 1 / 40 * k7)
                if abs(err) <= _LOCAL_ERR_TOL:
                    break
            except ValueError:
                pass  # a stage left [0, gamma], where mu_of_g refuses
            h *= 0.5
        else:
            raise ArithmeticError(
                f"step size underflow at t = {t}: local error stayed above {_LOCAL_ERR_TOL}"
            )
        g_next = max(y, 0.0)
        if g_next == g:
            break  # a fixed point: each later pass would repeat this one
        t, g, k1 = t + h, g_next, k7
        ts.append(t)
        gs.append(g)
    return ContinuumTrace(ts, gs)


def fit_tail_rate(trace: ContinuumTrace) -> float:
    """Exponential decay rate of the trace tail: minus the slope of the
    least-squares line through log g(t) over the window 1e-8 < g < 1e-2,
    summed about the window's means by math.fsum.  For del_lam in (0, pi)
    the fitted rate approaches 1 - cos(del_lam) independent of gamma.
    """
    g_min, g_max = _TAIL_WINDOW
    inside = [g_min < g < g_max for g in trace.g]
    ts, ys = list(compress(trace.t, inside)), list(map(log, compress(trace.g, inside)))
    if len(ts) < 2:
        raise ValueError("tail window holds fewer than 2 samples; integrate to larger t_max")
    t_mean, y_mean = fsum(ts) / len(ts), fsum(ys) / len(ys)
    dts, dys = [t - t_mean for t in ts], [y - y_mean for y in ys]
    return -fsum(map(mul, dts, dys)) / fsum(map(mul, dts, dts))
