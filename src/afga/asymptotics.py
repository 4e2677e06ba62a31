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
from itertools import compress, islice, pairwise
from math import fsum, log, sin
from operator import itemgetter, mul
from typing import TYPE_CHECKING, NamedTuple

from .schedule import MAX_SCHEDULE_STEPS, AfgaParams, _arc, _walk
# unused here but importable: the benchmark tracer patches it
from .schedule import build_schedule  # noqa: F401

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "SaturationReport",
    "ContinuumTrace",
    "saturation_analysis",
    "verify_saturation",
    "mu_of_g",
    "integrate_continuum",
    "fit_tail_rate",
]

_ERR_ABS, _ERR_REL = 1e-13, 1e-10  # a step's local error bound is min(1e-13, 1e-10 g)
_MAX_TRIALS = 40
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
    walk = islice(_walk(gamma, math.pi, gamma), landing + n_tail + 1)
    tail = deque(map(itemgetter(0), walk), maxlen=n_tail)
    big = report.big_gamma
    if big > 1e-9 and not all(prev * cur < 0.0 for prev, cur in pairwise(tail)):
        raise ArithmeticError(f"tail failed to alternate at gamma = {gamma_degs} degrees")
    return max(abs(abs(gamma_j) - big) for gamma_j in tail)


def mu_of_g(g: float, gamma: float, sin_g: float, sin_half_dl: float) -> float:
    """Arc in [0, pi] between the start vector and the post-target-phase point:
    schedule.arc_rj_sprime at gamma_j = g, within the flow's domain, given a
    run's sin(gamma) and sin(del_lam / 2).  The continuum flow takes each
    slope through this one call.
    """
    if not -_DOMAIN_EPS <= g <= gamma + _DOMAIN_EPS:
        raise ValueError(f"need 0 <= g <= gamma, got g={g}, gamma={gamma}")
    return _arc(gamma, sin_g, sin_half_dl, g)


class ContinuumTrace(NamedTuple):
    """Accepted integration samples of the continuum flow g(t)."""

    t: list[float]
    g: list[float]


def integrate_continuum(
    gamma: float,
    del_lam: float,
    t_max: float,
    step_size: float = 0.01,
) -> ContinuumTrace:
    """Integrate the continuum flow from g(0) = gamma out to t_max.

    Dormand-Prince 5(4) with the standard step-size controller (Hairer,
    Norsett and Wanner, Solving ODEs I, sec. II.4).  A trial of length h
    keeps its 5th-order value and is accepted when the embedded estimate
    err is within tol = max(min(1e-13, 1e-10 g), h ulp(gamma) / 2); else h
    shrinks by max(0.2, 0.9 (tol / err)^(1/5)), or halves when a stage
    leaves the flow's domain [0, gamma].  An accepted step grows the next
    trial by min(5, 0.9 (tol / err)^(1/5)), up to t_max - t; step_size is
    the first trial.  The floor h ulp(gamma) / 2 covers the slope's own
    rounding: gamma - g - mu(g) is off by up to 2 ulps of gamma at any g,
    which a shorter step does not reduce, and a floor of 1e-18 ran slow
    flows into the step cap.  A slope without that cancellation would let
    the floor fall.

    The pair is first same as last: the slope at an accepted value starts
    the next step, so a trace costs one start slope plus 6 slope
    evaluations per trial.  sin(gamma) and sin(del_lam / 2) are computed
    once per run, and each slope is one call of mu_of_g with them, so
    counting mu_of_g calls counts the slopes.  The slope must stay
    non-positive at every accepted step, and g is clamped at 0.  The trace
    ends early at g = 0 or at the first step that does not lower g, where
    the flow has reached the floor of its rounding; a run still going after
    MAX_SCHEDULE_STEPS accepted steps raises ValueError.
    """
    if not 0.0 < gamma <= math.pi:
        raise ValueError(f"gamma must lie in (0, pi], got {gamma}")
    AfgaParams(gamma, del_lam, 0)  # raises on del_lam outside [0, pi]
    if not (0.0 < t_max < math.inf and 0.0 < step_size < math.inf):
        raise ValueError(
            f"t_max and step_size must be finite and > 0, got {t_max} and {step_size}"
        )

    sin_g, sin_half_dl, half_ulp = sin(gamma), sin(0.5 * del_lam), 0.5 * math.ulp(gamma)
    ts, gs = [0.0], [gamma]
    t, g, h = 0.0, gamma, step_size
    k1 = gamma - g - mu_of_g(g, gamma, sin_g, sin_half_dl)
    while t < t_max and g > 0.0:
        if len(ts) > MAX_SCHEDULE_STEPS:
            raise ValueError(f"the flow runs past the {MAX_SCHEDULE_STEPS}-step cap at t = {t}")
        if k1 > _DOMAIN_EPS:
            raise ArithmeticError(f"positive slope at g = {g}; flow must decay")
        tol_g = min(_ERR_ABS, _ERR_REL * g)
        h = min(h, t_max - t)
        for _ in range(_MAX_TRIALS):
            try:  # a Dormand-Prince 5(4) trial, each stage summed left to right
                x = g + h * (1 / 5 * k1)
                k2 = gamma - x - mu_of_g(x, gamma, sin_g, sin_half_dl)
                x = g + h * (3 / 40 * k1 + 9 / 40 * k2)
                k3 = gamma - x - mu_of_g(x, gamma, sin_g, sin_half_dl)
                x = g + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3)
                k4 = gamma - x - mu_of_g(x, gamma, sin_g, sin_half_dl)
                x = g + h * (19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3
                             - 212 / 729 * k4)
                k5 = gamma - x - mu_of_g(x, gamma, sin_g, sin_half_dl)
                x = g + h * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3
                             + 49 / 176 * k4 - 5103 / 18656 * k5)
                k6 = gamma - x - mu_of_g(x, gamma, sin_g, sin_half_dl)
                y = g + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                             - 2187 / 6784 * k5 + 11 / 84 * k6)
                k7 = gamma - y - mu_of_g(y, gamma, sin_g, sin_half_dl)
                err = abs(h * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                               - 17253 / 339200 * k5 + 22 / 525 * k6 - 1 / 40 * k7))
                tol = max(tol_g, h * half_ulp)
                if err <= tol:
                    break
                h *= max(0.2, 0.9 * (tol / err) ** 0.2)
            except ValueError:
                h *= 0.5  # a stage left [0, gamma], where mu_of_g refuses
        else:
            raise ArithmeticError(
                f"step size underflow at t = {t}: local error stayed above {tol_g}"
            )
        g_next = max(y, 0.0)
        if g_next >= g:
            break  # the step no longer lowers g: the flow is at its rounding floor
        t, g, k1 = t + h, g_next, k7
        ts.append(t)
        gs.append(g)
        h *= 5.0 if err == 0.0 else min(5.0, 0.9 * (tol / err) ** 0.2)
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
