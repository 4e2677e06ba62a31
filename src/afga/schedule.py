"""Adaptive phase schedule for fixed-point amplitude amplification.

Each step j applies a fixed phase del_lam about the target axis +z followed
by an adaptive phase alpha_j about the start axis.  On the Bloch sphere the
pair acts as a net rotation about +y that moves the state vector s_j, at
signed angle gamma_j from the target, closer to the target by dbar_gamma_j.
The recursion below generates those angles; it drives gamma_j -> 0 for any
del_lam in (0, pi).
"""

from __future__ import annotations

import importlib
import math
from math import asin, atan2, cos, sin, sqrt
from typing import Iterator, NamedTuple

__all__ = [
    "MAX_SCHEDULE_STEPS",
    "ConvergenceError",
    "AfgaParams",
    "ScheduleRow",
    "arc_rj_sprime",
    "dbar_gamma",
    "alpha",
    "polar_unit_vec",
    "iter_angles",
    "build_schedule",
    "steps_to_tolerance",
]

MAX_SCHEDULE_STEPS = 10**6

# sin^2 of the arc from r_j to the start axis below which any phase works
_ALPHA_DEGENERACY_EPS = 1e-24


def _lazy_getattr(module: str, source: str, names: tuple[str, ...]):
    """A PEP 562 module __getattr__ that imports afga.<source> on first lookup of names."""

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"afga.{source}"), name)

    return __getattr__


# unused here but importable: the benchmark tracer patches it
__getattr__ = _lazy_getattr(__name__, "bloch", ("rotate",))


class ConvergenceError(RuntimeError):
    """An iteration failed to reach its tolerance within its step cap."""


class _AfgaFields(NamedTuple):
    gamma: float
    del_lam: float
    num_steps: int


class AfgaParams(_AfgaFields):
    """Inputs of a schedule run: angles in radians, both within [0, pi]."""

    __slots__ = ()

    def __new__(cls, gamma: float, del_lam: float, num_steps: int) -> AfgaParams:
        if not 0.0 <= gamma <= math.pi:
            raise ValueError(f"gamma must lie in [0, pi], got {gamma}")
        if not 0.0 <= del_lam <= math.pi:
            raise ValueError(f"del_lam must lie in [0, pi], got {del_lam}")
        if not 0 <= num_steps <= MAX_SCHEDULE_STEPS:
            raise ValueError(f"num_steps must lie in [0, {MAX_SCHEDULE_STEPS}], got {num_steps}")
        return super().__new__(cls, gamma, del_lam, num_steps)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too


class ScheduleRow(NamedTuple):
    """State of the recursion at step j.

    s_j is the Bloch vector before step j and r_j the same vector after the
    target phase alone; gamma_j is the signed angle of s_j from +z in the
    xz-plane.  alpha_j and dbar_gamma_j describe the step about to be taken.
    """

    j: int
    gamma_j: float
    dbar_gamma_j: float
    alpha_j: float
    r_j: tuple[float, float, float]
    s_j: tuple[float, float, float]


def arc_rj_sprime(gamma: float, gamma_j: float, del_lam: float) -> float:
    """Arc mu_j in [0, pi] between r_j and the start vector.

    Haversine formula for the triangle with legs gamma and gamma_j meeting
    at the target axis with dihedral angle del_lam: small arcs keep full
    precision unless its two terms cancel (gamma_j near -gamma, del_lam near
    pi).  The clamp to [0, 1] is two comparisons, so NaN stays NaN.
    """
    a = sin(0.5 * (gamma - gamma_j))
    b = sin(0.5 * del_lam)
    h = a * a + sin(gamma) * sin(gamma_j) * b * b
    return 2.0 * asin(sqrt(0.0 if h < 0.0 else 1.0 if h > 1.0 else h))


def dbar_gamma(gamma: float, gamma_j: float, del_lam: float) -> float:
    """Angle removed from gamma_j by step j, so that gamma_{j+1} = gamma - mu_j.

    The arc mu_j between r_j and the start axis is taken on the non-negative
    branch, so the returned decrement can exceed gamma_j (overshoot) but a
    step never increases |gamma_j| above its previous value.
    """
    return -gamma + gamma_j + arc_rj_sprime(gamma, gamma_j, del_lam)


def alpha(gamma: float, gamma_j: float, del_lam: float) -> float:
    """Start-axis phase of step j: the azimuth of r_j about the start vector.

    In a frame whose pole is the start vector, r_j has components
    (c, s, cos mu_j), with c toward the target and s along -y.  So alpha_j =
    atan2(s, c) is the angle at the start vertex of the spherical triangle
    (target, start, r_j), by the four-part formula.  Returned in (-pi, pi],
    or 0 when s^2 + c^2 = sin^2 mu_j puts r_j within 1e-12 rad of the start
    axis, where any phase works.
    """
    s = sin(del_lam) * sin(gamma_j)
    c = sin(gamma) * cos(gamma_j) - cos(gamma) * sin(gamma_j) * cos(del_lam)
    if s * s + c * c < _ALPHA_DEGENERACY_EPS:
        return 0.0
    return atan2(s, c)


def polar_unit_vec(theta: float, phi: float = 0.0) -> tuple[float, float, float]:
    """Unit vector (x, y, z) at polar angle theta from +z and azimuth phi from +x."""
    st = sin(theta)
    # + 0.0 turns the -0.0 of a product with a zero factor into +0.0
    return (st * cos(phi) + 0.0, st * sin(phi) + 0.0, cos(theta))


def iter_angles(gamma: float, del_lam: float) -> Iterator[tuple[float, float, float]]:
    """Yield (gamma_j, dbar_gamma_j, alpha_j) for j = 0, 1, 2, ... without end."""
    gamma_j = gamma
    while True:
        dbar_j = dbar_gamma(gamma, gamma_j, del_lam)
        yield gamma_j, dbar_j, alpha(gamma, gamma_j, del_lam)
        gamma_j -= dbar_j


def build_schedule(params: AfgaParams) -> list[ScheduleRow]:
    """Materialize rows j = 0 .. num_steps.

    Row j records the Bloch vector s_j reached after j steps together with
    the angles of the step about to be taken, so the final row shows where
    the run landed.  The vectors are closed forms of the row's own angle
    g_j = gamma_j, so no rounding carries over from earlier rows:
    s_j = (sin g_j, 0, cos g_j) and r_j = (sin g_j cos dl, -sin g_j sin dl,
    cos g_j) with dl = del_lam.
    """
    dl = params.del_lam
    angles = zip(range(params.num_steps + 1), iter_angles(params.gamma, dl))
    return [
        ScheduleRow(j, g_j, dbar_j, alpha_j, polar_unit_vec(g_j, -dl), polar_unit_vec(g_j))
        for j, (g_j, dbar_j, alpha_j) in angles
    ]


def steps_to_tolerance(
    gamma: float,
    del_lam: float,
    tol: float = 1e-9,
    max_steps: int = MAX_SCHEDULE_STEPS,
) -> int:
    """Smallest j with |gamma_j| < tol.

    Raises ConvergenceError past max_steps, or once gamma_j repeats the
    iterate at the last power-of-two step (Brent's cycle check): the run is
    then periodic, as at del_lam = 0 or pi, or for tol below the floor.
    """
    AfgaParams(gamma, del_lam, 0)  # raises on angles outside [0, pi]
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    gamma_j, mark, mark_j = gamma, gamma, 0
    for j in range(max_steps + 1):
        if abs(gamma_j) < tol:
            return j
        if gamma_j == mark and j > mark_j:
            raise ConvergenceError(
                f"|gamma_j| cycles with period {j - mark_j} at step {j}, never below {tol}"
            )
        if j & (j - 1) == 0:
            mark, mark_j = gamma_j, j
        gamma_j -= dbar_gamma(gamma, gamma_j, del_lam)
    raise ConvergenceError(
        f"|gamma_j| did not fall below {tol} within {max_steps} steps"
    )
