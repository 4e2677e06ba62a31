"""Independent oracles for the benchmark's per-op correctness checks.

Nothing here calls afga: each expected value comes from a different route
than the program's own (vector geometry with atan2 arcs instead of the
spherical law of cosines and the alpha formula, a two-amplitude model
instead of the 2^nb vector, a subtraction loop on exact fractions instead
of floor division, closed forms instead of simulation).  Each check
returns a list of problems; an empty list means the op was correct.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

ABS_TOL = 1e-9
RATE_REL_TOL = 1e-3
SATURATION_TOL = 1e-6
# fields printed as 0.0000e+00 or drowned in roundoff on either side
ZERO_FLOOR = 1e-12


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _arc(a, b):
    """Angle between two vectors, well conditioned at both ends."""
    c = _cross(a, b)
    return math.atan2(math.sqrt(_dot(c, c)), _dot(a, b))


def _xz(g):
    return (math.sin(g), 0.0, math.cos(g))


def schedule_angles(gamma: float, del_lam: float, n: int) -> list[tuple[float, float]]:
    """(gamma_j, alpha_j) for j < n, from the Bloch vectors themselves.

    s_j sits in the xz-plane at angle gamma_j from +z; the target phase
    turns it about z by -del_lam into r_j.  The step moves the state so that
    its angle to the start vector s' is preserved by the s'-phase, i.e.
    gamma_{j+1} = gamma - arc(r_j, s'), and alpha_j is minus the signed
    angle about s' that carries r_j onto s_{j+1}.
    """
    sp = _xz(gamma)
    g = gamma
    out = []
    for _ in range(n):
        r = (math.sin(g) * math.cos(del_lam), -math.sin(g) * math.sin(del_lam), math.cos(g))
        g_next = gamma - _arc(r, sp)
        s_next = _xz(g_next)
        u = [ri - _dot(r, sp) * si for ri, si in zip(r, sp)]
        v = [ni - _dot(s_next, sp) * si for ni, si in zip(s_next, sp)]
        out.append((g, -math.atan2(_dot(sp, _cross(u, v)), _dot(u, v))))
        g = g_next
    return out


def schedule_table(gamma: float, del_lam: float, num_steps: int) -> list[list[float]]:
    """Rows of the afga-txt table (angles in degrees) from the closed-form vectors."""
    rows = []
    for j, (g, a) in enumerate(schedule_angles(gamma, del_lam, num_steps + 1)):
        sg, cg = math.sin(g), math.cos(g)
        r = (sg * math.cos(del_lam), -sg * math.sin(del_lam), cg)
        rows.append([j, math.degrees(g), math.degrees(a), *r, sg, 0.0, cg])
    return rows


def grover_err(gamma: float, k: int) -> float:
    """Miss probability after k fixed steps: sin^2((gamma - 2k(pi - gamma)) / 2)."""
    return math.sin(0.5 * (gamma - 2 * k * (math.pi - gamma))) ** 2


def search_success(nb: int, del_lam: float, steps: int) -> list[float]:
    """Success trace of the adaptive search from a two-amplitude model.

    The run stays in span{|t>, uniform rest}, so one target amplitude a and
    one shared off-target amplitude b describe all 2^nb amplitudes.
    """
    n = 2**nb
    a = b = n**-0.5
    gamma = 2.0 * math.acos(n**-0.5)
    target = cmath.exp(1j * del_lam)
    out = [abs(a) ** 2]
    for _, alpha_j in schedule_angles(gamma, del_lam, steps):
        a *= target
        shift = (cmath.exp(1j * alpha_j) - 1.0) * (a + (n - 1) * b) / n
        a += shift
        b += shift
        out.append(abs(a) ** 2)
    return out


def saturation_landing(gamma_degs: str) -> tuple[int, Fraction, Fraction, Fraction]:
    """(j_sat, del_gamma, gamma_jsat, big_gamma) in exact degrees, by repeated subtraction."""
    g = Fraction(gamma_degs)
    step = 2 * (180 - g)
    j = 0
    while g >= step:
        g -= step
        j += 1
    return j, step, g, min(g, step - g)


def printed_digit_problems(ours: list[list[float]], ref: list[list[float]], what: str) -> list[str]:
    """Compare two %.4e tables field by field to the last printed digit (+/-1).

    Fields within ZERO_FLOOR of zero on both sides, or closer than
    ZERO_FLOOR to each other, pass: the recursion's error is absolute
    (about 1e-16 rad), so a converged angle of 1e-10 degrees carries no
    five significant digits on any route.
    """
    if len(ours) != len(ref) or any(len(a) != len(b) for a, b in zip(ours, ref)):
        return [f"{what}: table shape differs"]
    problems = []
    for i, (row, ref_row) in enumerate(zip(ours, ref)):
        if row[0] != ref_row[0]:
            problems.append(f"{what}: row {i} index {row[0]} != {ref_row[0]}")
        for k, (x, y) in enumerate(zip(row[1:], ref_row[1:]), start=1):
            if abs(x) < ZERO_FLOOR and abs(y) < ZERO_FLOOR:
                continue
            ulp = 10.0 ** (math.floor(math.log10(abs(y))) - 4) if y else ZERO_FLOOR
            if abs(x - y) > 1.0000001 * ulp + ZERO_FLOOR:
                problems.append(f"{what}: row {i} col {k}: {x!r} vs {y!r}")
    return problems


def parse_table(text: str) -> tuple[list[str], list[list[float]]]:
    """Header lines and numeric rows of an afga-txt table."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[:3], [[float(tok) for tok in ln.split()] for ln in lines[4:]]


def close_problems(got, want, what: str, tol: float = ABS_TOL) -> list[str]:
    """Element-wise |got - want| <= tol, with equal lengths."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, expected {len(want)}"]
    worst = max((abs(float(x) - y) for x, y in zip(got, want)), default=0.0)
    return [f"{what}: off by {worst:.3e} (tol {tol:g})"] if worst > tol else []
