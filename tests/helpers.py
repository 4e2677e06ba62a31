"""Shared helpers for the test suite."""

from __future__ import annotations

import cmath
import math
from pathlib import Path
from typing import Iterable

import numpy as np

from afga.bloch import SIGMA_Z, paulion, rotate
from afga.schedule import polar_unit_vec

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_AFGA = DATA_DIR / "golden_afga.txt"

# fields printed as 0.0000e+00 or drowned in roundoff on either side
ZERO_FLOOR = 1e-12


def printed_ulp(v: float) -> float:
    """Weight of the last digit of v as printed in %.4e format."""
    return 10.0 ** (math.floor(math.log10(abs(v))) - 4)


def assert_matches_printed(ours: float, ref: float, context: str = "") -> None:
    """ours must agree with the 5-digit printed reference to its last digit +/-1."""
    if abs(ref) < ZERO_FLOOR and abs(ours) < ZERO_FLOOR:
        return
    tol = 1.0000001 * printed_ulp(ref)
    assert abs(ours - ref) <= tol, (
        f"{context}: {ours!r} vs printed {ref!r} (tol {tol:.2e})"
    )


def assert_tables_match(ours: np.ndarray, ref: np.ndarray) -> None:
    """Compare parsed schedule tables: exact j column, printed-digit floats."""
    assert ours.shape == ref.shape, f"shape {ours.shape} vs {ref.shape}"
    np.testing.assert_array_equal(ours[:, 0], ref[:, 0])
    for i in range(ours.shape[0]):
        for k in range(1, ours.shape[1]):
            assert_matches_printed(ours[i, k], ref[i, k], f"row {i} col {k}")


def random_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """n rows of isotropic unit vectors in R^3."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def search_gamma(nb: int) -> float:
    """Angle between the uniform state over 2^nb basis states and one of them."""
    return 2.0 * math.acos(2.0 ** (-0.5 * nb))


def arc_from_vectors(gamma: float, gamma_j: float, del_lam: float) -> float:
    """Angle atan2(|r_j x s'|, r_j . s') between r_j and the start vector.

    The vector reference for schedule.arc_rj_sprime; r_j is s_j turned by
    -del_lam about z.  The atan2 form keeps its absolute accuracy at every
    arc, where arccos of the dot product loses it near 0 and pi.
    """
    s_prime = polar_unit_vec(gamma)
    r_j = rotate(polar_unit_vec(gamma_j), Z_HAT, -del_lam)
    return math.atan2(float(np.linalg.norm(np.cross(r_j, s_prime))), float(r_j @ s_prime))


def alpha_from_vectors(gamma: float, gamma_j: float, del_lam: float) -> float:
    """Signed angle about s' from the target axis to r_j, both projected
    onto the plane normal to s'.

    The vector reference for schedule.alpha.  r_j is s_j turned by -del_lam
    about z.  Each vector x is projected as s' x x, which is its projection
    turned by 90 degrees about s': the signed angle is the same, and the
    cross product keeps full relative precision where x - (x . s') s' would
    cancel, as when r_j lies near s'.
    """
    s_prime = polar_unit_vec(gamma)
    r_j = rotate(polar_unit_vec(gamma_j), Z_HAT, -del_lam)
    u = np.cross(s_prime, Z_HAT)
    v = np.cross(s_prime, r_j)
    return math.atan2(float(s_prime @ np.cross(u, v)), float(u @ v))


def two_amplitude_success(
    nb: int, del_lam: float, alphas: Iterable[float], tol: float
) -> np.ndarray:
    """Success trace of the 2^nb search from two amplitudes instead of 2^nb.

    The run stays in span{|t>, uniform rest}, so the target amplitude a and
    the amplitude b shared by the other 2^nb - 1 states carry the whole
    state.  The target phase multiplies a; the s'-phase adds
    (e^{i alpha} - 1) times the mean amplitude (a + (n - 1) b) / n to both.
    Stops at success >= 1 - tol or when alphas run out.
    """
    n = 2.0**nb
    a = b = complex(2.0 ** (-0.5 * nb))
    target_factor = cmath.exp(1.0j * del_lam)
    success = [abs(a) ** 2]
    for alpha_j in alphas:
        if success[-1] >= 1.0 - tol:
            break
        a *= target_factor
        shift = (cmath.exp(1.0j * alpha_j) - 1.0) * (a + (n - 1.0) * b) / n
        a += shift
        b += shift
        success.append(abs(a) ** 2)
    return np.array(success)


# Bloch-vector helpers, the SU(2) exponentials and the 2x2 operator forms
# of the qubit step: the matrix reference that the two-amplitude runs of
# afga.qubit_sim are checked against.

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])
ID2 = np.eye(2, dtype=complex)
KET_0 = np.array([1.0, 0.0], dtype=complex)


def paulion_exp(axis, theta: float) -> np.ndarray:
    """e^{i theta sigma_a} = cos(theta) I + i sin(theta) sigma_a."""
    return math.cos(theta) * ID2 + 1.0j * math.sin(theta) * paulion(axis)


def rotation_su2(axis, xi: float) -> np.ndarray:
    """SU(2) element e^{-i (xi/2) sigma_a} whose conjugation action is rotate(., a, xi)."""
    return paulion_exp(axis, -0.5 * xi)


def reflect(r, axis) -> np.ndarray:
    """Reflect r through the plane whose normal is the given unit axis."""
    r = np.asarray(r, dtype=float)
    a = np.asarray(axis, dtype=float)
    return r - 2.0 * a * float(a @ r)


def overlap_sq(r1, r2) -> float:
    """|<r1|r2>|^2 = (1 + r1 . r2) / 2 for the kets of two unit vectors."""
    d = float(np.asarray(r1, dtype=float) @ np.asarray(r2, dtype=float))
    return min(1.0, max(0.0, 0.5 * (1.0 + d)))


def phase_op(psi, phase: float) -> np.ndarray:
    """Rank-1 phase e^{i phase |psi><psi|} = I + (e^{i phase} - 1) |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return ID2 + (np.exp(1.0j * phase) - 1.0) * np.outer(psi, psi.conj())


def step_operator(s_prime, alpha_j: float, del_lam: float) -> np.ndarray:
    """One adaptive step: start-state phase after target phase."""
    return phase_op(s_prime, alpha_j) @ phase_op(KET_0, del_lam)


def grover_operator(gamma: float) -> np.ndarray:
    """Fixed-step operator -sigma_{s'} sigma_z for a start state at angle gamma."""
    if not 0.0 <= gamma <= math.pi:
        raise ValueError(f"gamma must lie in [0, pi], got {gamma}")
    return -paulion(polar_unit_vec(gamma)) @ SIGMA_Z


def check_g_factorization(gamma: float) -> float:
    """Max entrywise deviation of -sigma_{s'} sigma_z from e^{i(pi - gamma) sigma_y}.

    The fixed-step operator is exactly a y-rotation by 2(pi - gamma) on the
    Bloch sphere, which is what makes its error trace sinusoidal in k.
    """
    direct = grover_operator(gamma)
    factored = paulion_exp(Y_HAT, math.pi - gamma)
    return float(np.max(np.abs(direct - factored)))


def max_initial_slope(gamma: float) -> float:
    """Largest initial decay speed over all del_lam: min(2 gamma, 2 pi - 2 gamma).

    The maximum is attained at del_lam = pi, where mu(gamma) is the smaller
    of 2 gamma and its reflex complement.
    """
    if not 0.0 <= gamma <= math.pi:
        raise ValueError(f"gamma must lie in [0, pi], got {gamma}")
    return min(2.0 * gamma, 2.0 * math.pi - 2.0 * gamma)
