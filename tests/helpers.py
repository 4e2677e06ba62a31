"""Shared helpers for the test suite."""

from __future__ import annotations

import cmath
import math
from pathlib import Path
from typing import Iterable

import numpy as np

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
