"""Bloch-sphere geometry and the Pauli matrices: the tests' reference.

No library run calls these helpers.  They stay in the package only because
the benchmark tracer patches them where schedule and qubit_sim import them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "unit_vec",
    "rotate",
    "ket_from_unit_vec",
    "bloch_vec_of",
    "paulion",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# below this, sin(theta) leaves the azimuth undefined and we fix phi = 0
_POLE_EPS = 1e-14


def unit_vec(v) -> np.ndarray:
    """Return v normalized to unit length."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < 1e-300:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def rotate(r, axis, xi: float) -> np.ndarray:
    """Rotate r about a unit axis by angle xi (right-hand rule).

    Decomposes r into components along and perpendicular to the axis and
    turns only the perpendicular part; the result is renormalized so that
    long products of rotations cannot drift off the sphere.
    """
    r = np.asarray(r, dtype=float)
    a = np.asarray(axis, dtype=float)
    along = a * float(a @ r)
    out = along + math.sin(xi) * np.cross(a, r) + math.cos(xi) * (r - along)
    return unit_vec(out)


def ket_from_unit_vec(r) -> np.ndarray:
    """Spin-up eigenstate (cos(theta/2), e^{i phi} sin(theta/2)) of direction r."""
    x, y, z = np.asarray(r, dtype=float)
    sin_theta = math.hypot(x, y)
    theta = math.atan2(sin_theta, z)
    phi = 0.0 if sin_theta < _POLE_EPS else math.atan2(y, x)
    amp1 = complex(math.cos(phi), math.sin(phi)) * math.sin(0.5 * theta)
    return np.array([math.cos(0.5 * theta), amp1], dtype=complex)


def bloch_vec_of(psi) -> np.ndarray:
    """Pauli expectation values (<sx>, <sy>, <sz>) of a normalized ket."""
    a0, a1 = np.asarray(psi, dtype=complex)
    cross = np.conj(a0) * a1
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(a0) ** 2 - abs(a1) ** 2])


def paulion(axis) -> np.ndarray:
    """sigma_a = a . (sigma_x, sigma_y, sigma_z) for a unit vector a."""
    x, y, z = np.asarray(axis, dtype=float)
    return x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z

