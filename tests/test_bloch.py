"""Geometry and Pauli-algebra checks, including the SU(2)/SO(3) bridge."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from afga.bloch import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_vec_of,
    ket_from_unit_vec,
    paulion,
    rotate,
    unit_vec,
)
from afga.schedule import polar_unit_vec
from helpers import (
    ID2,
    X_HAT,
    Y_HAT,
    Z_HAT,
    overlap_sq,
    paulion_exp,
    random_unit_vectors,
    reflect,
    rotation_su2,
)

RNG = np.random.default_rng(20260814)

unit_vecs = st.builds(
    polar_unit_vec,
    st.floats(0.0, math.pi),
    st.floats(-math.pi, math.pi),
)
angles = st.floats(-2.0 * math.pi, 2.0 * math.pi)


def test_unit_vec_normalizes():
    np.testing.assert_allclose(unit_vec([3.0, 0.0, 4.0]), [0.6, 0.0, 0.8])
    with pytest.raises(ValueError):
        unit_vec([0.0, 0.0, 0.0])


def test_polar_unit_vec_examples():
    np.testing.assert_allclose(polar_unit_vec(0.0), Z_HAT, atol=1e-15)
    np.testing.assert_allclose(polar_unit_vec(math.pi / 2), X_HAT, atol=1e-15)
    np.testing.assert_allclose(
        polar_unit_vec(math.pi / 2, math.pi / 2), Y_HAT, atol=1e-15
    )


def test_polar_unit_vec_zero_is_positive():
    for theta, phi in ((-0.3, 0.0), (0.0, -1.0), (0.0, math.pi), (-0.0, 0.5)):
        for c in polar_unit_vec(theta, phi)[:2]:
            assert c != 0.0 or math.copysign(1.0, c) == 1.0, (theta, phi)


def test_paulion_axes():
    np.testing.assert_array_equal(paulion(X_HAT), SIGMA_X)
    np.testing.assert_array_equal(paulion(Y_HAT), SIGMA_Y)
    np.testing.assert_array_equal(paulion(Z_HAT), SIGMA_Z)
    diag = unit_vec([1.0, 0.0, 1.0])
    np.testing.assert_allclose(paulion(diag), (SIGMA_X + SIGMA_Z) / math.sqrt(2.0))


def test_paulion_algebra():
    for a in random_unit_vectors(RNG, 25):
        m = paulion(a)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
        assert abs(np.trace(m)) < 1e-15
        assert abs(np.linalg.det(m) + 1.0) < 1e-14
        np.testing.assert_allclose(m @ m, ID2, atol=1e-14)


def test_paulion_product_identity():
    # sigma_a sigma_b = (a . b) I + i sigma_{a x b}
    for a, b in zip(random_unit_vectors(RNG, 25), random_unit_vectors(RNG, 25)):
        lhs = paulion(a) @ paulion(b)
        rhs = float(a @ b) * ID2 + 1.0j * paulion(np.cross(a, b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_rotate_quarter_turns():
    np.testing.assert_allclose(rotate(X_HAT, Z_HAT, math.pi / 2), Y_HAT, atol=1e-15)
    np.testing.assert_allclose(rotate(Z_HAT, Y_HAT, -math.pi / 2), -X_HAT, atol=1e-15)


def test_rotate_matches_printed_first_row():
    s0 = polar_unit_vec(math.radians(173.15))
    r0 = rotate(s0, Z_HAT, -math.radians(135.0))
    np.testing.assert_allclose(r0, [-0.084337, -0.084337, -0.99286], atol=1e-5)


@given(unit_vecs, unit_vecs)
def test_rotate_full_turn_is_identity(r, axis):
    np.testing.assert_allclose(rotate(r, axis, 2.0 * math.pi), r, atol=1e-12)


@given(unit_vecs, unit_vecs, angles, angles)
def test_rotate_composes_about_fixed_axis(r, axis, x1, x2):
    step = rotate(rotate(r, axis, x1), axis, x2)
    np.testing.assert_allclose(step, rotate(r, axis, x1 + x2), atol=1e-12)


def test_rotate_preserves_angles():
    for a, r1, r2 in zip(
        random_unit_vectors(RNG, 20),
        random_unit_vectors(RNG, 20),
        random_unit_vectors(RNG, 20),
    ):
        xi = RNG.uniform(-math.pi, math.pi)
        d_before = r1 @ r2
        d_after = rotate(r1, a, xi) @ rotate(r2, a, xi)
        assert abs(d_before - d_after) < 1e-12


def test_reflect_examples():
    np.testing.assert_allclose(reflect(Z_HAT, Z_HAT), -Z_HAT)
    np.testing.assert_allclose(reflect(X_HAT, Z_HAT), X_HAT)


def test_reflect_involution():
    for a, r in zip(random_unit_vectors(RNG, 20), random_unit_vectors(RNG, 20)):
        np.testing.assert_allclose(reflect(reflect(r, a), a), r, atol=1e-15)
        assert abs(np.linalg.norm(reflect(r, a)) - 1.0) < 1e-12


def test_reflection_is_minus_half_turn():
    for a, r in zip(random_unit_vectors(RNG, 20), random_unit_vectors(RNG, 20)):
        np.testing.assert_allclose(-reflect(r, a), rotate(r, a, math.pi), atol=1e-12)


def test_ket_examples():
    np.testing.assert_allclose(ket_from_unit_vec(Z_HAT), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(ket_from_unit_vec(-Z_HAT), [0.0, 1.0], atol=1e-15)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(
        ket_from_unit_vec(X_HAT), [inv_sqrt2, inv_sqrt2], atol=1e-15
    )
    np.testing.assert_allclose(
        ket_from_unit_vec(Y_HAT), [inv_sqrt2, 1.0j * inv_sqrt2], atol=1e-15
    )


def test_ket_bloch_round_trip():
    for r in random_unit_vectors(RNG, 1000):
        np.testing.assert_allclose(bloch_vec_of(ket_from_unit_vec(r)), r, atol=1e-12)


def test_bloch_vec_ignores_global_phase():
    for r in random_unit_vectors(RNG, 20):
        psi = ket_from_unit_vec(r)
        phase = np.exp(1.0j * RNG.uniform(-math.pi, math.pi))
        np.testing.assert_allclose(bloch_vec_of(phase * psi), r, atol=1e-12)


def test_overlap_sq_examples():
    assert overlap_sq(Z_HAT, Z_HAT) == 1.0
    assert overlap_sq(Z_HAT, -Z_HAT) == 0.0
    assert abs(overlap_sq(Z_HAT, X_HAT) - 0.5) < 1e-15


def test_overlap_sq_matches_inner_product():
    for r1, r2 in zip(random_unit_vectors(RNG, 50), random_unit_vectors(RNG, 50)):
        amp = np.vdot(ket_from_unit_vec(r1), ket_from_unit_vec(r2))
        assert abs(overlap_sq(r1, r2) - abs(amp) ** 2) < 1e-12


def test_paulion_exp_matches_expm():
    for a in random_unit_vectors(RNG, 20):
        theta = RNG.uniform(-math.pi, math.pi)
        expected = scipy.linalg.expm(1.0j * theta * paulion(a))
        np.testing.assert_allclose(paulion_exp(a, theta), expected, atol=1e-12)


def test_rotation_su2_is_special_unitary():
    for a in random_unit_vectors(RNG, 20):
        xi = RNG.uniform(-2.0 * math.pi, 2.0 * math.pi)
        u = rotation_su2(a, xi)
        np.testing.assert_allclose(u @ u.conj().T, ID2, atol=1e-14)
        assert abs(np.linalg.det(u) - 1.0) < 1e-13


def test_su2_conjugation_matches_so3_rotation():
    # e^{-i(xi/2) sigma_a} sigma_r e^{+i(xi/2) sigma_a} = sigma_{R_a(xi) r}
    for a, r in zip(random_unit_vectors(RNG, 200), random_unit_vectors(RNG, 200)):
        xi = RNG.uniform(-2.0 * math.pi, 2.0 * math.pi)
        u = rotation_su2(a, xi)
        lhs = u @ paulion(r) @ u.conj().T
        np.testing.assert_allclose(lhs, paulion(rotate(r, a, xi)), atol=1e-12)


def test_rotation_su2_moves_kets_with_rotate():
    for a, r in zip(random_unit_vectors(RNG, 50), random_unit_vectors(RNG, 50)):
        xi = RNG.uniform(-2.0 * math.pi, 2.0 * math.pi)
        moved = rotation_su2(a, xi) @ ket_from_unit_vec(r)
        np.testing.assert_allclose(
            bloch_vec_of(moved), rotate(r, a, xi), atol=1e-12
        )
