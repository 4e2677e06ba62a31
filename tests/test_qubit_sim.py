"""Statevector runs: adaptive schedule vs fixed-step amplification."""

import itertools
import math

import numpy as np
import pytest

from afga.bloch import bloch_vec_of, ket_from_unit_vec
from afga.qubit_sim import run_afga_qubit, run_grover_qubit
from afga.schedule import AfgaParams, build_schedule, iter_angles, polar_unit_vec
from helpers import (
    ID2,
    KET_0,
    check_g_factorization,
    grover_operator,
    paulion_exp,
    phase_op,
    random_unit_vectors,
    step_operator,
)

RNG = np.random.default_rng(20260814)

GOLDEN = AfgaParams(math.radians(173.15), math.radians(135.0), 20)


def test_phase_op_examples():
    np.testing.assert_allclose(phase_op(KET_0, 0.0), ID2, atol=1e-15)
    np.testing.assert_allclose(
        phase_op(KET_0, math.pi), np.diag([-1.0, 1.0]), atol=1e-15
    )


def test_phase_op_unitary_group():
    for r in random_unit_vectors(RNG, 20):
        psi = ket_from_unit_vec(r)
        a, b = RNG.uniform(-math.pi, math.pi, size=2)
        u = phase_op(psi, a)
        np.testing.assert_allclose(u @ u.conj().T, ID2, atol=1e-14)
        np.testing.assert_allclose(
            u @ phase_op(psi, b), phase_op(psi, a + b), atol=1e-14
        )


def test_phase_op_eigenvectors():
    for r in random_unit_vectors(RNG, 20):
        psi = ket_from_unit_vec(r)
        perp = np.array([-np.conj(psi[1]), np.conj(psi[0])])
        phi = RNG.uniform(-math.pi, math.pi)
        u = phase_op(psi, phi)
        np.testing.assert_allclose(u @ psi, np.exp(1.0j * phi) * psi, atol=1e-14)
        np.testing.assert_allclose(u @ perp, perp, atol=1e-14)


def test_step_operator_factored_form():
    # rank-1 phases are half-angle paulion exponentials up to global phase
    for _ in range(20):
        gamma = RNG.uniform(0.0, math.pi)
        alpha_j, del_lam = RNG.uniform(-math.pi, math.pi, size=2)
        s_hat = polar_unit_vec(gamma)
        direct = step_operator(ket_from_unit_vec(s_hat), alpha_j, del_lam)
        global_phase = np.exp(0.5j * (alpha_j + del_lam))
        factored = (
            global_phase
            * paulion_exp(s_hat, 0.5 * alpha_j)
            @ paulion_exp([0.0, 0.0, 1.0], 0.5 * del_lam)
        )
        np.testing.assert_allclose(direct, factored, atol=1e-12)


def test_afga_err_equals_z_form():
    trace = run_afga_qubit(GOLDEN)
    np.testing.assert_allclose(trace.err, 0.5 * (1.0 - np.asarray(trace.s_fin_z)), atol=1e-12)


def test_afga_golden_run_hits_target():
    trace = run_afga_qubit(GOLDEN)
    assert len(trace) == 21
    # the trace holds the Python floats the run computed, no numpy scalars
    assert all(type(v) is float for v in [*trace.err, *trace.s_fin_z, trace.final_err])
    assert trace.err[0] == pytest.approx(math.sin(0.5 * GOLDEN.gamma) ** 2, abs=1e-12)
    assert trace.final_err < 1.2e-6
    landing = build_schedule(GOLDEN)[-1].gamma_j
    assert trace.final_err == pytest.approx(math.sin(0.5 * landing) ** 2, abs=1e-12)


def test_afga_err_never_increases():
    for _ in range(10):
        params = AfgaParams(
            RNG.uniform(0.01, math.pi - 0.01), RNG.uniform(0.1, math.pi), 50
        )
        trace = run_afga_qubit(params)
        assert np.all(np.diff(trace.err) <= 1e-12)


def test_afga_gamma_zero_stays_on_target():
    trace = run_afga_qubit(AfgaParams(0.0, 2.0, 10))
    np.testing.assert_allclose(trace.err, 0.0, atol=1e-15)


def test_afga_matches_so3_schedule():
    for _ in range(10):
        params = AfgaParams(
            RNG.uniform(0.0, math.pi), RNG.uniform(0.0, math.pi), 100
        )
        trace = run_afga_qubit(params)
        z = np.array([row.s_j[2] for row in build_schedule(params)])
        np.testing.assert_allclose(trace.err, 0.5 * (1.0 - z), atol=1e-10)


def test_err_stays_non_negative_and_monotone():
    # err = |a1|^2 has no cancellation, where 1 - |a0|^2 dips to -4e-14
    # and rises by up to 7e-16 at its floor near 1e-16
    rng = np.random.default_rng(20261019)
    for _ in range(200):
        gamma, del_lam = rng.uniform(0.0, math.pi, size=2)
        err = np.asarray(run_afga_qubit(AfgaParams(gamma, del_lam, 300)).err)
        assert err.min() >= 0.0, (gamma, del_lam)
        assert np.diff(err).max() <= 1e-24, (gamma, del_lam)


def test_grover_closed_form():
    for _ in range(10):
        gamma = RNG.uniform(0.1, math.pi)
        trace = run_grover_qubit(gamma, 30)
        k = np.arange(31)
        expected = np.sin(0.5 * (gamma - 2.0 * k * (math.pi - gamma))) ** 2
        np.testing.assert_allclose(trace.err, expected, atol=1e-12)


def test_grover_overshoot_at_160_degrees():
    trace = run_grover_qubit(math.radians(160.0), 20)
    assert len(trace) == 21
    assert all(type(v) is float for v in [*trace.err, *trace.s_fin_z, trace.final_err])
    assert trace.err[0] == pytest.approx(math.sin(math.radians(80.0)) ** 2, abs=1e-12)
    assert trace.err[4] < 1e-12
    assert trace.err[5] > trace.err[4]
    # del_gamma = 40 degrees, so the miss probability has period 9 in k
    np.testing.assert_allclose(trace.err[9:18], trace.err[0:9], atol=1e-12)


def test_grover_four_state_search_is_one_step():
    # gamma = 2 arccos(1/2) = 120 degrees: one step lands exactly
    trace = run_grover_qubit(math.radians(120.0), 3)
    assert trace.err[0] == pytest.approx(0.75, abs=1e-12)
    assert trace.err[1] < 1e-12
    assert trace.err[2] > 0.5


def test_grover_overshoots_where_adaptive_does_not():
    gamma = math.radians(160.0)
    fixed = run_grover_qubit(gamma, 20)
    adaptive = run_afga_qubit(AfgaParams(gamma, math.radians(90.0), 20))
    assert np.any(np.diff(fixed.err) > 0.01)
    assert np.all(np.diff(adaptive.err) <= 1e-12)


def test_g_factorization():
    for gamma in (0.0, math.pi / 2, math.pi, 1.23, math.radians(160.0)):
        assert check_g_factorization(gamma) < 1e-12


def test_grover_validation():
    with pytest.raises(ValueError):
        run_grover_qubit(0.0, 5)
    with pytest.raises(ValueError):
        run_grover_qubit(1.0, -1)
    with pytest.raises(ValueError):
        grover_operator(-0.5)


def test_grover_gamma_range():
    with pytest.raises(ValueError):
        run_grover_qubit(-0.5, 5)
    with pytest.raises(ValueError):
        run_grover_qubit(math.pi + 0.5, 5)


def _matrix_trace(gamma, matrices):
    """err and z per step of the start ket multiplied by 2x2 operators."""
    psi = ket_from_unit_vec(polar_unit_vec(gamma))
    errs, zs = [], []
    for mat in itertools.chain([ID2], matrices):
        psi = mat @ psi
        errs.append(1.0 - abs(psi[0]) ** 2)
        zs.append(bloch_vec_of(psi)[2])
    return np.array(errs), np.array(zs)


def _angle_pairs():
    # own generator: drawing from RNG at collection would shift the other tests' draws
    rng = np.random.default_rng(20261018)
    pairs = [tuple(rng.uniform(0.0, math.pi, size=2)) for _ in range(6)]
    return pairs + [(gamma, rng.uniform(0.1, math.pi)) for gamma in (0.0, math.pi)]


@pytest.mark.parametrize("gamma, del_lam", _angle_pairs())
def test_runs_match_operator_product(gamma, del_lam):
    steps = 200
    s_prime = ket_from_unit_vec(polar_unit_vec(gamma))
    angles = itertools.islice(iter_angles(gamma, del_lam), steps)
    err, z = _matrix_trace(
        gamma, (step_operator(s_prime, alpha_j, del_lam) for _, _, alpha_j in angles)
    )
    trace = run_afga_qubit(AfgaParams(gamma, del_lam, steps))
    np.testing.assert_allclose(trace.err, err, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(trace.s_fin_z, z, rtol=0.0, atol=1e-12)
    if gamma > 0.0:
        err, z = _matrix_trace(gamma, itertools.repeat(grover_operator(gamma), steps))
        trace = run_grover_qubit(gamma, steps)
        np.testing.assert_allclose(trace.err, err, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(trace.s_fin_z, z, rtol=0.0, atol=1e-12)
