"""Rank-1 search simulation over 2^nb basis states."""

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from afga.qubit_sim import run_afga_qubit
from afga.schedule import (
    MAX_SCHEDULE_STEPS,
    AfgaParams,
    ConvergenceError,
    iter_angles,
    steps_to_tolerance,
)
from afga.search_sim import (
    TOL_FLOOR,
    SearchState,
    _sprime_phase_inplace,
    apply_sprime_phase,
    apply_target_phase,
    init_uniform,
    run_afga_search,
)
from helpers import search_gamma, two_amplitude_success

RNG = np.random.default_rng(20260814)


def _random_state(nb: int, target_index: int = 0) -> SearchState:
    amps = RNG.normal(size=2**nb) + 1.0j * RNG.normal(size=2**nb)
    amps /= np.linalg.norm(amps)
    return SearchState(nb, amps, target_index)


def test_init_uniform_examples():
    state = init_uniform(1)
    np.testing.assert_allclose(state.amps, [2.0**-0.5, 2.0**-0.5])
    assert state.gamma == pytest.approx(math.pi / 2, abs=1e-12)
    assert init_uniform(2).gamma == pytest.approx(math.radians(120.0), abs=1e-12)
    assert math.degrees(init_uniform(20).gamma) == pytest.approx(179.888, abs=5e-4)
    assert init_uniform(3, 5).success_probability == pytest.approx(0.125)


def test_init_uniform_validation():
    for nb, target in ((0, 0), (25, 0), (3, -1), (3, 8)):
        with pytest.raises(ValueError):
            init_uniform(nb, target)


def test_target_phase_examples():
    state = init_uniform(1)
    flipped = apply_target_phase(state, math.pi)
    np.testing.assert_allclose(flipped.amps, [-(2.0**-0.5), 2.0**-0.5], atol=1e-15)
    same = apply_target_phase(state, 0.0)
    np.testing.assert_allclose(same.amps, state.amps)


def test_phase_wrappers_leave_input_untouched():
    state = _random_state(5, 9)
    before = state.amps.copy()
    apply_target_phase(state, 0.7)
    apply_sprime_phase(state, -1.1)
    np.testing.assert_array_equal(state.amps, before)


def test_phase_ops_preserve_norm():
    state = _random_state(6, 11)
    for _ in range(20):
        phi = RNG.uniform(-math.pi, math.pi)
        state = apply_sprime_phase(apply_target_phase(state, phi), -0.5 * phi)
        assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


def test_sprime_phase_matches_dense_matrix():
    for nb in (2, 4, 6):
        state = _random_state(nb)
        phi = RNG.uniform(-math.pi, math.pi)
        n = 2**nb
        u = np.full((n, n), 1.0 / n, dtype=complex)
        dense = np.eye(n) + (np.exp(1.0j * phi) - 1.0) * u
        np.testing.assert_allclose(
            apply_sprime_phase(state, phi).amps, dense @ state.amps, atol=1e-12
        )


def test_sprime_phase_matches_hadamard_conjugation():
    # e^{i phi |s'><s'|} = H^{(x) nb} e^{i phi |0..0><0..0|} H^{(x) nb}
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    for nb in (1, 2, 3):
        h = h1
        for _ in range(nb - 1):
            h = np.kron(h, h1)
        for _ in range(5):
            phi = RNG.uniform(-math.pi, math.pi)
            zero_phase = np.eye(2**nb, dtype=complex)
            zero_phase[0, 0] = np.exp(1.0j * phi)
            conjugated = h @ zero_phase @ h
            state = _random_state(nb)
            np.testing.assert_allclose(
                apply_sprime_phase(state, phi).amps,
                conjugated @ state.amps,
                atol=1e-12,
            )


def test_run_stays_in_two_dim_subspace():
    trace = run_afga_search(5, target_index=17, del_lam=math.radians(135.0), tol=1e-9)
    assert trace.converged
    # replay the run and check off-target amplitudes stay uniform
    state = init_uniform(5, 17)
    angles = iter_angles(state.gamma, math.radians(135.0))
    for _ in range(trace.steps):
        _, _, alpha_j = next(angles)
        state = apply_sprime_phase(
            apply_target_phase(state, math.radians(135.0)), alpha_j
        )
        rest = np.delete(state.amps, 17)
        assert np.max(np.abs(rest - rest[0])) < 1e-10


def test_search_matches_qubit_run():
    for nb, target, del_lam_degs in ((1, 0, 135.0), (5, 17, 90.0), (8, 200, 45.0)):
        del_lam = math.radians(del_lam_degs)
        trace = run_afga_search(nb, target, del_lam, tol=1e-9)
        params = AfgaParams(trace.gamma, del_lam, trace.steps)
        qubit = run_afga_qubit(params)
        np.testing.assert_allclose(trace.success, 1.0 - np.asarray(qubit.err), atol=1e-10)


def test_search_step_count_matches_prediction():
    trace = run_afga_search(4, del_lam=math.radians(90.0), tol=1e-6)
    predicted = steps_to_tolerance(
        trace.gamma, math.radians(90.0), 2.0 * math.asin(math.sqrt(1e-6))
    )
    assert trace.converged
    assert trace.steps == predicted
    # the trace holds the Python floats the run computed, no numpy scalars
    assert all(type(s) is float for s in [*trace.success, trace.final_success])


def test_search_success_is_monotone():
    for del_lam_degs in (45.0, 90.0, 135.0):
        for nb in (2, 6, 10):
            trace = run_afga_search(nb, del_lam=math.radians(del_lam_degs), tol=1e-9)
            assert trace.converged
            assert trace.final_success >= 1.0 - 1e-9
            assert np.all(np.diff(trace.success) >= -1e-12)


def test_search_max_steps_zero_returns_initial_overlap():
    trace = run_afga_search(3, max_steps=0)
    assert not trace.converged
    np.testing.assert_allclose(trace.success, [0.125])


def test_search_trap_never_converges():
    # nb = 3 leaves a residual angle at del_lam = pi (nb = 2 would land
    # exactly: gamma = 120 degrees is an integer number of decrements)
    trace = run_afga_search(3, del_lam=math.pi, max_steps=60)
    assert not trace.converged
    assert trace.steps == 60
    assert trace.final_success < 1.0 - 1e-6


def test_search_exact_trap_landing_at_nb_2():
    trace = run_afga_search(2, del_lam=math.pi, max_steps=60)
    assert trace.converged
    assert trace.steps == 1


def test_search_target_index_symmetry():
    a = run_afga_search(6, target_index=0, del_lam=math.radians(90.0))
    b = run_afga_search(6, target_index=37, del_lam=math.radians(90.0))
    np.testing.assert_allclose(a.success, b.success, atol=1e-12)


def test_search_validation():
    with pytest.raises(ValueError):
        run_afga_search(3, tol=0.0)
    with pytest.raises(ValueError):
        run_afga_search(3, tol=1.0)
    with pytest.raises(ValueError):
        run_afga_search(3, max_steps=-1)
    with pytest.raises(ValueError):
        run_afga_search(3, del_lam=3.5)


@pytest.mark.parametrize("del_lam_degs", (45.0, 90.0, 135.0, 179.0))
def test_search_trace_equals_wrapper_loop_bitwise(del_lam_degs):
    # near del_lam = pi a run to 1 - 1e-9 takes 10^4 steps and more, so each
    # comparison stops at 400 steps, converged or not
    del_lam = math.radians(del_lam_degs)
    for nb in range(1, 15):
        for target in sorted({0, 2**nb // 3, 2**nb - 1}):
            trace = run_afga_search(nb, target, del_lam, max_steps=400, tol=1e-9)
            state = init_uniform(nb, target)
            replay = [state.success_probability]
            angles = iter_angles(state.gamma, del_lam)
            for _ in range(trace.steps):
                _, _, alpha_j = next(angles)
                state = apply_sprime_phase(apply_target_phase(state, del_lam), alpha_j)
                replay.append(state.success_probability)
            assert np.array_equal(trace.success, replay), (nb, target)


@pytest.mark.parametrize("nb", range(1, 19))
def test_sprime_kernel_equals_mean_update_bitwise(nb):
    # the kernel divides the sum by 2^nb; amps.mean() does the same division
    uniform = init_uniform(nb).amps
    for amps in (uniform, _random_state(nb).amps):
        for phase in (0.3, -2.1, math.pi):
            factor = cmath.exp(1.0j * phase)
            want = amps + (factor - 1.0) * amps.mean()
            got = amps.copy()
            _sprime_phase_inplace(got, factor, np.add.reduce)
            assert got.tobytes() == want.tobytes(), (nb, phase)


def _mean_update_search(nb, target, del_lam, max_steps, tol):
    """The search loop written with amps.mean() and SearchState reads."""
    state = init_uniform(nb, target)
    amps = state.amps
    success = [state.success_probability]
    angles = iter_angles(state.gamma, del_lam)
    target_factor = cmath.exp(1.0j * del_lam)
    converged = success[-1] >= 1.0 - tol
    while not converged and len(success) <= max_steps:
        _, _, alpha_j = next(angles)
        amps[target] *= target_factor
        amps += (cmath.exp(1.0j * alpha_j) - 1.0) * amps.mean()
        success.append(state.success_probability)
        converged = success[-1] >= 1.0 - tol
    return success, converged


@pytest.mark.parametrize("del_lam_degs", (45.0, 90.0, 135.0, 179.0))
def test_search_trace_equals_mean_update_loop_bitwise(del_lam_degs):
    del_lam = math.radians(del_lam_degs)
    for nb in range(1, 19):
        max_steps = 400 if nb < 15 else 20  # up to 2^18 amplitudes, so fewer steps
        for target in sorted({0, 2**nb // 3, 2**nb - 1}):
            trace = run_afga_search(nb, target, del_lam, max_steps=max_steps, tol=1e-9)
            success, converged = _mean_update_search(nb, target, del_lam, max_steps, 1e-9)
            assert np.asarray(trace.success).tobytes() == np.array(success).tobytes(), (nb, target)
            assert trace.converged == converged


def _oracle_success(nb: int, del_lam: float, tol: float, steps: int | None = None):
    alphas = (alpha_j for _, _, alpha_j in iter_angles(search_gamma(nb), del_lam))
    return two_amplitude_success(nb, del_lam, itertools.islice(alphas, steps), tol)


def test_search_matches_two_amplitude_oracle():
    for nb in (1, 2, 5, 9, 12, 16):
        for del_lam_degs in (45.0, 90.0, 170.0):
            del_lam = math.radians(del_lam_degs)
            trace = run_afga_search(nb, 2**nb - 1, del_lam, tol=1e-9)
            want = _oracle_success(nb, del_lam, 1e-9, trace.steps)
            assert trace.converged
            assert len(want) == len(trace.success)
            np.testing.assert_allclose(trace.success, want, rtol=0.0, atol=1e-12)


def test_prediction_matches_two_amplitude_oracle_at_nb_40():
    # 2^40 amplitudes would take 16 TiB; the oracle needs two
    nb, del_lam, tol = 40, math.radians(179.0), 1e-6
    success = _oracle_success(nb, del_lam, tol)
    gamma_tol = 2.0 * math.asin(math.sqrt(tol))
    predicted = steps_to_tolerance(search_gamma(nb), del_lam, gamma_tol)
    assert success[-1] >= 1.0 - tol > success[-2]
    assert len(success) - 1 == predicted


def test_search_holds_one_vector():
    nb = 16
    vector_bytes = 16 * 2**nb
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trace = run_afga_search(nb, del_lam=math.radians(90.0), max_steps=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.steps == 20
    assert peak - start < 1.5 * vector_bytes


def test_search_refuses_max_steps_past_the_cap():
    with pytest.raises(ValueError, match="max_steps"):
        run_afga_search(4, del_lam=math.pi, max_steps=MAX_SCHEDULE_STEPS + 1)
    assert run_afga_search(4, del_lam=math.pi, max_steps=60).steps == 60


def test_search_refuses_a_cycling_run_before_allocating():
    # at del_lam = 0 the step prediction cycles; the 256 MiB vector of
    # nb = 24 must not be allocated first
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="cycles with period 1"):
            run_afga_search(24, del_lam=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_search_refuses_a_tol_below_the_floor_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="tol must lie in"):
            run_afga_search(24, del_lam=math.radians(90.0), tol=1e-15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValueError, match="tol must lie in"):
        run_afga_search(3, tol=TOL_FLOOR * (1.0 - 2.0**-52))


def test_search_reaches_the_tol_floor():
    for nb in (1, 6, 12):
        for del_lam_degs in (10.0, 45.0, 90.0, 135.0, 170.0):
            del_lam = math.radians(del_lam_degs)
            trace = run_afga_search(nb, 2**nb - 1, del_lam, tol=TOL_FLOOR)
            assert trace.converged, (nb, del_lam_degs)
