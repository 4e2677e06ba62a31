"""Saturation at del_lam = pi and the continuum decay flow."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import afga.asymptotics
from afga.asymptotics import (
    _rhs,
    fit_tail_rate,
    integrate_continuum,
    mu_of_g,
    saturation_analysis,
    verify_saturation,
)
from afga.schedule import AfgaParams, build_schedule, dbar_gamma, iter_angles
from helpers import max_initial_slope

RNG = np.random.default_rng(20260814)


def test_saturation_examples_exact():
    for gamma, j_sat, del_gamma, gamma_jsat, big in (
        (160, 4, 40, 0, 0),
        (164, 5, 32, 4, 4),
        (166, 5, 28, 26, 2),
    ):
        report = saturation_analysis(gamma)
        assert report.j_sat == j_sat
        assert report.del_gamma_degs == Fraction(del_gamma)
        assert report.gamma_jsat_degs == Fraction(gamma_jsat)
        assert report.big_gamma_degs == Fraction(big)


def test_saturation_invariants():
    for _ in range(50):
        gamma = Fraction(int(RNG.integers(9001, 17999)), 100)
        report = saturation_analysis(gamma)
        assert 0 <= report.gamma_jsat_degs < report.del_gamma_degs
        assert report.j_sat * report.del_gamma_degs + report.gamma_jsat_degs == gamma
        if report.j_sat >= 1:
            # the angle one decrement earlier had not yet entered the trap
            assert gamma - (report.j_sat - 1) * report.del_gamma_degs >= report.del_gamma_degs
        assert report.big_gamma_degs == min(
            report.gamma_jsat_degs, report.del_gamma_degs - report.gamma_jsat_degs
        )


def test_saturation_accepts_floats_exactly():
    assert saturation_analysis(164.0).gamma_jsat_degs == 4
    assert saturation_analysis("166").big_gamma_degs == 2


def test_saturation_validation():
    for bad in (90, 180, 45, 200):
        with pytest.raises(ValueError):
            saturation_analysis(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_saturation_refuses_non_finite_angles(bad):
    with pytest.raises(ValueError, match=r"\(90, 180\) degrees"):
        saturation_analysis(bad)


def test_verify_saturation_refuses_runs_past_the_step_cap(monkeypatch):
    monkeypatch.setattr(afga.asymptotics, "iter_angles", lambda *args: pytest.fail())
    # j_sat = 8,999,999 would take 9,000,012 steps
    with pytest.raises(ValueError, match="j_sat = 8999999 runs past the 1000000-step cap"):
        verify_saturation("179.99999")
    # j_sat = 5 lands in 8 steps, so a tail of 999,993 more is one past the cap
    with pytest.raises(ValueError, match="n_tail = 999993 runs past the 1000000-step cap"):
        verify_saturation(164, n_tail=999_993)


def test_verify_saturation_examples():
    for gamma in (160, 164, 166):
        assert verify_saturation(gamma) < 1e-9


@pytest.mark.parametrize("n_tail", [0, -3])
def test_verify_saturation_needs_a_tail(n_tail):
    # rows[-0:] would be the whole run, and its check a false alarm
    with pytest.raises(ValueError, match="n_tail"):
        verify_saturation(164, n_tail=n_tail)


def test_verify_saturation_random():
    for gamma in RNG.uniform(90.5, 179.5, size=20):
        assert verify_saturation(float(gamma)) < 1e-6


@pytest.mark.parametrize("n_tail", [1, 2, 10])
@pytest.mark.parametrize("gamma_degs", [160, 164, 166, 179.9])
def test_verify_saturation_stops_past_the_landing(monkeypatch, gamma_degs, n_tail):
    drawn = []

    def counting_angles(gamma, del_lam):
        drawn.append(0)
        for angles in iter_angles(gamma, del_lam):
            drawn[-1] += 1
            yield angles

    monkeypatch.setattr(afga.asymptotics, "iter_angles", counting_angles)
    assert verify_saturation(gamma_degs, n_tail) < 1e-9
    # the start angle, then at most 4 steps past the landing and the tail
    assert len(drawn) == 1
    assert drawn[0] <= 1 + saturation_analysis(gamma_degs).j_sat + 4 + n_tail


def _row_tail_dev(gamma_degs, n_tail: int = 10) -> float:
    """verify_saturation's residual read off built ScheduleRows: the reference."""
    report = saturation_analysis(gamma_degs)
    gamma = math.radians(float(Fraction(gamma_degs)))
    num_steps = 2 * (report.j_sat // 2 + 2) + n_tail
    rows = build_schedule(AfgaParams(gamma, math.pi, num_steps))
    return max(abs(abs(row.gamma_j) - report.big_gamma) for row in rows[-n_tail:])


@pytest.mark.parametrize("n_tail", [1, 10])
def test_verify_saturation_equals_the_row_tail(n_tail):
    rng = np.random.default_rng(20261018)
    random_degs = [Fraction(int(k), 1000) for k in rng.integers(90_001, 179_990, size=50)]
    for gamma_degs in [160, 164, 166, 179.9, 179.999] + random_degs:
        assert verify_saturation(gamma_degs, n_tail) == _row_tail_dev(gamma_degs, n_tail)


def test_verify_saturation_holds_only_the_tail():
    # 90,003 steps; a run that kept its rows peaked at 44 MiB
    verify_saturation(160)  # warm the imports and caches outside the trace
    tracemalloc.start()
    try:
        assert verify_saturation(179.999) < 1e-9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_mu_examples():
    # del_lam = pi folds the arc to the smaller of 2g and 2 pi - 2g
    assert mu_of_g(math.radians(40), math.radians(40), math.pi) == pytest.approx(
        math.radians(80), abs=1e-12
    )
    assert mu_of_g(math.radians(100), math.radians(100), math.pi) == pytest.approx(
        math.radians(160), abs=1e-9
    )
    # del_lam = 0 leaves the meridian, so the arc is the angle difference
    assert mu_of_g(0.3, 1.0, 0.0) == pytest.approx(0.7, abs=1e-12)
    assert mu_of_g(0.0, 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    # small del_lam: transverse arc sin(gamma) del_lam
    gamma = 1.0
    assert mu_of_g(gamma, gamma, 1e-3) == pytest.approx(
        math.sin(gamma) * 1e-3, rel=1e-4
    )
    # g = gamma: the arc between s' and its own image after the target phase
    assert mu_of_g(math.pi / 2, math.pi / 2, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert mu_of_g(math.pi / 2, math.pi / 2, math.pi) == math.pi
    # g = gamma at del_lam = 0 has no arc, and roundoff must not make one
    assert mu_of_g(1.4000000000000001, 1.4000000000000001, 0.0) == 0.0


angles = st.floats(0.0, math.pi)


@settings(max_examples=300, deadline=None)
@given(angles, st.floats(0.0, 1.0), angles)
def test_flow_is_minus_recursion_step(gamma, frac, del_lam):
    g = frac * gamma
    assert _rhs(g, gamma, del_lam) == pytest.approx(
        -dbar_gamma(gamma, g, del_lam), abs=1e-12
    )
    assert 0.0 <= mu_of_g(g, gamma, del_lam) <= math.pi


def test_mu_domain_validation():
    with pytest.raises(ValueError):
        mu_of_g(1.1, 1.0, 0.5)
    with pytest.raises(ValueError):
        mu_of_g(-0.1, 1.0, 0.5)


def _plain_step_doubling(gamma, del_lam, t_max, step_size):
    """The step-doubling RK4 loop with every RK4 step computing its own slopes.

    Returns the accepted samples, the number of passes of the outer loop
    (the last one may end the trace at a fixed point without a sample) and
    the number of trial steps, full plus two halves each.
    """

    def rhs(g):
        return gamma - g - mu_of_g(g, gamma, del_lam)

    def rk4(g, h):
        k1 = rhs(g)
        k2 = rhs(g + 0.5 * h * k1)
        k3 = rhs(g + 0.5 * h * k2)
        k4 = rhs(g + h * k3)
        return g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    ts, gs, passes, trials = [0.0], [gamma], 0, 0
    t, g = 0.0, gamma
    while t < t_max and g > 0.0:
        passes += 1
        h = min(step_size, t_max - t)
        while True:
            trials += 1
            try:
                full = rk4(g, h)
                half = rk4(rk4(g, 0.5 * h), 0.5 * h)
                if abs(half - full) <= 1e-8:
                    break
            except ValueError:
                pass  # a stage outside [0, gamma] rejects the trial
            h *= 0.5
        if max(half, 0.0) == g:
            break  # a fixed point: the integrator stops here too
        t += h
        g = max(half, 0.0)
        ts.append(t)
        gs.append(g)
    return np.array(ts), np.array(gs), passes, trials


RK4_CASES = [
    (math.pi / 2, math.pi / 2, 120.0, 0.01),
    (math.radians(169.15), math.radians(135.0), 40.0, 0.01),
    (math.pi, math.pi, 10.0, 0.01),
    (math.radians(120.0), math.radians(60.0), 30.0, 0.8),
]


@pytest.mark.parametrize("gamma, del_lam, t_max, step_size", RK4_CASES)
def test_integrate_equals_plain_step_doubling(gamma, del_lam, t_max, step_size):
    trace = integrate_continuum(gamma, del_lam, t_max, step_size)
    ts, gs, _, _ = _plain_step_doubling(gamma, del_lam, t_max, step_size)
    np.testing.assert_array_equal(trace.t, ts)
    np.testing.assert_array_equal(trace.g, gs)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.01, math.pi),
    st.floats(0.0, math.pi),
    st.floats(0.05, 2.0),
    st.floats(0.01, 1.0),
)
def test_integrate_equals_plain_step_doubling_anywhere(gamma, del_lam, t_max, step_size):
    ts, gs, _, _ = _plain_step_doubling(gamma, del_lam, t_max, step_size)
    trace = integrate_continuum(gamma, del_lam, t_max, step_size)
    np.testing.assert_array_equal(trace.t, ts)
    np.testing.assert_array_equal(trace.g, gs)


@pytest.mark.parametrize("gamma, del_lam, t_max, step_size", RK4_CASES)
def test_integrate_shares_the_start_slope(monkeypatch, gamma, del_lam, t_max, step_size):
    # one start slope per pass, the pass that ends the trace at a fixed
    # point included; 10 evaluations per trial, since the full step and the
    # first half-step reuse the start slope
    calls = 0

    def counting_mu(*args):
        nonlocal calls
        calls += 1
        return mu_of_g(*args)

    _, _, passes, trials = _plain_step_doubling(gamma, del_lam, t_max, step_size)
    monkeypatch.setattr(afga.asymptotics, "mu_of_g", counting_mu)
    integrate_continuum(gamma, del_lam, t_max, step_size)
    assert calls == passes + 10 * trials


def test_trace_ends_at_the_fixed_point():
    # at 90/90 degrees the flow reaches g = 1.7e-16 near t = 37, where a step
    # returns g itself; a longer t_max adds nothing
    trace = integrate_continuum(math.pi / 2, math.pi / 2, 80.0)
    longer = integrate_continuum(math.pi / 2, math.pi / 2, 400.0)
    np.testing.assert_array_equal(longer.t, trace.t)
    np.testing.assert_array_equal(longer.g, trace.g)
    assert len(trace.t) == 3656 and trace.t[-1] < 40.0
    assert 0.0 < trace.g[-1] < 1e-15


def test_integrate_basic_shape():
    trace = integrate_continuum(math.pi / 2, math.pi / 2, 30.0)
    assert trace.t[0] == 0.0
    assert trace.g[0] == math.pi / 2
    assert np.all(np.diff(trace.g) <= 1e-15)
    assert trace.at(0.0) == math.pi / 2
    assert trace.g[-1] < 1e-10


def test_integrate_matches_scipy():
    gamma, del_lam = math.radians(169.15), math.radians(135.0)
    trace = integrate_continuum(gamma, del_lam, 20.0)

    def rhs(_t, y):
        return [gamma - y[0] - mu_of_g(min(max(y[0], 0.0), gamma), gamma, del_lam)]

    sol = scipy.integrate.solve_ivp(
        rhs,
        (0.0, 20.0),
        [gamma],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    np.testing.assert_allclose(trace.g, sol.sol(trace.t)[0], atol=1e-8)


def test_decay_rate_matches_case_a():
    for del_lam_degs in (45.0, 90.0, 135.0):
        del_lam = math.radians(del_lam_degs)
        trace = integrate_continuum(math.pi / 2, del_lam, 120.0)
        target = 1.0 - math.cos(del_lam)
        assert fit_tail_rate(trace) == pytest.approx(target, rel=0.02)


def test_decay_rate_independent_of_gamma():
    rates = []
    for gamma_degs in (60.0, 120.0, 169.0):
        trace = integrate_continuum(math.radians(gamma_degs), math.pi / 2, 80.0)
        rates.append(fit_tail_rate(trace))
    np.testing.assert_allclose(rates, 1.0, rtol=0.02)


def test_initial_slope_at_del_lam_pi():
    # rhs is constant -2(pi - gamma) until the fold, so the first samples
    # fall on a straight line
    gamma = math.radians(160.0)
    trace = integrate_continuum(gamma, math.pi, 1.0)
    slope = (trace.g[1] - trace.g[0]) / (trace.t[1] - trace.t[0])
    assert slope == pytest.approx(-math.radians(40.0), abs=1e-9)
    assert slope == pytest.approx(-max_initial_slope(gamma), abs=1e-9)


def test_initial_slope_at_small_del_lam():
    # one forward difference over h carries an O(h/2) curvature bias
    gamma = math.radians(100.0)
    trace = integrate_continuum(gamma, 0.01, 1.0)
    slope = (trace.g[1] - trace.g[0]) / (trace.t[1] - trace.t[0])
    assert slope == pytest.approx(-math.sin(gamma) * 0.01, rel=0.01)


def test_max_initial_slope_examples():
    assert max_initial_slope(math.pi / 2) == pytest.approx(math.pi)
    assert max_initial_slope(math.radians(160.0)) == pytest.approx(
        math.radians(40.0), abs=1e-12
    )
    with pytest.raises(ValueError):
        max_initial_slope(-0.1)


def test_max_initial_slope_is_attained_at_pi():
    gamma = 2.0
    measured = []
    grid = np.linspace(0.3, math.pi, 12)
    for del_lam in grid:
        trace = integrate_continuum(gamma, float(del_lam), 0.5)
        measured.append(-(trace.g[1] - trace.g[0]) / (trace.t[1] - trace.t[0]))
    assert int(np.argmax(measured)) == len(grid) - 1
    assert measured[-1] == pytest.approx(max_initial_slope(gamma), abs=1e-6)


def test_discrete_run_tracks_continuum_within_degrees():
    # unit-step recursion vs its continuum flow: a few degrees through the
    # fast transit, collapsing once both settle
    gamma, del_lam = math.radians(169.15), math.radians(135.0)
    trace = integrate_continuum(gamma, del_lam, 40.0)
    angles = iter_angles(gamma, del_lam)
    worst = 0.0
    for j in range(200):
        gamma_j = next(angles)[0]
        if abs(gamma_j) < math.radians(1.0):
            break
        worst = max(worst, abs(gamma_j - float(trace.at(float(j)))))
    assert worst < math.radians(4.0)


def test_integrator_validation():
    with pytest.raises(ValueError):
        integrate_continuum(0.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        integrate_continuum(1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        integrate_continuum(1.0, 1.0, 10.0, step_size=0.0)


@pytest.mark.parametrize(
    "t_max, step_size",
    [(math.inf, 0.01), (math.nan, 0.01), (10.0, math.nan), (10.0, math.inf)],
)
def test_integrator_rejects_non_finite_times(t_max, step_size):
    # t_max = inf might never return: the trace ends early at the flow's
    # fixed point, but at small del_lam the flow (rate 1 - cos del_lam) can
    # take arbitrarily long to reach it
    with pytest.raises(ValueError, match="finite"):
        integrate_continuum(1.0, 1.0, t_max, step_size=step_size)


def test_fit_rate_window_needs_samples():
    trace = integrate_continuum(math.pi / 2, math.pi / 2, 0.5)
    with pytest.raises(ValueError):
        fit_tail_rate(trace)
