"""Saturation at del_lam = pi and the continuum decay flow."""

import math
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import add

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


@pytest.mark.parametrize(
    "bad",
    [math.inf, -math.inf, math.nan, "nan", "inf"],
    ids=["inf", "-inf", "nan", "str-nan", "str-inf"],
)
def test_saturation_refuses_non_finite_angles(bad):
    with pytest.raises(ValueError, match=r"\(90, 180\) degrees"):
        saturation_analysis(bad)


def test_verify_saturation_refuses_runs_past_the_step_cap(monkeypatch):
    monkeypatch.setattr(afga.asymptotics, "dbar_gamma", lambda *args: pytest.fail())
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
    steps = 0

    def counting_step(*args):
        nonlocal steps
        steps += 1
        return dbar_gamma(*args)

    monkeypatch.setattr(afga.asymptotics, "dbar_gamma", counting_step)
    assert verify_saturation(gamma_degs, n_tail) < 1e-9
    # at most 4 steps past the landing, then the tail
    assert 0 < steps <= saturation_analysis(gamma_degs).j_sat + 4 + n_tail


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


# Dormand-Prince 5(4) as published (Hairer, Norsett and Wanner, Solving ODEs I,
# sec. II.5): the stage rows a_i1..a_i(i-1) for i = 2..6, the 5th-order weights
# b, which are also stage 7's row, and the error weights e = b - b_hat
DP54_A = [
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
]
DP54_B = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
DP54_E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]


def _reference_dp54(gamma, del_lam, t_max, step_size, a=DP54_A, b=DP54_B, e=DP54_E):
    """Dormand-Prince 5(4) driven by the tableau lists, under the integrator's
    step policy, with every trial computing its own start slope.

    Each stage sums its non-zero terms a_ij * k_j from left to right, as the
    unrolled integrator writes them.  Returns the accepted samples and the
    number of trial steps.
    """

    def rhs(g):
        return gamma - g - mu_of_g(g, gamma, del_lam)

    def weighted(weights, ks):
        return reduce(add, [w * k for w, k in zip(weights, ks) if w != 0.0])

    ts, gs, trials = [0.0], [gamma], 0
    t, g = 0.0, gamma
    while t < t_max and g > 0.0:
        h = min(step_size, t_max - t)
        while True:
            trials += 1
            try:
                ks = [rhs(g)]
                for row in a:
                    ks.append(rhs(g + h * weighted(row, ks)))
                y = g + h * weighted(b, ks)
                ks.append(rhs(y))
                if abs(h * weighted(e, ks)) <= 1e-8:
                    break
            except ValueError:
                pass  # a stage outside [0, gamma] rejects the trial
            h *= 0.5
        if max(y, 0.0) == g:
            break  # a fixed point: the integrator stops here too
        t += h
        g = max(y, 0.0)
        ts.append(t)
        gs.append(g)
    return ts, gs, trials


def _bits(xs):
    return [x.hex() for x in xs]


FLOW_CASES = [
    (math.pi / 2, math.pi / 2, 120.0, 0.01),
    (math.radians(169.15), math.radians(135.0), 40.0, 0.01),
    (math.pi, math.pi, 10.0, 0.01),
    (math.radians(120.0), math.radians(60.0), 30.0, 0.8),
]


@pytest.mark.parametrize("gamma, del_lam, t_max, step_size", FLOW_CASES)
def test_integrate_equals_plain_step_doubling(gamma, del_lam, t_max, step_size):
    # bitwise equal to the DP5(4) loop driven by the tableau lists
    trace = integrate_continuum(gamma, del_lam, t_max, step_size)
    ts, gs, _ = _reference_dp54(gamma, del_lam, t_max, step_size)
    assert _bits(trace.t) == _bits(ts)
    assert _bits(trace.g) == _bits(gs)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.01, math.pi),
    st.floats(0.0, math.pi),
    st.floats(0.05, 2.0),
    st.floats(0.01, 1.0),
)
def test_integrate_equals_plain_step_doubling_anywhere(gamma, del_lam, t_max, step_size):
    ts, gs, _ = _reference_dp54(gamma, del_lam, t_max, step_size)
    trace = integrate_continuum(gamma, del_lam, t_max, step_size)
    assert _bits(trace.t) == _bits(ts)
    assert _bits(trace.g) == _bits(gs)


@pytest.mark.parametrize("gamma, del_lam, t_max, step_size", FLOW_CASES)
def test_integrate_shares_the_start_slope(monkeypatch, gamma, del_lam, t_max, step_size):
    # first same as last: one slope at the start of the trace, then 6 per
    # trial, the last of which (at the trial's 5th-order value) starts the
    # next step once the trial is accepted
    calls = 0

    def counting_mu(*args):
        nonlocal calls
        calls += 1
        return mu_of_g(*args)

    _, _, trials = _reference_dp54(gamma, del_lam, t_max, step_size)
    monkeypatch.setattr(afga.asymptotics, "mu_of_g", counting_mu)
    integrate_continuum(gamma, del_lam, t_max, step_size)
    assert calls == 1 + 6 * trials


def test_trace_ends_at_the_fixed_point():
    # at 90/90 degrees the flow reaches g = 1.6e-16 near t = 37, where a step
    # returns g itself; a longer t_max adds nothing
    trace = integrate_continuum(math.pi / 2, math.pi / 2, 80.0)
    longer = integrate_continuum(math.pi / 2, math.pi / 2, 400.0)
    np.testing.assert_array_equal(longer.t, trace.t)
    np.testing.assert_array_equal(longer.g, trace.g)
    assert len(trace.t) == 3657 and trace.t[-1] < 40.0
    assert 0.0 < trace.g[-1] < 1e-15


@pytest.mark.parametrize(
    "gamma_degs, del_lam_degs, t_max",
    [(90.0, 90.0, 80.0), (169.15, 135.0, 40.0), (120.0, 30.0, 200.0)],
)
def test_integrate_within_2e_12_of_dop853(gamma_degs, del_lam_degs, t_max):
    # a step-doubling RK4 at the same local tolerance misses this bound at 90/90 (3.1e-12)
    gamma, del_lam = math.radians(gamma_degs), math.radians(del_lam_degs)
    trace = integrate_continuum(gamma, del_lam, t_max)

    def rhs(_t, y):
        return [gamma - y[0] - mu_of_g(min(max(y[0], 0.0), gamma), gamma, del_lam)]

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, t_max), [gamma], method="DOP853", rtol=1e-13, atol=1e-16, dense_output=True
    )
    assert np.max(np.abs(np.array(trace.g) - sol.sol(trace.t)[0])) <= 2e-12


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


def _exact_slope(trace) -> Fraction:
    """Least-squares slope of log g(t) over the fit window, in exact rationals."""
    window = [(Fraction(t), Fraction(math.log(g))) for t, g in zip(trace.t, trace.g)
              if 1e-8 < g < 1e-2]
    t_mean = sum(t for t, _ in window) / len(window)
    y_mean = sum(y for _, y in window) / len(window)
    return sum((t - t_mean) * (y - y_mean) for t, y in window) / sum(
        (t - t_mean) ** 2 for t, _ in window
    )


# the README trace, then five flows whose t_max covers the transit and the
# window's ln(1e6) = 13.8 units of rate * t
@pytest.mark.parametrize(
    "gamma_degs, del_lam_degs, t_max",
    [(90, 90, 80), (100, 45, 70), (117.5, 67.5, 34), (135, 90, 22), (152.5, 112.5, 18),
     (170, 135, 22)],
)
def test_fit_rate_is_the_exact_least_squares_slope(gamma_degs, del_lam_degs, t_max):
    trace = integrate_continuum(math.radians(gamma_degs), math.radians(del_lam_degs), t_max)
    rate = fit_tail_rate(trace)
    exact = -float(_exact_slope(trace))
    assert abs(rate - exact) <= 2 * math.ulp(exact)
    t, g = np.array(trace.t), np.array(trace.g)
    window = (g > 1e-8) & (g < 1e-2)
    assert rate == pytest.approx(-np.polyfit(t[window], np.log(g[window]), 1)[0], rel=1e-13)
