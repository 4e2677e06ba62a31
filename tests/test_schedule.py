"""Recursion checks for the adaptive phase schedule."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afga.bloch import rotate
from afga.schedule import (
    MAX_SCHEDULE_STEPS,
    AfgaParams,
    ConvergenceError,
    alpha,
    arc_rj_sprime,
    build_schedule,
    dbar_gamma,
    iter_angles,
    polar_unit_vec,
    steps_to_tolerance,
)
from helpers import Y_HAT, Z_HAT, alpha_from_vectors, arc_from_vectors, search_gamma

RNG = np.random.default_rng(20260814)

GOLDEN = AfgaParams(math.radians(173.15), math.radians(135.0), 20)


def test_params_validation():
    with pytest.raises(ValueError):
        AfgaParams(-0.1, 1.0, 5)
    with pytest.raises(ValueError):
        AfgaParams(1.0, math.pi + 0.1, 5)
    with pytest.raises(ValueError):
        AfgaParams(1.0, 1.0, -1)


def test_params_cap_num_steps():
    assert AfgaParams(1.0, 1.0, MAX_SCHEDULE_STEPS).num_steps == MAX_SCHEDULE_STEPS
    with pytest.raises(ValueError, match=f"0, {MAX_SCHEDULE_STEPS}]"):
        AfgaParams(1.0, 1.0, MAX_SCHEDULE_STEPS + 1)


@pytest.mark.parametrize("gamma, del_lam", [(1.0, 4.0), (1.0, -0.5), (4.0, 1.0)])
def test_steps_to_tolerance_validates_angles(gamma, del_lam):
    # unchecked, these iterate: to 48 and 153 steps, and into a period-1 cycle
    with pytest.raises(ValueError, match="must lie in"):
        steps_to_tolerance(gamma, del_lam)


closed_angles = st.floats(0.0, math.pi)


@settings(max_examples=500, deadline=None)
@given(closed_angles, st.floats(-1.0, 1.0), closed_angles)
def test_arc_rj_sprime_matches_vectors(gamma, frac, del_lam):
    gamma_j = frac * gamma
    ref = arc_from_vectors(gamma, gamma_j, del_lam)
    # 1e-12 wherever the arc is well conditioned.  The haversine's rounding,
    # a few eps times the size of its two terms, is scaled by d mu / d hav =
    # 2 / sin(mu), which grows near mu = pi and where the terms cancel
    # (gamma_j near -gamma, del_lam near pi); the law of cosines loses about
    # as many digits there.
    terms = math.sin(0.5 * (gamma - gamma_j)) ** 2 + abs(
        math.sin(gamma) * math.sin(gamma_j)
    ) * math.sin(0.5 * del_lam) ** 2
    tol = 1e-12 + 32.0 * math.ulp(1.0) * terms / max(math.sin(ref), 1e-300)
    assert abs(arc_rj_sprime(gamma, gamma_j, del_lam) - ref) <= tol


@pytest.mark.parametrize("k", range(2, 13))
def test_arc_rj_sprime_keeps_small_arcs_near_antipode(k):
    # gamma_j = gamma makes the triangle isosceles, with chord 2 sin(gamma)
    # sin(del_lam / 2): an arc of about 2e-k here, which the law of cosines
    # rounds away
    gamma = math.pi - 10.0**-k
    for del_lam in (1e-6, 0.3, math.pi / 2, 2.9):
        want = 2.0 * math.asin(math.sin(gamma) * math.sin(0.5 * del_lam))
        assert arc_rj_sprime(gamma, gamma, del_lam) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "gamma, gamma_j, del_lam, expected",
    [
        # the haversine rounds to 1 + 2^-52 and to -2^-53 here
        (3.08, math.pi - 3.08, math.pi, math.pi),
        (1.0, -0.9999999999999998, math.pi, 0.0),
        (0.0, 0.7, 0.3, 0.7),
        (0.7, 0.7, 0.0, 0.0),
        (math.pi, math.pi, math.pi, 0.0),
    ],
)
def test_arc_rj_sprime_corners(gamma, gamma_j, del_lam, expected):
    assert arc_rj_sprime(gamma, gamma_j, del_lam) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "args", [(math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.nan)]
)
def test_nan_argument_gives_nan(args):
    # a NaN del_lam must not read as the fixed point dbar_gamma = 0
    assert math.isnan(arc_rj_sprime(*args))
    assert math.isnan(dbar_gamma(*args))
    assert math.isnan(alpha(*args))


def test_dbar_gamma_fixed_points():
    assert dbar_gamma(0.0, 0.0, 2.0) == 0.0
    # start state antipodal to the target never moves
    assert dbar_gamma(math.pi, math.pi, math.pi) == pytest.approx(0.0, abs=1e-15)


def test_first_decrement_matches_printed_table():
    d0 = dbar_gamma(GOLDEN.gamma, GOLDEN.gamma, GOLDEN.del_lam)
    assert math.degrees(d0) == pytest.approx(173.15 - 160.50, abs=0.02)


def test_alpha_first_step_matches_printed_table():
    a0 = alpha(GOLDEN.gamma, GOLDEN.gamma, GOLDEN.del_lam)
    assert math.degrees(a0) == pytest.approx(157.35, abs=0.01)


def test_alpha_degenerate_returns_zero():
    assert alpha(0.0, 0.0, 1.0) == 0.0
    # gamma_j = 0 puts r_j on the target axis where any phase works
    assert alpha(2.0, 0.0, 1.0) == 0.0
    # r_j = s' up to roundoff, which alone would give -90 degrees
    assert alpha(math.radians(30), -math.radians(30), math.pi) == 0.0


def _alpha_gap(gamma, gamma_j, del_lam, alpha_j):
    """|alpha_j - reference| in radians, taken mod 2 pi."""
    ref = alpha_from_vectors(gamma, gamma_j, del_lam)
    return abs(math.remainder(alpha_j - ref, 2.0 * math.pi))


interior = st.floats(0.01, math.pi - 0.01)


@settings(max_examples=300, deadline=None)
@given(interior, interior, st.floats(-1.0, 1.0))
def test_alpha_matches_vectors(gamma, del_lam, frac):
    gamma_j = frac * gamma
    assert _alpha_gap(gamma, gamma_j, del_lam, alpha(gamma, gamma_j, del_lam)) <= 1e-12


@pytest.mark.parametrize("del_lam", [0.3, math.pi / 2, 2.9])
def test_alpha_near_antipodal_start(del_lam):
    # sin(gamma) = 1.7e-7: r_j lies within 3.5e-7 rad of s' on the first rows
    gamma = math.radians(180.0 - 1e-5)
    for row in build_schedule(AfgaParams(gamma, del_lam, 30)):
        assert _alpha_gap(gamma, row.gamma_j, del_lam, row.alpha_j) <= 1e-12, row.j


def test_recursion_consistency():
    # the defining identity: the start-axis phase that follows the target
    # phase must land exactly where the +y decrement rotation lands
    for _ in range(20):
        gamma = RNG.uniform(0.01, math.pi - 0.01)
        del_lam = RNG.uniform(0.01, math.pi)
        rows = build_schedule(AfgaParams(gamma, del_lam, 30))
        s_prime = polar_unit_vec(gamma)
        for row in rows:
            via_phase = rotate(row.r_j, s_prime, -row.alpha_j)
            via_decrement = rotate(row.s_j, Y_HAT, -row.dbar_gamma_j)
            np.testing.assert_allclose(via_phase, via_decrement, atol=1e-10)


def test_rows_stay_in_xz_plane():
    for row in build_schedule(GOLDEN):
        assert row.s_j[1] == 0.0
        assert row.r_j[2] == pytest.approx(row.s_j[2], abs=1e-15)
        np.testing.assert_allclose(
            row.r_j, rotate(row.s_j, Z_HAT, -GOLDEN.del_lam), atol=1e-15
        )


@pytest.mark.parametrize(
    "params",
    [
        AfgaParams(math.radians(100.0), math.radians(60.0), 60),
        AfgaParams(GOLDEN.gamma, GOLDEN.del_lam, 2000),
    ],
    ids=["gamma100-del_lam60", "golden-2000"],
)
def test_rows_agree_with_their_angle(params):
    # no drift from earlier rows: each vector is fixed by its own gamma_j
    sin_dl = math.sin(params.del_lam)
    for row in build_schedule(params):
        if row.gamma_j == 0.0:
            assert row.s_j[0] == 0.0, row.j
            continue
        want = math.sin(row.gamma_j)
        assert row.s_j[0] == pytest.approx(want, rel=1e-12), row.j
        assert -row.r_j[1] / sin_dl == pytest.approx(want, rel=1e-12), row.j


def test_gamma_j_matches_vector_angle():
    for row in build_schedule(GOLDEN):
        signed_angle = math.atan2(row.s_j[0], row.s_j[2])
        assert row.gamma_j == pytest.approx(signed_angle, abs=1e-9)


def test_golden_landing_angle():
    rows = build_schedule(GOLDEN)
    assert math.degrees(rows[-1].gamma_j) == pytest.approx(0.086014, abs=1e-3)


def test_consecutive_rows_differ_by_decrement():
    rows = build_schedule(GOLDEN)
    for prev, cur in zip(rows, rows[1:]):
        assert cur.gamma_j == pytest.approx(
            prev.gamma_j - prev.dbar_gamma_j, abs=1e-12
        )
        assert cur.j == prev.j + 1


def test_abs_gamma_never_grows():
    for _ in range(20):
        gamma = RNG.uniform(0.01, math.pi - 0.01)
        del_lam = RNG.uniform(0.0, math.pi)
        angles = iter_angles(gamma, del_lam)
        seq = [next(angles)[0] for _ in range(50)]
        for prev, cur in zip(seq, seq[1:]):
            assert abs(cur) <= abs(prev) + 1e-12


def test_tail_alternates_and_shrinks():
    rows = build_schedule(GOLDEN)
    tail = [row.gamma_j for row in rows[15:]]
    for prev, cur in zip(tail, tail[1:]):
        assert prev * cur < 0.0
        assert abs(cur) < abs(prev)


def test_tail_contracts_by_cos_del_lam():
    # near gamma_j = 0 the step is the linear map gamma_{j+1} = cos(del_lam) gamma_j
    checked = 0
    for gamma_degs in (30.0, 90.0, 150.0, 169.15, 179.0):
        for del_lam_degs in (20.0, 45.0, 60.0, 90.0, 120.0, 135.0, 160.0):
            gamma, del_lam = math.radians(gamma_degs), math.radians(del_lam_degs)
            n = steps_to_tolerance(gamma, del_lam, tol=1e-8)
            seq = [g for g, _, _ in itertools.islice(iter_angles(gamma, del_lam), n + 1)]
            for prev, cur in zip(seq, seq[1:]):
                if not 1e-8 < abs(prev) < 1e-5:
                    continue
                checked += 1
                assert abs(cur / prev - math.cos(del_lam)) < 1e-3, (gamma_degs, del_lam_degs)
                if del_lam_degs != 90.0:
                    # the sign flips every step past 90 degrees, never below
                    assert (prev * cur < 0.0) == (del_lam_degs > 90.0), (gamma_degs, del_lam_degs)
    assert checked > 1000


def test_gamma_zero_is_fixed_point():
    for row in build_schedule(AfgaParams(0.0, 2.0, 10)):
        assert row.gamma_j == 0.0
        assert row.dbar_gamma_j == 0.0
        assert row.alpha_j == 0.0
        np.testing.assert_array_equal(row.s_j, Z_HAT)


def test_convergence_grid():
    for gamma_degs in (21.15, 90.0, 169.15):
        for del_lam_degs in (45.0, 90.0, 135.0):
            angles = iter_angles(math.radians(gamma_degs), math.radians(del_lam_degs))
            gamma_200 = [next(angles)[0] for _ in range(201)][-1]
            assert abs(gamma_200) < 1e-6


def test_steps_to_tolerance_matches_schedule():
    n = steps_to_tolerance(GOLDEN.gamma, GOLDEN.del_lam, tol=1e-3)
    rows = build_schedule(AfgaParams(GOLDEN.gamma, GOLDEN.del_lam, n))
    assert abs(rows[-1].gamma_j) < 1e-3
    assert all(abs(row.gamma_j) >= 1e-3 for row in rows[:-1])


def test_steps_to_tolerance_raises_in_trap():
    # del_lam = pi stalls at a fixed residual angle
    with pytest.raises(ConvergenceError):
        steps_to_tolerance(math.radians(164.0), math.pi, tol=1e-9, max_steps=5000)
    # bad input is refused as such, not reported as a run that never converged
    for bad, message in (
        ({"tol": 0.0}, "tol must be > 0"),
        ({"tol": math.nan}, "tol must be > 0, got nan"),
        ({"max_steps": -1}, "max_steps must be >= 0, got -1"),
    ):
        with pytest.raises(ValueError, match=message):
            steps_to_tolerance(1.0, 1.0, **bad)


def _plain_steps_to_tolerance(gamma, del_lam, tol, max_steps):
    """steps_to_tolerance without the cycle check; None past max_steps."""
    gamma_j = gamma
    for j in range(max_steps + 1):
        if abs(gamma_j) < tol:
            return j
        gamma_j -= dbar_gamma(gamma, gamma_j, del_lam)
    return None


def _reported_cycle(gamma, del_lam, tol):
    """(period, step) from the ConvergenceError, checked against a replay."""
    with pytest.raises(ConvergenceError) as info:
        steps_to_tolerance(gamma, del_lam, tol)
    found = re.search(r"period (\d+) at step (\d+)", str(info.value))
    assert found, str(info.value)
    period, step = int(found[1]), int(found[2])
    iterates = [gamma]
    for _ in range(step):
        iterates.append(iterates[-1] - dbar_gamma(gamma, iterates[-1], del_lam))
    assert iterates[step] == iterates[step - period]
    assert all(iterates[step - q] != iterates[step] for q in range(1, period))
    assert min(abs(g) for g in iterates) >= tol
    return period, step


@pytest.mark.parametrize(
    "nb, del_lam, period, step",
    [
        (1, 0.0, 1, 1),
        (3, 0.0, 1, 1),
        (4, 0.0, 1, 1),
        (6, 0.0, 1, 1),
        (18, 0.0, 1, 1),
        (1, math.pi, 2, 4),
        (3, math.pi, 2, 4),
        (4, math.pi, 2, 6),
        (6, math.pi, 2, 10),
        (18, math.pi, 2, 514),
    ],
)
def test_steps_to_tolerance_reports_cycle(nb, del_lam, period, step):
    assert _reported_cycle(search_gamma(nb), del_lam, 1e-6) == (period, step)


def test_steps_to_tolerance_reports_cycle_below_floor():
    assert _reported_cycle(1.0, 1.0, 1e-30) == (1, 65)
    assert _reported_cycle(3.0, 2.9, 1e-30) == (2, 1026)


def test_steps_to_tolerance_trap_landings_still_count():
    gamma_tol = 2.0 * math.asin(math.sqrt(1e-6))
    for nb, want in ((2, 1), (24, 3215)):
        gamma = search_gamma(nb)
        assert steps_to_tolerance(gamma, math.pi, gamma_tol) == want
        assert _plain_steps_to_tolerance(gamma, math.pi, gamma_tol, want) == want


open_angles = st.floats(0.0, math.pi, exclude_min=True, exclude_max=True)


@settings(max_examples=100, deadline=None)
@given(open_angles, open_angles)
def test_cycle_check_keeps_step_counts(gamma, del_lam):
    cap = 5000
    try:
        checked = steps_to_tolerance(gamma, del_lam, 1e-9, max_steps=cap)
    except ConvergenceError:
        checked = None
    assert checked == _plain_steps_to_tolerance(gamma, del_lam, 1e-9, cap)
