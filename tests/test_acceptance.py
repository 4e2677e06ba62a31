"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured value next to its threshold."""

import math
import time

import numpy as np

from afga.asymptotics import (
    fit_tail_rate,
    integrate_continuum,
    saturation_analysis,
    verify_saturation,
)
from afga.bloch import paulion, rotate
from afga.cli import main
from afga.formats import parse_afga_txt
from afga.qubit_sim import run_afga_qubit, run_grover_qubit
from afga.schedule import AfgaParams, build_schedule, iter_angles, steps_to_tolerance
from afga.search_sim import (
    SearchState,
    apply_sprime_phase,
    init_uniform,
    run_afga_search,
)
from helpers import GOLDEN_AFGA, assert_tables_match, random_unit_vectors, rotation_su2

RNG = np.random.default_rng(20260814)


def _report(name: str, detail: str) -> None:
    print(f"criterion {name}: PASS ({detail})")


def test_criterion_1_golden_table(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "afga.txt"
    rc = main(
        [
            "schedule",
            "--gamma-degs",
            "173.15",
            "--del-lam-degs",
            "135",
            "--num-steps",
            "20",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    ours = parse_afga_txt(out.read_text())
    ref = parse_afga_txt(GOLDEN_AFGA.read_text())
    assert_tables_match(ours.data, ref.data)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1 golden table", f"21x8 fields to last printed digit, {elapsed:.3f}s")


def test_criterion_2_saturation_table():
    start = time.perf_counter()
    expected = {160: (0, 0), 164: (4, 4), 166: (26, 2)}
    worst = 0.0
    for gamma, (gamma_jsat, big) in expected.items():
        report = saturation_analysis(gamma)
        assert report.gamma_jsat_degs == gamma_jsat
        assert report.big_gamma_degs == big
        worst = max(worst, verify_saturation(gamma))
    assert worst < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        "2 saturation table",
        f"exact landing angles, tail residual {worst:.2e} rad, {elapsed:.3f}s",
    )


def test_criterion_3_err_identity():
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        gamma = RNG.uniform(0.0, math.pi)
        del_lam = RNG.uniform(0.0, math.pi)
        params = AfgaParams(gamma, del_lam, 200)
        trace = run_afga_qubit(params)
        z = np.array([row.s_j[2] for row in build_schedule(params)])
        worst = max(worst, float(np.max(np.abs(trace.err - 0.5 * (1.0 - z)))))
    assert worst < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("3 err identity", f"max |ERR - (1-z)/2| = {worst:.2e}, {elapsed:.3f}s")


def test_criterion_4_representation_equivalence():
    start = time.perf_counter()
    worst = 0.0
    axes = random_unit_vectors(RNG, 1000)
    vecs = random_unit_vectors(RNG, 1000)
    xis = RNG.uniform(-2.0 * math.pi, 2.0 * math.pi, size=1000)
    for a, r, xi in zip(axes, vecs, xis):
        u = rotation_su2(a, xi)
        lhs = u @ paulion(r) @ u.conj().T
        rhs = paulion(rotate(r, a, xi))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        "4 representation equivalence",
        f"1000 triples, max deviation {worst:.2e}, {elapsed:.3f}s",
    )


def test_criterion_5_fixed_point_convergence():
    start = time.perf_counter()
    worst_angle = 0.0
    for gamma_degs in (21.15, 90.0, 169.15):
        for del_lam_degs in (45.0, 90.0, 135.0):
            angles = iter_angles(
                math.radians(gamma_degs), math.radians(del_lam_degs)
            )
            gamma_200 = [next(angles)[0] for _ in range(201)][-1]
            worst_angle = max(worst_angle, abs(gamma_200))
    assert worst_angle < 1e-6

    worst_gap = 1.0
    for del_lam_degs in (45.0, 90.0, 135.0):
        del_lam = math.radians(del_lam_degs)
        for nb in range(2, 11):
            gamma = init_uniform(nb).gamma
            steps = steps_to_tolerance(gamma, del_lam, 2.0 * math.asin(math.sqrt(1e-9)))
            trace = run_afga_search(nb, del_lam=del_lam, max_steps=steps, tol=1e-9)
            assert trace.converged
            assert trace.steps == steps
            assert trace.final_success >= 1.0 - 1e-9
            worst_gap = min(worst_gap, trace.final_success)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        "5 fixed-point convergence",
        f"|gamma_200| <= {worst_angle:.2e} rad, "
        f"search success >= {worst_gap:.12f}, {elapsed:.3f}s",
    )


def test_criterion_6_continuum_decay_rate():
    start = time.perf_counter()
    worst_rel = 0.0
    for del_lam_degs in (45.0, 90.0, 135.0):
        del_lam = math.radians(del_lam_degs)
        trace = integrate_continuum(math.pi / 2, del_lam, 120.0)
        target = 1.0 - math.cos(del_lam)
        rel = abs(fit_tail_rate(trace) - target) / target
        worst_rel = max(worst_rel, rel)
    assert worst_rel < 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        "6 continuum decay rate",
        f"worst relative error {worst_rel:.2%} vs 1 - cos(del_lam), {elapsed:.3f}s",
    )


def test_criterion_7_grover_overshoot():
    start = time.perf_counter()
    trace = run_grover_qubit(math.radians(160.0), 6)
    assert trace.err[4] < 1e-12
    assert trace.err[5] > trace.err[4]
    four_state = run_grover_qubit(init_uniform(2).gamma, 2)
    assert four_state.err[1] < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        "7 grover overshoot",
        f"err[4] = {trace.err[4]:.2e} then err[5] = {trace.err[5]:.3f}; "
        f"4-state err[1] = {four_state.err[1]:.2e}, {elapsed:.3f}s",
    )


def test_criterion_8_compilation_identity():
    start = time.perf_counter()
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    worst = 0.0
    for nb in (1, 2, 3):
        h = h1
        for _ in range(nb - 1):
            h = np.kron(h, h1)
        for _ in range(10):
            phi = RNG.uniform(-math.pi, math.pi)
            zero_phase = np.eye(2**nb, dtype=complex)
            zero_phase[0, 0] = np.exp(1.0j * phi)
            amps = RNG.normal(size=2**nb) + 1.0j * RNG.normal(size=2**nb)
            amps /= np.linalg.norm(amps)
            state = SearchState(nb, amps, 0)
            via_rank1 = apply_sprime_phase(state, phi).amps
            via_hadamard = h @ zero_phase @ h @ amps
            worst = max(worst, float(np.max(np.abs(via_rank1 - via_hadamard))))
    assert worst < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("8 compilation identity", f"max deviation {worst:.2e}, {elapsed:.3f}s")


def test_criterion_9_discrete_continuum_agreement():
    start = time.perf_counter()
    gamma, del_lam = math.radians(169.15), math.radians(135.0)
    trace = integrate_continuum(gamma, del_lam, 40.0)
    angles = iter_angles(gamma, del_lam)
    diffs = []
    for j in range(200):
        gamma_j = next(angles)[0]
        if abs(gamma_j) < math.radians(1.0):
            break
        diffs.append(abs(gamma_j - float(trace.at(float(j)))))
    worst = max(diffs)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert worst < math.radians(0.5), (
        f"max |gamma_j - g(j)| = {math.degrees(worst):.3f} degrees over the "
        f"{len(diffs)} steps with |gamma_j| >= 1 degree; threshold 0.5 degrees"
    )
    _report(
        "9 discrete/continuum agreement",
        f"max gap {math.degrees(worst):.3f} degrees, {elapsed:.3f}s",
    )
