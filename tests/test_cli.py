"""Command-line behavior: outputs, determinism, exit codes."""

import ast
import builtins
import importlib
import itertools
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import afga.asymptotics
import afga.cli
from afga.cli import UsageError, main
from afga.formats import parse_afga_txt
from afga.schedule import ConvergenceError, dbar_gamma
from helpers import GOLDEN_AFGA, assert_tables_match, run_python

GOLDEN_ARGS = [
    "schedule",
    "--gamma-degs",
    "173.15",
    "--del-lam-degs",
    "135",
    "--num-steps",
    "20",
]


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_exit_0(capsys, monkeypatch, tmp_path):
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("afga ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)  # the commands write their --out files here
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
    capsys.readouterr()


def test_readme_python_api_block_holds(capsys):
    section = README.read_text().split("## Python API", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    rows, trace, search = namespace["rows"], namespace["trace"], namespace["search"]
    # angles + Bloch vectors per step: row j holds gamma_j and the unit r_j, s_j
    assert [row.j for row in rows] == list(range(21))
    for row in rows:
        assert math.isfinite(row.gamma_j) and math.isfinite(row.alpha_j)
        for vec in (row.r_j, row.s_j):
            assert math.isclose(math.fsum(c * c for c in vec), 1.0, abs_tol=1e-15)
    # trace.err[k] >= 0, non-increasing
    assert len(trace) == 21
    assert all(e >= 0.0 for e in trace.err)
    assert all(later <= e for e, later in zip(trace.err, trace.err[1:]))
    # the printed line is the step count and the final success
    assert capsys.readouterr().out == f"{search.steps} {search.final_success}\n"
    assert search.converged and search.final_success >= 1.0 - 1e-9


def test_schedule_reproduces_golden_file(tmp_path):
    out = tmp_path / "afga.txt"
    assert main(GOLDEN_ARGS + ["--out", str(out)]) == 0
    ours = parse_afga_txt(out.read_text())
    ref = parse_afga_txt(GOLDEN_AFGA.read_text())
    assert ours.num_steps == ref.num_steps == 20
    assert_tables_match(ours.data, ref.data)


def test_schedule_stdout_is_deterministic(capsys):
    assert main(GOLDEN_ARGS) == 0
    first = capsys.readouterr().out
    assert main(GOLDEN_ARGS) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("gamma(degs) = 1.7315e+02\n")


@pytest.mark.parametrize("fmt", ["csv", "afga-txt"])
@pytest.mark.parametrize("flag", ["--gamma-degs", "--del-lam-degs"])
def test_negative_zero_angle_reads_as_zero(capsys, flag, fmt):
    # -0 degrees is 0 degrees: no table prints -0.0 for it
    def run(value):
        args = {"--gamma-degs": "90", "--del-lam-degs": "90", flag: value}
        assert main(["schedule", *itertools.chain(*args.items()), "--format", fmt]) == 0
        return capsys.readouterr().out

    zero = run("0")
    assert run("-0") == zero
    assert "-0.0" not in zero
    assert run("-0.0") == zero


def test_schedule_csv_format(capsys):
    assert main(GOLDEN_ARGS + ["--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("j,gam_j_degs,")
    assert len(out.splitlines()) == 22


def test_qubit_command(tmp_path):
    out = tmp_path / "err.csv"
    rc = main(
        [
            "qubit",
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
    rows = out.read_text().splitlines()
    assert rows[0] == "j,err,s_fin_z"
    assert float(rows[-1].split(",")[1]) < 1.2e-6


def test_grover_command(capsys):
    assert main(["grover", "--gamma-degs", "160", "--num-steps", "6"]) == 0
    rows = capsys.readouterr().out.splitlines()
    errs = [float(r.split(",")[1]) for r in rows[1:]]
    assert errs[4] < 1e-12
    assert errs[5] > errs[4]


def test_search_command(capsys, tmp_path):
    out = tmp_path / "search.csv"
    rc = main(
        ["search", "--nb", "6", "--del-lam-degs", "90", "--tol", "1e-6", "--out", str(out)]
    )
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    steps = int(printed[0].split("=")[1])
    success = float(printed[1].split("=")[1])
    assert success >= 1.0 - 1e-6
    trace_rows = out.read_text().splitlines()
    assert len(trace_rows) == steps + 2
    assert float(trace_rows[-1].split(",")[1]) == success


def test_search_unconverged_exits_2(capsys):
    rc = main(["search", "--nb", "3", "--del-lam-degs", "180", "--max-steps", "50"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err


def test_saturation_command(capsys):
    assert main(["saturation", "--gamma-degs", "164"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "j_sat = 5"
    assert out[1] == "del_gamma(degs) = 32"
    assert out[2] == "gamma_jsat(degs) = 4"
    assert out[3] == "big_gamma(degs) = 4"


def test_saturation_check_tail(capsys):
    assert main(["saturation", "--gamma-degs", "166", "--check-tail"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("tail_dev(rads) = ")
    assert float(out[-1].split("=")[1]) < 1e-9


def test_continuum_fit_rate(capsys):
    rc = main(
        [
            "continuum",
            "--gamma-degs",
            "90",
            "--del-lam-degs",
            "90",
            "--t-max",
            "80",
            "--fit-rate",
        ]
    )
    assert rc == 0
    rate = float(capsys.readouterr().out.split("=")[1])
    assert rate == pytest.approx(1.0, rel=0.02)


def test_continuum_csv_output(tmp_path):
    out = tmp_path / "flow.csv"
    rc = main(
        [
            "continuum",
            "--gamma-degs",
            "160",
            "--del-lam-degs",
            "135",
            "--t-max",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,g"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.all(np.diff(data[:, 1]) <= 1e-15)


def test_usage_errors_exit_1(capsys, tmp_path):
    cases = [
        ["bogus-command"],
        ["schedule", "--gamma-degs", "10"],
        ["schedule", "--gamma-degs", "200", "--del-lam-degs", "90"],
        ["schedule", "--gamma-degs", "90", "--del-lam-degs", "-5"],
        ["search", "--nb", "0"],
        ["saturation", "--gamma-degs", "45"],
        GOLDEN_ARGS + ["--out", str(tmp_path / "no-such-dir" / "x.txt")],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err != ""


def test_schedule_near_antipodal_start(capsys):
    # at gamma -> 180 the first phase tends to 90 + del_lam / 2 degrees
    argv = ["schedule", "--gamma-degs", "179.9997", "--del-lam-degs", "10"]
    assert main(argv + ["--num-steps", "2"]) == 0
    row_0 = capsys.readouterr().out.splitlines()[4].split("\t")
    assert row_0[0] == "0"
    assert row_0[2] == "9.5000e+01"


# the commands that take --gamma-degs below 180
GAMMA_ARGVS = [
    ["schedule", "--del-lam-degs", "90"],
    ["qubit", "--del-lam-degs", "90"],
    ["grover"],
    ["continuum", "--del-lam-degs", "90"],
]


@pytest.mark.parametrize("argv", GAMMA_ARGVS, ids=lambda argv: argv[0])
def test_antipodal_start_exits_1(capsys, argv):
    assert main(argv + ["--gamma-degs", "180"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "antipodal" in captured.err


@pytest.mark.parametrize("argv", GAMMA_ARGVS, ids=lambda argv: argv[0])
def test_start_on_target(capsys, argv):
    # schedule and qubit take --gamma-degs in [0, 180); grover and continuum
    # in (0, 180): at 0 there is nothing to amplify and no flow to follow
    code = main(argv + ["--gamma-degs", "0"])
    captured = capsys.readouterr()
    if argv[0] in ("schedule", "qubit"):
        assert code == 0 and captured.out != "" and captured.err == ""
    else:
        # the CLI answers in degrees before the library refuses gamma = 0 rad
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(
            "error: --gamma-degs must lie in (0, 180) degrees, got 0; at 0 the start is the target"
        )


@pytest.mark.parametrize(
    "command, domain",
    [("schedule", "[0, 180)"), ("qubit", "[0, 180)"), ("grover", "(0, 180)"),
     ("saturation", "(90, 180)"), ("continuum", "(0, 180)")],
)
def test_gamma_help_states_the_command_domain(capsys, command, domain):
    assert main([command, "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())  # argparse wraps lines
    assert f"--gamma-degs GAMMA_DEGS start angle from the target axis, degrees in {domain} " in (
        help_text
    )


@pytest.mark.parametrize("argv", GAMMA_ARGVS, ids=lambda argv: argv[0])
def test_gamma_domain_message_is_half_open(capsys, argv):
    # open at 180 for every command; closed at 0 where a start on the target runs
    domain = "[0, 180)" if argv[0] in ("schedule", "qubit") else "(0, 180)"
    assert main(argv + ["--gamma-degs", "200"]) == 1
    assert f"{domain} degrees, got 200" in capsys.readouterr().err


def _outside(domain: str) -> list[float]:
    """The values just outside each end of an interval written like '[0, 180)'."""
    lo, hi = map(float, domain[1:-1].split(","))
    assert domain[-1] == ")"
    return [math.nextafter(lo, -math.inf) if domain[0] == "[" else lo, hi]


@pytest.mark.parametrize("argv", GAMMA_ARGVS + [["saturation"]], ids=lambda argv: argv[0])
def test_gamma_refusal_names_the_help_domain(capsys, argv):
    assert main([argv[0], "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    domain = re.search(r"degrees in ([\[(][^\])]*[\])])", help_text).group(1)
    for x in _outside(domain):
        assert main(argv + [f"--gamma-degs={x!r}"]) == 1, x  # "=" lets -5e-324 through
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must lie in {domain} degrees, got " in captured.err


def test_del_lam_domain_message_is_closed(capsys):
    assert main(["schedule", "--gamma-degs", "90", "--del-lam-degs", "200"]) == 1
    assert "[0, 180] degrees, got 200" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["schedule", "qubit"])
def test_start_below_rounding_floor_exits_1(capsys, command):
    # the first step, 3.0e-18 rad, is below half an ulp of gamma: the table
    # would never move
    argv = [command, "--gamma-degs", "179.999999999999", "--del-lam-degs", "0.01"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "below half an ulp" in captured.err and "never moves" in captured.err


@pytest.mark.parametrize("del_lam_degs", ["0", "180"])
def test_start_below_rounding_floor_at_trap_phases_still_runs(capsys, del_lam_degs):
    argv = ["schedule", "--gamma-degs", "179.9999997", "--del-lam-degs", del_lam_degs]
    assert main(argv + ["--num-steps", "1"]) == 0


@pytest.mark.parametrize("command", ["schedule", "qubit"])
def test_start_above_rounding_floor_runs(capsys, command):
    for gamma_degs in ("179.99999", "179.9999997"):
        argv = [command, "--gamma-degs", gamma_degs, "--del-lam-degs", "90"]
        assert main(argv + ["--num-steps", "2"]) == 0
        assert capsys.readouterr().out != ""


# gamma 1e-15 to 1e-5 degrees from 0 or 180; 180 - 1e-14 and closer round to 180
EDGE_OFFSETS = [10.0**-k for k in range(5, 16)]
EDGE_STARTS = EDGE_OFFSETS + [180.0 - d for d in EDGE_OFFSETS if 180.0 - d < 180.0]


def test_cli_refuses_exactly_the_frozen_starts(capsys):
    frozen = 0
    for gamma_degs in EDGE_STARTS:
        gamma = math.radians(gamma_degs)
        for del_lam_degs in (1e-6, 0.01, 1, 10, 45, 90, 135, 179, 179.99):
            del_lam = math.radians(del_lam_degs)
            still = gamma - dbar_gamma(gamma, gamma, del_lam) == gamma
            # the first arc: its chord is 2 sin(gamma) sin(del_lam / 2)
            step = 2.0 * math.asin(math.sin(gamma) * math.sin(0.5 * del_lam))
            assert still == (step < 0.5 * math.ulp(gamma)), (gamma_degs, del_lam_degs)
            argv = ["schedule", "--gamma-degs", repr(gamma_degs)]
            argv += ["--del-lam-degs", repr(del_lam_degs), "--num-steps", "1"]
            assert main(argv) == (1 if still else 0), argv
            frozen += still
    # 160 of these 180 starts froze when the law of cosines rounded to 1
    assert len(EDGE_STARTS) == 20 and frozen == 11
    # the haversine underflows here: sin(gamma)^2 is below the least double
    assert main(["schedule", "--gamma-degs", "1e-200", "--del-lam-degs", "90"]) == 1
    capsys.readouterr()


def test_moves_at_90_degrees_whether_read_from_the_step_or_the_start():
    # at 90 degrees a first step rounds away from a start below 180 only by
    # underflowing: the refusal's test `g - step != g` reads as `step != 0.0`
    degs = [m * 10.0**-k for k in range(324) for m in (1.0, 2.5)]
    degs += [180.0 - 10.0**-k for k in range(16) if 180.0 - 10.0**-k < 180.0]
    below_180 = [180.0]
    for _ in range(40):
        below_180.append(math.nextafter(below_180[-1], 0.0))
    degs += below_180[1:]
    outcomes = set()
    for gamma_degs in degs:
        g = math.radians(gamma_degs)
        step = dbar_gamma(g, g, math.pi / 2)
        assert (step != 0.0) == (g - step != g), gamma_degs
        outcomes.add(step != 0.0)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "flag, value", [("--t-max", "inf"), ("--t-max", "nan"), ("--step-size", "nan")]
)
def test_continuum_non_finite_time_exits_1(capsys, flag, value):
    argv = ["continuum", "--gamma-degs", "90", "--del-lam-degs", "90", flag, value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--gamma-degs", "120", "--del-lam-degs", "0", "--t-max", "1"],
        ["--gamma-degs", "10", "--del-lam-degs", "0", "--t-max", "1"]
        + ["--step-size", "0.3"],
        # a DP5(4) stage of the unit step lands below g = 0: the step is halved
        ["--gamma-degs", "0.573", "--del-lam-degs", "180", "--t-max", "1.2"]
        + ["--step-size", "1"],
    ],
    ids=["still-120", "still-10-long-step", "stage-below-0"],
)
def test_continuum_edge_flows_run(capsys, argv):
    assert main(["continuum"] + argv) == 0
    rows = capsys.readouterr().out.splitlines()
    samples = [tuple(map(float, r.split(","))) for r in rows[1:]]
    gamma = math.radians(float(argv[1]))
    if argv[3] == "0":
        # the flow is stationary: its first step returns the start, so the
        # trace ends there, at its fixed point
        assert samples == [(0.0, gamma)]
        return
    g = np.array([g_k for _, g_k in samples])
    assert len(g) > 2 and g[0] == gamma
    assert np.all(g >= 0.0) and np.all(np.diff(g) <= 0.0)


@pytest.mark.parametrize("n_tail", ["0", "-3"])
def test_saturation_n_tail_below_1_exits_1(capsys, n_tail):
    argv = ["saturation", "--gamma-degs", "164", "--check-tail", "--n-tail", n_tail]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_tail" in captured.err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--del-lam-degs", "90", "--step-size", "1e-20"], "--step-size 1e-20:"),
        (["--del-lam-degs", "90", "--step-size", "1e-20", "--fit-rate"], "--step-size 1e-20:"),
        (["--del-lam-degs", "90", "--step-size", "1e-17"], "--step-size 1e-17:"),
        (["--del-lam-degs", "90", "--t-max", "1e-17"], "--t-max 1e-17:"),
        (["--del-lam-degs", "1e-13"], "--step-size 0.01:"),
    ],
    ids=["tiny-step", "tiny-step-fit", "step-1e-17", "tiny-t-max", "tiny-del-lam"],
)
def test_continuum_start_that_never_moves_exits_1(capsys, argv, named):
    # the start slope is nonzero, so the step that times it is what is too small
    assert main(["continuum", "--gamma-degs", "90"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {named}" in captured.err
    assert "below half an ulp" in captured.err and "never moves" in captured.err


@pytest.mark.parametrize("gamma_degs", ["1e-200", "1e-170"])
def test_continuum_underflowed_start_exits_1(capsys, gamma_degs):
    # the first slope underflows to 0, yet at del_lam > 0 the true one is not
    assert main(["continuum", "--gamma-degs", gamma_degs, "--del-lam-degs", "90"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --gamma-degs {float(gamma_degs)!r}:" in captured.err
    assert "never moves" in captured.err


@pytest.mark.parametrize("command", ["schedule", "qubit", "continuum"])
@pytest.mark.parametrize(
    "gamma_degs, del_lam_degs, named",
    [
        # each start moves at a 90-degree phase, so --del-lam-degs holds it
        ("90", "1e-300", "--del-lam-degs 1e-300:"),
        ("90", "1e-15", "--del-lam-degs 1e-15:"),
        ("1e-200", "90", "--gamma-degs 1e-200:"),
    ],
)
def test_stalled_start_names_the_flag_that_stalls_it(
    capsys, command, gamma_degs, del_lam_degs, named
):
    if command == "continuum" and del_lam_degs == "1e-15":
        named = "--step-size 0.01:"  # the start slope is nonzero; the step is too small
    assert main([command, "--gamma-degs", gamma_degs, "--del-lam-degs", del_lam_degs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named}") and "never moves" in captured.err


@pytest.mark.parametrize("del_lam_degs", ["1e-15", "1e-300"])
@pytest.mark.parametrize("extra", [[], ["--max-steps", "5"]], ids=["predicted", "max-steps"])
def test_search_start_that_never_moves_exits_1(capsys, monkeypatch, del_lam_degs, extra):
    # refused before the step prediction and the amplitudes, not run to exit 2
    monkeypatch.setattr(afga.cli, "run_afga_search", lambda *a, **k: pytest.fail())
    assert main(["search", "--nb", "6", "--del-lam-degs", del_lam_degs] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --del-lam-degs {del_lam_degs}:")
    assert "never moves" in captured.err


def test_search_at_del_lam_0_still_exits_2(capsys):
    # the start never moves here either, but the trap phases keep their exit 2
    assert main(["search", "--nb", "6", "--del-lam-degs", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cycles" in captured.err


@pytest.mark.parametrize("t_max", ["60", "1000"])
def test_continuum_fit_at_del_lam_0_exits_1_before_integrating(capsys, monkeypatch, t_max):
    # the flow is stationary at del_lam = 0, so no t_max gives it a tail
    monkeypatch.setattr(afga.cli, "integrate_continuum", lambda *a, **k: pytest.fail())
    argv = ["continuum", "--gamma-degs", "90", "--del-lam-degs", "0", "--t-max", t_max]
    assert main(argv + ["--fit-rate"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--del-lam-degs above 0" in captured.err and "stationary" in captured.err


def test_continuum_slow_flow_fit_exits_1_at_once(capsys):
    # rate 1 - cos(0.001 degrees) = 1.5e-10: by t = 20000 the flow has not
    # reached the fit window, and the trace takes 101 samples, not the cap
    argv = ["continuum", "--gamma-degs", "90", "--del-lam-degs", "0.001", "--t-max", "20000"]
    assert main(argv + ["--fit-rate"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: tail window holds fewer than 2 samples; integrate to larger t_max\n"
    )


def test_continuum_small_del_lam_runs(capsys):
    argv = ["continuum", "--gamma-degs", "90", "--del-lam-degs", "1e-9", "--t-max", "1"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) > 2


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--gamma-degs", "90", "--del-lam-degs", "90", "--num-steps", "1000001"],
        ["qubit", "--gamma-degs", "90", "--del-lam-degs", "90", "--num-steps", "1000001"],
        ["grover", "--gamma-degs", "90", "--num-steps", "1000001"],
        ["saturation", "--gamma-degs", "179.99999", "--check-tail"],
        ["saturation", "--gamma-degs", "179.99999999", "--check-tail"],
        # the default step prediction walks the whole cap, about 0.5 s
        ["search", "--nb", "10", "--del-lam-degs", "0.5", "--tol", "1e-10"],
    ],
    ids=["schedule", "qubit", "grover", "saturation", "saturation-far", "search"],
)
def test_runs_past_the_step_cap_exit_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1000000" in captured.err
    if argv[0] == "saturation":
        # the user passed no step count: the message names the landing step
        assert "j_sat" in captured.err and "num_steps" not in captured.err
    if argv[0] == "search":
        want = "|gamma_j| did not fall below 2.0000000000333336e-05 within the 1000000-step cap"
        assert captured.err == f"error: {want}\n"


def test_saturation_tail_past_the_cap_names_n_tail(capsys):
    # j_sat = 5 lands in 8 steps: the requested tail alone overruns the cap
    argv = ["saturation", "--gamma-degs", "164", "--check-tail", "--n-tail", "2000000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_tail = 2000000 runs past the 1000000-step cap\n"


@pytest.mark.parametrize(
    "gamma_degs, landing",
    [("172.8", ["12", "14.4", "0", "0"]), ("169.15", ["7", "21.7", "17.25", "4.45"])],
)
def test_saturation_reads_the_typed_degrees_exactly(capsys, gamma_degs, landing):
    # 172.8 as a float is 172.80000000000001: read as text it lands exactly on 0
    assert main(["saturation", "--gamma-degs", gamma_degs]) == 0
    keys = ["j_sat", "del_gamma(degs)", "gamma_jsat(degs)", "big_gamma(degs)"]
    assert capsys.readouterr().out.splitlines() == [f"{k} = {v}" for k, v in zip(keys, landing)]


def test_saturation_n_tail_below_1_exits_1_without_check_tail(capsys):
    assert main(["saturation", "--gamma-degs", "100", "--n-tail", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_tail" in captured.err


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan"])
def test_saturation_non_finite_angle_exits_1(capsys, value):
    assert main(["saturation", f"--gamma-degs={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(90, 180) degrees" in captured.err


def test_convergence_errors_exit_2(capsys):
    # default max_steps derivation diverges in the del_lam = pi trap
    rc = main(["search", "--nb", "4", "--del-lam-degs", "180"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_exception_classes_carry_the_exit_code():
    # main maps ValueError to 1 and ArithmeticError to 2
    assert issubclass(UsageError, ValueError)
    assert issubclass(ConvergenceError, ArithmeticError)
    assert issubclass(ConvergenceError, RuntimeError)  # so `except RuntimeError` still catches it
    assert not issubclass(UsageError, ArithmeticError)
    assert not issubclass(ConvergenceError, ValueError)


def _raises(node, func=None):
    """(enclosing function name, Raise node) for every raise statement under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield func, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _raises(child, inner)


def test_every_raise_maps_to_an_exit_code():
    # main catches ValueError (exit 1) and ArithmeticError (exit 2); any other
    # class would escape it as a traceback
    src = Path(afga.cli.__file__).parent
    checked = 0
    for path in sorted(src.glob("*.py")):
        module = importlib.import_module(f"afga.{path.stem}" if path.stem != "__init__" else "afga")
        for func, node in _raises(ast.parse(path.read_text())):
            where = f"{path.name}:{node.lineno}"
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            assert isinstance(exc, ast.Name), f"{where}: raises no named class"
            cls = getattr(module, exc.id, None) or getattr(builtins, exc.id)
            if (func, cls) == ("__getattr__", AttributeError):
                continue  # the import protocol's lookup miss, never raised by a command
            assert issubclass(cls, (ValueError, ArithmeticError)), f"{where}: {exc.id}"
            checked += 1
    assert checked  # the walk found the raises


def test_saturation_tail_that_fails_to_alternate_exits_2(capsys, monkeypatch):
    def stuck(gamma, *_):  # a walk that never leaves its start: the tail never changes sign
        return iter(lambda: (gamma, 0.0), None)

    monkeypatch.setattr(afga.asymptotics, "_walk", stuck)
    assert main(["saturation", "--gamma-degs", "164", "--check-tail"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tail failed to alternate at gamma = 164 degrees\n"


def test_continuum_positive_slope_exits_2(capsys, monkeypatch):
    # mu = -1 puts the start slope gamma - g - mu at +1
    monkeypatch.setattr(afga.asymptotics, "mu_of_g", lambda *args: -1.0)
    assert main(["continuum", "--gamma-degs", "90", "--del-lam-degs", "90"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: positive slope at g = 1.5707963267948966; flow must decay\n"


def test_continuum_step_size_underflow_exits_2(capsys, monkeypatch):
    # the start slope is real, and every later stage leaves the flow's domain
    real, calls = afga.asymptotics.mu_of_g, []

    def start_slope_only(*args):
        calls.append(args)
        if len(calls) > 1:
            raise ValueError("stage outside [0, gamma]")
        return real(*args)

    monkeypatch.setattr(afga.asymptotics, "mu_of_g", start_slope_only)
    assert main(["continuum", "--gamma-degs", "90", "--del-lam-degs", "90"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: step size underflow at t = 0.0: local error stayed above 1e-13\n"
    assert len(calls) == 1 + afga.asymptotics._MAX_TRIALS  # one refused stage per trial


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "schedule" in capsys.readouterr().out


def test_console_script_installed():
    # runs afga.cli as `python -m` does, on this checkout's src
    code = "import runpy; runpy.run_module('afga.cli', run_name='__main__', alter_sys=True)"
    proc = run_python(code, "saturation", "--gamma-degs", "160")
    assert proc.stdout.splitlines()[0] == "j_sat = 4"


def test_search_tol_below_the_floor_exits_1(capsys):
    # 1 - 1e-15 lies below the rounding floor of the amplitudes: refused, not run
    assert main(["search", "--nb", "6", "--del-lam-degs", "90", "--tol", "1e-15"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tol must lie in [1e-10, 1)" in captured.err


def test_search_max_steps_past_the_cap_exits_1_at_once():
    # without the cap this run would take a billion steps, in a subprocess
    # whose timeout turns that hang into a failure
    proc = run_python(
        "import time\n"
        "from afga.cli import main\n"
        "start = time.perf_counter()\n"
        "rc = main(['search', '--nb', '4', '--del-lam-degs', '180', "
        "'--max-steps', '1000000000'])\n"
        "print(rc, time.perf_counter() - start)\n"
    )
    rc, elapsed = proc.stdout.split()
    assert rc == "1"
    assert float(elapsed) < 1.0
    assert "max_steps must lie in [0, 1000000]" in proc.stderr


def test_continuum_out_and_fit_rate_combinations(capsys, tmp_path):
    # the trace goes to --out, else to stdout unless --fit-rate replaces it
    argv = ["continuum", "--gamma-degs", "90", "--del-lam-degs", "90", "--t-max", "80"]
    assert main(argv) == 0
    trace = capsys.readouterr().out
    assert trace.startswith("t,g\n")
    assert main(argv + ["--fit-rate"]) == 0
    rate = capsys.readouterr().out
    assert rate.startswith("tail_rate = ") and rate.count("\n") == 1
    out = tmp_path / "flow.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == "" and out.read_text() == trace
    out.unlink()
    assert main(argv + ["--out", str(out), "--fit-rate"]) == 0
    assert capsys.readouterr().out == rate and out.read_text() == trace
    assert main(argv + ["--out", "-", "--fit-rate"]) == 0
    assert capsys.readouterr().out == trace + rate


def test_continuum_past_the_step_cap_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(afga.asymptotics, "MAX_SCHEDULE_STEPS", 100)
    argv = ["continuum", "--gamma-degs", "90", "--del-lam-degs", "90", "--t-max", "80"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "runs past the 100-step cap" in captured.err


def test_saturation_refusal_names_the_flag(capsys):
    assert main(["saturation", "--gamma-degs", "45"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --gamma-degs must lie in (90, 180) degrees, got 45\n"


@pytest.mark.parametrize("command", ["schedule", "continuum"])
def test_underflowed_start_message_names_the_underflow(capsys, command):
    assert main([command, "--gamma-degs", "1e-200", "--del-lam-degs", "90"]) == 1
    assert "underflows to 0" in capsys.readouterr().err
