"""Command-line behavior: outputs, determinism, exit codes."""

import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from afga.cli import main
from afga.formats import parse_afga_txt
from afga.schedule import dbar_gamma
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
    elif argv[0] == "grover":
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: gamma")
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
    assert main(argv + ["--gamma-degs", "200"]) == 1
    assert "[0, 180) degrees, got 200" in capsys.readouterr().err


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
    "argv",
    [
        ["--del-lam-degs", "90", "--step-size", "1e-20"],
        ["--del-lam-degs", "90", "--step-size", "1e-20", "--fit-rate"],
        ["--del-lam-degs", "1e-13"],
    ],
    ids=["tiny-step", "tiny-step-fit", "tiny-del-lam"],
)
def test_continuum_start_that_never_moves_exits_1(capsys, argv):
    assert main(["continuum", "--gamma-degs", "90"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "below half an ulp" in captured.err and "never moves" in captured.err


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
    ],
    ids=["schedule", "qubit", "grover", "saturation", "saturation-far"],
)
def test_runs_past_the_step_cap_exit_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1000000" in captured.err
    if argv[0] == "saturation":
        # the user passed no step count: the message names the landing step
        assert "j_sat" in captured.err and "num_steps" not in captured.err


def test_saturation_tail_past_the_cap_names_n_tail(capsys):
    # j_sat = 5 lands in 8 steps: the requested tail alone overruns the cap
    argv = ["saturation", "--gamma-degs", "164", "--check-tail", "--n-tail", "2000000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_tail = 2000000 runs past the 1000000-step cap\n"


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


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "schedule" in capsys.readouterr().out


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "afga.cli", "saturation", "--gamma-degs", "160"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
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
