"""The four workloads: seeded inputs, one op each, and the per-op check.

Every op calls afga through module attributes (``S.build_schedule``, not a
name bound at import), so a Tracer that patches those attributes sees the
call.  Inputs come only from the seed.  The sweep, search and continuum
inputs follow a Kronecker low-discrepancy sequence with seeded offsets, so
any prefix of a run covers the input range evenly and a run's median does
not hinge on a few unlucky draws.

Why each workload exists, and what it should move, is in READING.md.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import afga.asymptotics as A
import afga.formats as F
import afga.qubit_sim as Q
import afga.schedule as S
import afga.search_sim as SS

import machine
import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden_afga.txt"
OUT = ROOT / "perfbench" / "out"
WORK = OUT / "work"

CHILD_TIMEOUT_S = 60.0  # a CLI command that runs longer is killed

SWEEP_STEPS = 20
SWEEP_TOL = 1e-9
SEARCH_TOL = 1e-6
SEARCH_NB = 18
PROBE_NB = 22
PROBE_STEPS = 20
# verify_saturation and the continuum transit both cost ~1/(180 - gamma);
# above 160 degrees an op leaves the 0.03-0.25 s band and the fitted rate
# drifts towards the 1e-3 check
CONTINUUM_GAMMA_DEGS = (91.0, 160.0)


def kronecker(rng: random.Random, n: int, dims: int) -> list[list[float]]:
    """n points of the R_d sequence in [0, 1)^dims with seeded offsets."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    steps = [phi ** -(i + 1) for i in range(dims)]
    offsets = [rng.random() for _ in range(dims)]
    return [[(o + k * a) % 1.0 for o, a in zip(offsets, steps)] for k in range(n)]


# --- sweep: many small problems ------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    gamma: float
    del_lam: float
    nb: int
    target_index: int


def sweep_inputs(seed: int, n: int = 8192) -> list[SweepPoint]:
    rng = random.Random(f"sweep-{seed}")
    points = []
    for u_g, u_d, u_n in kronecker(rng, n, 3):
        nb = 6 + int(7 * u_n)
        points.append(
            SweepPoint(
                math.radians(90.0 + 89.5 * u_g),
                math.radians(15.0 + 150.0 * u_d),
                nb,
                rng.randrange(2**nb),
            )
        )
    return points


def sweep_op(p: SweepPoint) -> dict[str, Any]:
    params = S.AfgaParams(p.gamma, p.del_lam, SWEEP_STEPS)
    rows = S.build_schedule(params)
    qubit = Q.run_afga_qubit(params)
    return {
        "rows": rows,
        "txt": F.emit_afga_txt(rows, params),
        "csv": F.schedule_csv(rows),
        "qubit": qubit,
        "qubit_csv": F.err_trace_csv(qubit),
        "grover": Q.run_grover_qubit(p.gamma, SWEEP_STEPS),
        "tol_steps": S.steps_to_tolerance(p.gamma, p.del_lam, SWEEP_TOL),
        "search": SS.run_afga_search(
            p.nb, target_index=p.target_index, del_lam=p.del_lam, tol=SEARCH_TOL
        ),
    }


def sweep_check(p: SweepPoint, res: dict[str, Any]) -> list[str]:
    table = oracles.schedule_table(p.gamma, p.del_lam, SWEEP_STEPS)
    gammas = [row[1] for row in table]
    problems = oracles.close_problems(
        [math.degrees(row.gamma_j) for row in res["rows"]], gammas, "gamma_j(degs)"
    )
    problems += oracles.close_problems(
        res["qubit"].err,
        [math.sin(0.5 * math.radians(g)) ** 2 for g in gammas],
        "qubit err",
    )
    problems += oracles.close_problems(
        res["grover"].err,
        [oracles.grover_err(p.gamma, k) for k in range(SWEEP_STEPS + 1)],
        "grover err",
    )
    parsed = F.parse_afga_txt(res["txt"])
    problems += oracles.printed_digit_problems(parsed.data.tolist(), table, "afga-txt")
    for key, lines in (("csv", SWEEP_STEPS + 2), ("qubit_csv", SWEEP_STEPS + 2)):
        if res[key].count("\n") != lines:
            problems.append(f"{key}: {res[key].count(chr(10))} lines, expected {lines}")
    search = res["search"]
    if not (search.converged and search.final_success >= 1.0 - SEARCH_TOL):
        problems.append(f"search nb={p.nb}: success {search.final_success!r} not converged")
    return problems


# --- search: one big problem ---------------------------------------------


@dataclass(frozen=True)
class SearchPoint:
    nb: int
    del_lam: float
    target_index: int


def search_inputs(seed: int, n: int = 256) -> list[SearchPoint]:
    rng = random.Random(f"search-{seed}")
    return [
        SearchPoint(SEARCH_NB, math.radians(90.0 + 60.0 * u), rng.randrange(2**SEARCH_NB))
        for (u,) in kronecker(rng, n, 1)
    ]


def search_op(p: SearchPoint):
    return SS.run_afga_search(
        p.nb, target_index=p.target_index, del_lam=p.del_lam, tol=SEARCH_TOL
    )


def search_check(p: SearchPoint, trace) -> list[str]:
    problems = []
    if not (trace.converged and trace.final_success >= 1.0 - SEARCH_TOL):
        problems.append(f"success {trace.final_success!r} below 1 - {SEARCH_TOL:g}")
    want = oracles.search_success(p.nb, p.del_lam, trace.steps)
    return problems + oracles.close_problems(trace.success, want, "success trace")


# --- continuum: the RK4 flow and the del_lam = pi trap ---------------------


@dataclass(frozen=True)
class ContinuumPoint:
    gamma_degs: str
    del_lam: float
    t_max: float


def continuum_inputs(seed: int, n: int = 1024) -> list[ContinuumPoint]:
    rng = random.Random(f"continuum-{seed}")
    lo, hi = CONTINUUM_GAMMA_DEGS
    points = []
    for u_g, u_d in kronecker(rng, n, 2):
        gamma_degs = f"{lo + (hi - lo) * u_g:.2f}"
        del_lam = math.radians(45.0 + 90.0 * u_d)
        gamma = math.radians(float(gamma_degs))
        # transit from gamma takes ~pi / (pi - gamma) units of rate * t, and
        # the fit window (1e-8, 1e-2) another ln(1e6) = 13.8 of them
        t_max = (math.pi / (math.pi - gamma) + 18.0) / (1.0 - math.cos(del_lam))
        points.append(ContinuumPoint(gamma_degs, del_lam, t_max))
    return points


def continuum_op(p: ContinuumPoint) -> dict[str, Any]:
    trace = A.integrate_continuum(math.radians(float(p.gamma_degs)), p.del_lam, p.t_max)
    return {
        "g": trace.g,
        "rate": A.fit_tail_rate(trace),
        "report": A.saturation_analysis(p.gamma_degs),
        "tail_dev": A.verify_saturation(p.gamma_degs),
    }


def continuum_check(p: ContinuumPoint, res: dict[str, Any]) -> list[str]:
    problems = []
    want = 1.0 - math.cos(p.del_lam)
    if abs(res["rate"] - want) > oracles.RATE_REL_TOL * want:
        problems.append(f"tail rate {res['rate']!r} vs 1 - cos(del_lam) = {want!r}")
    if np.any(np.diff(res["g"]) > 0.0):
        problems.append("continuum flow increased")
    rep = res["report"]
    got = (rep.j_sat, rep.del_gamma_degs, rep.gamma_jsat_degs, rep.big_gamma_degs)
    if got != oracles.saturation_landing(p.gamma_degs):
        problems.append(f"saturation landing {got} at gamma = {p.gamma_degs}")
    if not res["tail_dev"] < oracles.SATURATION_TOL:
        problems.append(f"saturation tail deviation {res['tail_dev']!r}")
    return problems


# --- cli: the README commands as fresh processes ---------------------------


@dataclass(frozen=True)
class CliResult:
    name: str
    returncode: int
    stdout: str
    stderr: str
    maxrss_mib: float


@dataclass(frozen=True)
class CliCommand:
    name: str
    argv: tuple[str, ...]
    out: str | None = None  # file the command writes, relative to WORK


def child_env() -> dict[str, str]:
    """The benchmark's own environment (BLAS pinned by run.py) with src/ on the path."""
    return dict(os.environ, PYTHONPATH=str(SRC))


class Launcher:
    """The small helper process that starts each CLI command; see launch.py."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )

    def run(self, argv: tuple[str, ...]) -> tuple[int, float]:
        """Run argv to completion; its exit code and peak RSS in MiB."""
        request = {
            "argv": list(argv),
            "cwd": str(ROOT),
            "stdout": str(WORK / "stdout"),
            "stderr": str(WORK / "stderr"),
            "timeout": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        reply = json.loads(line)
        return reply["returncode"], reply["maxrss_kib"] / 1024.0

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stdout.close()


_launcher: Launcher | None = None


def close_launcher() -> None:
    """Stop the launcher, if one was started; the benchmark calls this on exit."""
    global _launcher
    if _launcher is not None:
        _launcher.close()
        _launcher = None


def run_cli(cmd: CliCommand) -> CliResult:
    """Run one command as a fresh interpreter, started by the launcher."""
    global _launcher
    if _launcher is None:
        WORK.mkdir(parents=True, exist_ok=True)
        _launcher = Launcher()
    returncode, maxrss_mib = _launcher.run(cmd.argv)
    return CliResult(
        cmd.name,
        returncode,
        (WORK / "stdout").read_text(),
        (WORK / "stderr").read_text(),
        maxrss_mib,
    )


def _afga(name: str, *args: str, out: str | None = None) -> CliCommand:
    argv = [sys.executable, "-m", "afga.cli", *args]
    if out is not None:
        argv += ["--out", str(WORK / out)]
    return CliCommand(name, tuple(argv), out)


PYTHON_START = CliCommand("python_start", (sys.executable, "-c", "pass"))
# the speed probe of process start-up (CLI commands, set-up): the same kind
# of work, with no afga code in it
NUMPY_START = CliCommand("numpy_start", (sys.executable, "-c", "import numpy"))
NUMPY_START_NOMINAL_S = 0.15
IMPORT_AFGA = CliCommand("import_afga", (sys.executable, "-c", "import afga"))
CLI_WARMUP = _afga("grover", "grover", "--gamma-degs", "160", "--num-steps", "20")


def cli_inputs(seed: int) -> list[CliCommand]:
    """One cycle of the README commands plus the known-bad search at
    del_lam = 180 with no --max-steps.

    The seed picks the README sweep's del_lam for `qubit`, the search
    target and where the cycle starts.
    """
    rng = random.Random(f"cli-{seed}")
    schedule = ("--gamma-degs", "173.15", "--del-lam-degs", "135")
    cycle = [
        _afga("schedule", "schedule", *schedule, "--num-steps", "20"),
        _afga("schedule_csv", "schedule", *schedule, "--format", "csv", out="schedule.csv"),
        _afga(
            "qubit",
            "qubit", "--gamma-degs", "169.15", "--del-lam-degs", rng.choice(("45", "90", "135")),
            "--num-steps", "20", out="err.csv",
        ),
        _afga("grover", "grover", "--gamma-degs", "160", "--num-steps", "20", out="grover.csv"),
        _afga(
            "search", "search", "--nb", "6", "--del-lam-degs", "90", "--tol", "1e-6",
            "--target-index", str(rng.randrange(64)),
        ),
        _afga("saturation", "saturation", "--gamma-degs", "164", "--check-tail"),
        _afga(
            "continuum", "continuum", "--gamma-degs", "90", "--del-lam-degs", "90",
            "--t-max", "80", "--fit-rate",
        ),
        _afga("bad_del_lam", "search", "--nb", "6", "--del-lam-degs", "180"),
    ]
    start = rng.randrange(len(cycle))
    return cycle[start:] + cycle[:start]


def cli_op(cmd: CliCommand) -> CliResult:
    # looks run_cli up at call time, so that a Tracer's wrapper sees the call
    return run_cli(cmd)


def _flag(cmd: CliCommand, flag: str) -> str:
    return cmd.argv[cmd.argv.index(flag) + 1]


def _csv_column(text: str, col: int) -> list[float]:
    return [float(line.split(",")[col]) for line in text.splitlines()[1:]]


def _key_values(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def cli_check(cmd: CliCommand, res: CliResult) -> list[str]:
    if cmd.name == "bad_del_lam":
        if res.returncode not in (1, 2):
            return [f"bad_del_lam exited {res.returncode}, expected 1 or 2"]
        if not any(ln.startswith("error:") for ln in res.stderr.splitlines()):
            return ["bad_del_lam printed no error: line"]
        return []
    if res.returncode != 0:
        return [f"{cmd.name} exited {res.returncode}: {res.stderr.strip()[-200:]}"]
    out = (WORK / cmd.out).read_text() if cmd.out else res.stdout
    values = _key_values(out)
    if cmd.name == "schedule":
        ours_head, ours = oracles.parse_table(out)
        ref_head, ref = oracles.parse_table(GOLDEN.read_text())
        head = [] if ours_head == ref_head else [f"schedule header {ours_head}"]
        return head + oracles.printed_digit_problems(ours, ref, "schedule vs golden")
    if cmd.name == "schedule_csv":
        gammas = _csv_column(out, 1)
        want = oracles.schedule_table(math.radians(173.15), math.radians(135), 20)
        return oracles.close_problems(gammas, [row[1] for row in want], "csv gam_j_degs")
    if cmd.name == "qubit":
        gamma = math.radians(float(_flag(cmd, "--gamma-degs")))
        del_lam = math.radians(float(_flag(cmd, "--del-lam-degs")))
        angles = oracles.schedule_angles(gamma, del_lam, 21)
        want = [math.sin(0.5 * g) ** 2 for g, _ in angles]
        return oracles.close_problems(_csv_column(out, 1), want, "qubit err.csv")
    if cmd.name == "grover":
        gamma = math.radians(float(_flag(cmd, "--gamma-degs")))
        want = [oracles.grover_err(gamma, k) for k in range(21)]
        return oracles.close_problems(_csv_column(out, 1), want, "grover.csv")
    if cmd.name == "search":
        if float(values.get("success", "nan")) >= 1.0 - 1e-6:
            return []
        return [f"search success {values.get('success')}"]
    if cmd.name == "saturation":
        j_sat, del_gamma, gamma_jsat, big = oracles.saturation_landing(_flag(cmd, "--gamma-degs"))
        got = [values.get(k) for k in ("j_sat", "del_gamma(degs)", "gamma_jsat(degs)", "big_gamma(degs)")]
        want = [j_sat, del_gamma, gamma_jsat, big]
        problems = [
            f"saturation {g} != {w}" for g, w in zip(got, want) if g is None or float(g) != float(w)
        ]
        if not float(values.get("tail_dev(rads)", "inf")) < oracles.SATURATION_TOL:
            problems.append(f"saturation tail_dev {values.get('tail_dev(rads)')}")
        return problems
    if cmd.name == "continuum":
        rate = float(values.get("tail_rate", "nan"))
        return [] if abs(rate - 1.0) <= oracles.RATE_REL_TOL else [f"continuum tail_rate {rate}"]
    return [f"no check for {cmd.name}"]


# --- registry --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], list]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    warmup: Callable[[], Any]  # one fixed op, not seeded, so set-up time is comparable
    whole_cycles: bool = False  # stop only at the end of a pass over the inputs
    round_ops: int = 1  # ops of this workload in every traced run's fixed round
    speed: machine.SpeedProbe | None = None  # run after each op; see machine.SpeedProbe


WORKLOADS = {
    "sweep": Workload(
        sweep_inputs,
        sweep_op,
        sweep_check,
        lambda: sweep_op(SweepPoint(math.radians(150.0), math.radians(90.0), 8, 3)),
        round_ops=20,
        speed=machine.interpreter_probe(),
    ),
    "search": Workload(
        search_inputs,
        search_op,
        search_check,
        lambda: SS.run_afga_search(SEARCH_NB, del_lam=math.pi / 2, max_steps=5),
        speed=machine.memory_probe(),
    ),
    "continuum": Workload(
        continuum_inputs,
        continuum_op,
        continuum_check,
        lambda: continuum_op(ContinuumPoint("120.00", math.radians(135.0), 14.0)),
        round_ops=2,
        speed=machine.interpreter_probe(),
    ),
    "cli": Workload(
        cli_inputs,
        cli_op,
        cli_check,
        lambda: run_cli(CLI_WARMUP),
        whole_cycles=True,
        round_ops=8,
        speed=machine.SpeedProbe(lambda: run_cli(NUMPY_START), NUMPY_START_NOMINAL_S, repeats=1),
    ),
}


def probe_nb22(seed: int):
    """20 steps at nb = 22 (64 MiB per vector); a full search there takes minutes."""
    rng = random.Random(f"nb22-{seed}")
    return SS.run_afga_search(
        PROBE_NB,
        target_index=rng.randrange(2**PROBE_NB),
        del_lam=math.radians(90.0 + 60.0 * rng.random()),
        max_steps=PROBE_STEPS,
    )
