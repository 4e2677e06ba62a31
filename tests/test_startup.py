"""Start-up: only the commands that hold arrays (search, continuum) load numpy."""

import json

import afga
from afga import search_sim
from helpers import run_python

SCALAR_COMMANDS = [
    ["schedule", "--gamma-degs", "173.15", "--del-lam-degs", "135", "--num-steps", "20"],
    ["schedule", "--gamma-degs", "173.15", "--del-lam-degs", "135", "--format", "csv"],
    ["qubit", "--gamma-degs", "169.15", "--del-lam-degs", "135", "--num-steps", "20"],
    ["grover", "--gamma-degs", "160", "--num-steps", "20"],
    ["saturation", "--gamma-degs", "164", "--check-tail"],
]

# argv: "block" or "allow", then the commands as JSON; prints [exit code, stdout] each
_RUN_COMMANDS = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from afga.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_import_cli_loads_no_numpy():
    proc = run_python("import sys, afga.cli; print('numpy' in sys.modules)")
    assert proc.stdout == "False\n"


def test_scalar_commands_run_with_numpy_blocked():
    commands = json.dumps(SCALAR_COMMANDS)
    blocked = json.loads(run_python(_RUN_COMMANDS, "block", commands).stdout)
    allowed = json.loads(run_python(_RUN_COMMANDS, "allow", commands).stdout)
    for argv, (code, out), want in zip(SCALAR_COMMANDS, blocked, allowed):
        assert code == 0, argv
        assert out, argv
        assert [code, out] == want, argv


def test_search_names_resolve_lazily():
    for name in search_sim.__all__:
        if name != "MAX_NB":
            assert getattr(afga, name) is getattr(search_sim, name)
    assert afga.__all__ == [
        "AfgaParams",
        "ScheduleRow",
        "ConvergenceError",
        "arc_rj_sprime",
        "dbar_gamma",
        "alpha",
        "iter_angles",
        "build_schedule",
        "steps_to_tolerance",
        "ErrTrace",
        "run_afga_qubit",
        "run_grover_qubit",
        "SearchState",
        "SearchTrace",
        "init_uniform",
        "apply_target_phase",
        "apply_sprime_phase",
        "run_afga_search",
        "SaturationReport",
        "ContinuumTrace",
        "saturation_analysis",
        "verify_saturation",
        "mu_of_g",
        "integrate_continuum",
        "fit_tail_rate",
        "__version__",
    ]
    namespace = {}
    exec("from afga import *", namespace)
    assert set(afga.__all__) <= set(namespace)
