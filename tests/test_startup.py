"""Start-up: a CLI process imports only what it runs.  numpy loads only
where a search allocates its amplitudes, afga.bloch alone imports it at
module level, reading a qubit trace loads none, and fractions loads only
for a saturation analysis."""

import ast
import json

import afga
from afga import search_sim
from helpers import SRC, run_python

SCALAR_COMMANDS = [
    ["schedule", "--gamma-degs", "173.15", "--del-lam-degs", "135", "--num-steps", "20"],
    ["schedule", "--gamma-degs", "173.15", "--del-lam-degs", "135", "--format", "csv"],
    ["qubit", "--gamma-degs", "169.15", "--del-lam-degs", "135", "--num-steps", "20"],
    ["grover", "--gamma-degs", "160", "--num-steps", "20"],
    ["saturation", "--gamma-degs", "164", "--check-tail"],
    ["continuum", "--gamma-degs", "90", "--del-lam-degs", "90", "--t-max", "80", "--fit-rate"],
    # no --fit-rate: the trace CSV goes to stdout
    ["continuum", "--gamma-degs", "90", "--del-lam-degs", "90", "--t-max", "80"],
]
# the del_lam = 180 trap: refused (exit 2) before the amplitudes are allocated
REFUSED_SEARCH = ["search", "--nb", "6", "--del-lam-degs", "180"]

# argv: "block" or "allow", then the commands as JSON; prints
# [exit code, stdout, stderr] for each
_RUN_COMMANDS = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from afga.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_import_cli_loads_no_numpy():
    proc = run_python("import sys, afga.cli; print('numpy' in sys.modules)")
    assert proc.stdout == "False\n"


def test_import_cli_loads_no_dataclasses_or_fractions():
    # dataclasses pulls in inspect, ast and dis; the records are NamedTuples
    heavy = ["dataclasses", "inspect", "fractions"]
    proc = run_python(f"import sys, afga.cli; print([m for m in {heavy} if m in sys.modules])")
    assert proc.stdout == "[]\n"


def test_qubit_traces_read_with_numpy_blocked():
    proc = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None  # every import of numpy now raises ImportError\n"
        "from afga import AfgaParams, run_afga_qubit, run_grover_qubit\n"
        "from afga.formats import err_trace_csv\n"
        "for trace in (run_afga_qubit(AfgaParams(2.0, 1.5, 20)), run_grover_qubit(2.0, 20)):\n"
        "    values = [*trace.err, *trace.s_fin_z, trace.final_err]\n"
        "    lines = err_trace_csv(trace).splitlines()\n"
        "    print(len(trace), len(values), {type(v).__name__ for v in values}, len(lines))\n"
    )
    assert proc.stdout == "21 43 {'float'} 22\n" * 2


def test_scalar_commands_run_with_numpy_blocked():
    commands = SCALAR_COMMANDS + [REFUSED_SEARCH]
    blocked = json.loads(run_python(_RUN_COMMANDS, "block", json.dumps(commands)).stdout)
    allowed = json.loads(run_python(_RUN_COMMANDS, "allow", json.dumps(commands)).stdout)
    assert len(blocked) == len(allowed) == len(commands)
    for argv, (code, out, err), want in zip(commands, blocked, allowed):
        if argv is REFUSED_SEARCH:
            assert code == 2 and out == "" and "cycles" in err, argv
        else:
            assert code == 0 and out and err == "", argv
        assert [code, out, err] == want, argv


def _eager_imports(nodes):
    """Modules imported while a module loads: outside functions and
    `if TYPE_CHECKING:` blocks."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            yield from _eager_imports(node.orelse)
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        else:
            yield from _eager_imports(ast.iter_child_nodes(node))


def test_only_bloch_imports_numpy_at_module_level():
    eager = {
        path.stem
        for path in (SRC / "afga").glob("*.py")
        if any(
            name.split(".")[0] == "numpy"
            for name in _eager_imports(ast.parse(path.read_text()).body)
        )
    }
    assert eager == {"bloch"}


def test_search_names_resolve_on_afga():
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
