"""The benchmark tracer patches afga attributes by name; they must exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PATCHES


def _defined_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_patched_attribute_resolves():
    patches = _patches()
    assert patches
    for module_name, attr, *_ in patches:
        if module_name.startswith("afga."):
            module = importlib.import_module(module_name)
            assert hasattr(module, attr), f"{module_name}.{attr}"
        else:
            # the benchmark's own modules: checked by parsing, not importing
            assert attr in _defined_names(BENCH / f"{module_name}.py"), attr
