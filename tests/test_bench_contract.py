"""The benchmark tracer patches afga attributes by name; they must exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "afga"


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


def _imports(tree: ast.Module) -> dict[str, str]:
    """Each name a top-level import binds -> the module it comes from."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = "." * node.level + (node.module or "")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = alias.name
    return names


def _read_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield f"afga.{path.stem}", ast.parse(path.read_text())


def test_unread_imports_are_tracer_patch_targets():
    # an import kept only for the tracer goes once the tracer stops patching it
    patched = {(module_name, attr) for module_name, attr, *_ in _patches()}
    for module_name, tree in _modules():
        unread = set(_imports(tree)) - _read_names(tree) - _exported(tree)
        for name in sorted(unread):
            assert (module_name, name) in patched, f"{module_name} never reads {name}"


def test_no_module_reads_a_name_from_bloch():
    # afga.bloch is the tests' reference: library runs use closed forms
    for module_name, tree in _modules():
        from_bloch = {name for name, source in _imports(tree).items() if source == ".bloch"}
        called = sorted(from_bloch & _read_names(tree))
        assert not called, f"{module_name} calls {called} from afga.bloch"


def test_bloch_shim_serves_only_patch_targets():
    # a module __getattr__ serves afga.bloch names only while the tracer
    # patches them there; once the patches go, the shim must go too
    patched = {(module_name, attr) for module_name, attr, *_ in _patches()}
    bloch = importlib.import_module("afga.bloch")
    served = set()
    for module_name, _ in _modules():
        module = importlib.import_module(module_name.removesuffix(".__init__"))
        getter = getattr(module, "__getattr__", None)
        if getter is None:
            continue
        for name in bloch.__all__:
            try:
                value = getter(name)
            except AttributeError:
                continue
            assert value is getattr(bloch, name), f"{module_name}.{name}"
            served.add((module_name, name))
    assert served <= patched, sorted(served - patched)
