"""Every name a module of the package imports is used in that module, and
no module imports another one's private names."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "interbank"

# Names a module imports only so that callers can import them from it.
RE_EXPORTS = {"equilibrium": {"OutOfHorizon", "LabelMismatch"}}


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Quoted annotations name types too.
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        else:
            continue
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in _used(tree)
              and name not in RE_EXPORTS.get(path.stem, ())}
    assert not unused, f"{path.name}: imported but unused {unused}"


def _writes_a_file(node: ast.AST) -> bool:
    """Whether ``node`` calls ``open`` or ``os.fdopen`` in a mode that
    writes; a mode that is not a literal counts as writing."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if not ((isinstance(func, ast.Name) and func.id == "open")
            or (isinstance(func, ast.Attribute) and func.attr == "fdopen")):
        return False
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
    mode = node.args[1] if len(node.args) > 1 else (modes or [None])[0]
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & set("wax+"))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_only_riccati_formats_and_writes_files(path):
    # Every output file is formatted by riccati.csv_text and written by
    # riccati.atomic_file.
    if path.name == "riccati.py":
        return
    source = path.read_text(encoding="utf-8")
    assert ".17g" not in source, f"{path.name} formats numbers for output"
    writes = [node.lineno for node in ast.walk(ast.parse(source))
              if _writes_a_file(node)]
    assert not writes, f"{path.name}: opens files for writing at {writes}"


# Limits that riccati alone reads: every blow-up check is BlowUp.check and
# every size check CoefficientPath.check_size.
RICCATI_LIMITS = {"BLOWUP_LIMIT", "MAX_ENSEMBLE_BYTES"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_only_riccati_names_the_shared_limits(path):
    if path.name == "riccati.py":
        return
    named = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        else:
            continue
        named += [(getattr(node, "lineno", None), name) for name in names
                  if name in RICCATI_LIMITS]
    assert not named, f"{path.name}: names riccati's limits {named}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_private_names_cross_modules(path):
    # A name with one leading underscore is private to its module; dunder
    # names such as __version__ are public.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("interbank"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not private, f"{path.name}: imports private names {private}"


def _module_level_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_unused_private_names(path):
    # A private module-level name is read somewhere in its own module.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {name: line for name, line in _module_level_names(tree).items()
              if name.startswith("_") and not name.endswith("__")
              and name not in read}
    assert not unused, f"{path.name}: private names never read {unused}"


def test_one_batch_pipeline_in_the_simulator():
    # Every sampler in simulate.py runs through _group_mean_batches: no
    # other function draws the slot stream.  The bank run's deviations
    # are the only work handed to worker threads.
    tree = ast.parse((PACKAGE / "simulate.py").read_text(encoding="utf-8"))

    def users(name):
        return {
            top.name if isinstance(top, ast.FunctionDef) else "<module>"
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id == name
        }
    assert users("generate_increments") == {"_group_mean_batches"}
    assert users("ThreadPoolExecutor") == {"simulate_closed_loop"}
