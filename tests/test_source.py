"""Static checks on the package source: no dead private names, no unused
imports, no unread parameters, no import inside a function, and one module
that knows the CSV dialect. Also on the tests' reference implementations:
they take no kernel from the package."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jumpcontrol"
# __init__ only re-exports. build_sample keeps its public p, which callers
# pass positionally; a parameter named _x is unread by intent.
EXEMPT_MODULES = {"__init__"}
EXEMPT_PARAMETERS = {("bsde", "build_sample", "p")}

# What the reference implementations may import from the package: problem data
# and its accessors, containers and errors, and the two rules they share by
# design, the explosion cap and Picard's block split (see einsum_picard).
REFERENCES = ("dense_bsde", "path_loops", "einsum_penalized", "einsum_picard")
REFERENCE_IMPORTS = {
    "Problem", "cost_at", "cost_layer", "rate_bound", "pair_rate_bound",
    "Path", "ValueGrid", "HJBSolution", "ExplosionError", "NonconvergenceError",
    "_cap", "_picard_blocks",
}

TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def loaded_names(tree):
    """Every bare name a module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def module_level_bindings(tree):
    """Names bound by the module's top-level defs, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def imported_names(tree):
    """The name each import binds, skipping __future__ imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name) for alias in node.names)


def test_source_parses():
    assert {"linear", "penalized", "hjb", "simulate"} <= set(TREES)


@pytest.mark.parametrize("module", sorted(set(TREES) - EXEMPT_MODULES))
def test_private_names_are_used(module):
    # used anywhere in the package: read bare or as an attribute, or imported
    # by another module (test_imports_are_used checks that import's use)
    used = set()
    for name, tree in TREES.items():
        used |= loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name != module:
                used.update(alias.name for alias in node.names)
    private = [n for n in module_level_bindings(TREES[module]) if n.startswith("_") and not n.startswith("__")]
    assert [n for n in private if n not in used] == []


@pytest.mark.parametrize("module", sorted(set(TREES) - EXEMPT_MODULES))
def test_imports_are_used(module):
    tree = TREES[module]
    used = loaded_names(tree)
    unused = [n for n in imported_names(tree) if n not in used]
    assert unused == []


def parameters(func):
    a = func.args
    return [arg.arg for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if arg is not None]


@pytest.mark.parametrize("module", sorted(TREES))
def test_parameters_are_read(module):
    # in the function's body, nested functions included; not in its defaults or decorators
    unread = []
    for func in ast.walk(TREES[module]):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = [func.body] if isinstance(func, ast.Lambda) else func.body
            read = set().union(*(loaded_names(node) for node in body))
            name = getattr(func, "name", "<lambda>")
            unread += [
                (name, arg) for arg in parameters(func)
                if arg not in read and not arg.startswith("_") and (module, name, arg) not in EXEMPT_PARAMETERS
            ]
    assert unread == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_imports_are_at_module_level(module):
    # a function-level import hides a cycle between modules
    nested = []
    for func in ast.walk(TREES[module]):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested += [
                (func.name, node.lineno) for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
    assert nested == []


def test_only_model_imports_csv():
    # model writes every table in csv.writer's dialect; no other module writes one of its own
    importers = sorted(
        name for name, tree in TREES.items() for node in ast.walk(tree)
        if isinstance(node, ast.Import) and "csv" in (alias.name for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "csv"
    )
    assert importers == ["model"]


@pytest.mark.parametrize("reference", REFERENCES)
def test_references_share_no_kernel(reference):
    # a reference that imports the kernel it checks compares the kernel with itself
    path = SRC.parent.parent / "tests" / f"{reference}.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "jumpcontrol":
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):  # a whole-package import would bring every kernel
            imported += [alias.name for alias in node.names if alias.name.split(".")[0] == "jumpcontrol"]
    assert [name for name in imported if name not in REFERENCE_IMPORTS] == []
