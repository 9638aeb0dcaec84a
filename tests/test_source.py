"""Static checks of the source: no float reaches src/, every annotation names
something the module binds, and every file parses as Python 3.10, the oldest
version pyproject.toml accepts."""
import ast
import builtins
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
TEXTS = sorted([*SOURCES, *(ROOT / "tests").rglob("*.py")])

# The math functions that take ints and return ints; every other math name,
# inf and nan included, is a float or returns one.
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def _relative(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def _refused_float(tree: ast.Module) -> set[int]:
    """The ids of the nodes that name float in isinstance(value, float)
    within as_rational, the one refusal of floats."""
    return {
        id(call.args[1])
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name == "as_rational"
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "isinstance" and len(call.args) == 2
    }


def _float_uses(tree: ast.Module, allowed: set[int]):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield node.lineno, f"from math import {alias.name}"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            yield node.lineno, f"math.{node.attr}"
        # A Name's id, an Attribute's attr or an imported name.
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.name
        if name in ("inf", "nan") or name == "float" and id(node) not in allowed:
            yield node.lineno, name


@pytest.mark.parametrize("path", SOURCES, ids=_relative)
def test_no_float_in_the_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = _refused_float(tree) if path.name == "exact.py" else set()
    assert list(_float_uses(tree, allowed)) == []


def _module_names(body: list[ast.stmt]) -> set[str]:
    """The names that statements at module scope bind, within a top-level if too."""
    names: set[str] = set()
    for node in body:
        if isinstance(node, ast.If):
            names |= _module_names(node.body) | _module_names(node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        else:
            names |= {target.id for target in ast.walk(node)
                      if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)}
    return names


def _unbound_annotation_names(tree: ast.Module):
    bound = _module_names(tree.body) | set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for name in ast.walk(annotation) if annotation else ():
            if isinstance(name, ast.Name) and name.id not in bound:
                yield name.lineno, name.id


@pytest.mark.parametrize("path", SOURCES, ids=_relative)
def test_every_annotation_names_a_module_binding(path):
    # A type checker resolves an annotation in the module's namespace, so a
    # name imported only inside a function body is unbound there, though the
    # deferred annotation never runs; one imported under a top-level
    # `if TYPE_CHECKING:` is bound.
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_unbound_annotation_names(tree)) == []


@pytest.mark.parametrize("path", TEXTS, ids=_relative)
def test_each_file_parses_as_python_3_10(path):
    # Syntax only, and best effort: feature_version refuses most newer
    # grammar, such as except*, but does not check library calls.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
