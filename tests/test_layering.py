"""Module layering: no fracred module reaches into another's private names,
no product is taken with the dense K or M, and L^a and G are formed only
at the rows a caller reads."""

import ast
from pathlib import Path

import pytest

import fracred

PACKAGE = Path(fracred.__file__).parent


def private_imports(path: Path) -> list:
    """``from <fracred module> import _name`` statements in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "fracred"
        for alias in node.names if internal else ():
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


def test_no_cross_module_private_imports():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [hit for path in sources for hit in private_imports(path)]
    assert offenders == []


#: dense operator matrices; products go through their CSR twins K_csr, M_csr
DENSE_MATRICES = ("K", "M")


def dense_operand(node):
    """Name of the dense .K/.M attribute an ``@`` operand is built from, or None.

    Follows attribute access, method calls and indexing down to the base, so
    ``op.M @ v``, ``op.M.T @ v``, ``op.K.conj() @ v`` and ``op.K[rows] @ v``
    are all found; passing ``op.M`` to a function (eigh, cholesky) is not a
    product and is not followed.
    """
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr in DENSE_MATRICES:
            return node.attr
        node = node.func if isinstance(node, ast.Call) else node.value
    return None


def dense_products(path: Path) -> list:
    """``@`` and ``@=`` in one source file with a dense .K or .M operand."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
            operands = (node.target, node.value)
        else:
            continue
        for name in filter(None, map(dense_operand, operands)):
            found.append(f"{path.name}:{node.lineno} multiplies by dense .{name}")
    return found


def test_no_products_with_dense_k_or_m():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [hit for path in sources for hit in dense_products(path)]
    assert offenders == []


@pytest.mark.parametrize(
    "source, hits",
    [
        ("x = op.M @ v", 1),
        ("x = v.conj().T @ op.K.T", 1),
        ("x = op.K[rows] @ (op.M.conj() @ v)", 2),
        ("x @= op.M", 1),
        ("x = op.M_csr @ v + op.K_csr @ w", 0),
        ("L = scipy.linalg.cholesky(op.M, lower=True) @ v", 0),
        ("d = op.K - moved.K", 0),
    ],
)
def test_dense_product_check_finds_its_targets(tmp_path, source, hits):
    path = tmp_path / "probe.py"
    path.write_text(source + "\n")
    assert len(dense_products(path)) == hits


#: builders of n x n spectral matrices; the program asks them for rows only
ROW_BUILDERS = ("power_matrix", "fractional_stiffness")


def whole_matrix_calls(path: Path) -> list:
    """Calls in one source file of a row builder without a ``rows`` argument.

    ``rows`` is the third positional argument or a keyword; an explicit
    ``rows=None`` asks for the whole matrix and counts as missing.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in ROW_BUILDERS:
            continue
        rows = node.args[2] if len(node.args) > 2 else next(
            (kw.value for kw in node.keywords if kw.arg == "rows"), None
        )
        if rows is None or (isinstance(rows, ast.Constant) and rows.value is None):
            found.append(f"{path.name}:{node.lineno} forms the whole {name}")
    return found


def test_program_forms_only_rows_of_spectral_matrices():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [hit for path in sources for hit in whole_matrix_calls(path)]
    assert offenders == []


@pytest.mark.parametrize(
    "source, hits",
    [
        ("P = power_matrix(op, a)", 1),
        ("G = calculus.fractional_stiffness(op, 0.5)[interior]", 1),
        ("P = power_matrix(op, a, rows=None)", 1),
        ("P = power_matrix(op, a, None)", 1),
        ("P = power_matrix(op, a, dofs)", 0),
        ("G = fractional_stiffness(op, a, rows=interior)", 0),
        ("y = apply_power(op, a, u)", 0),
        ("def power_matrix(op, a, rows=None):\n    pass", 0),
    ],
)
def test_whole_matrix_check_finds_its_targets(tmp_path, source, hits):
    path = tmp_path / "probe.py"
    path.write_text(source + "\n")
    assert len(whole_matrix_calls(path)) == hits


ROOT = PACKAGE.parent.parent


def referenced_names(path: Path) -> set:
    """Identifiers that one source file reads as a ``Name`` or an ``Attribute``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreached_names(modules, references) -> list:
    """Public top-level functions and classes of ``modules`` that no file in
    ``references`` refers to; imports, definitions and docstrings do not count."""
    used = set().union(*map(referenced_names, references))
    found = []
    for path in modules:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if defines and not node.name.startswith("_") and node.name not in used:
                found.append(f"{path.stem}.{node.name}")
    return found


def test_no_public_name_only_tests_reach():
    """Every public function and class is used by the program, a demo or the
    benchmark, or is named by the acceptance test."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    references = [
        *PACKAGE.glob("*.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "bench").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    assert modules
    assert unreached_names(modules, references) == []


@pytest.mark.parametrize(
    "module, demo, unreached",
    [
        ("def orphan():\n    pass\n", "", ["lib.orphan"]),
        ("def shown():\n    pass\n", "from lib import shown\nshown()\n", []),
        ("class Shown:\n    pass\n", "import lib\nlib.Shown()\n", []),
        ('def named():\n    pass\n', '"""Calls named() in prose only."""\n', ["lib.named"]),
        ("def _private():\n    pass\n", "", []),
    ],
    ids=["orphan", "called-in-demo", "attribute-in-demo", "docstring-only", "private"],
)
def test_unreached_name_check_finds_its_targets(tmp_path, module, demo, unreached):
    lib, script = tmp_path / "lib.py", tmp_path / "demo.py"
    lib.write_text(module)
    script.write_text(demo)
    assert unreached_names([lib], [lib, script]) == unreached
