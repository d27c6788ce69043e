"""Module layering: no fracred module reaches into another's private names,
K is copied to dense only as the buffer the eigensolve's first blocked band
solve overwrites in place and M never, no eigensolver driver with a 2 n^2
eigenvector workspace is called, L^a and G are formed only at the rows a
caller reads, every tolerance bound lives in the contract table, no suite writes into
its run context, and importing the package to load a config adds no
third-party module to what numpy and scipy load."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fracred
from fracred.operators import CONTRACTS

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


#: the one call that may take a dense copy of K or M: the argument position
#: it overwrites in place and the one matrix a copy there may come from.  K
#: is densified once, as the buffer the first blocked band solve of the
#: eigensolve overwrites, and M never: it is read through its band
IN_PLACE = {
    "_solve_band": (1, "K"),
}


def operator_matrix(node):
    """``K`` or ``M`` when the expression is built from ``op.K``, ``M``,
    ``op.M[rows]``, ``op.K.conj()`` and the like, else None."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr in ("K", "M"):
            return node.attr
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) and node.id in ("K", "M") else None


def call_name(node):
    return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)


def dense_copies(path: Path) -> list:
    """``.toarray()`` of K or M in one source file other than a Fortran-ordered
    copy (``order="F"``) of K passed as the buffer of the file's first
    ``_solve_band`` call, which overwrites it; any other array is copied or
    kept, and every later solve reads the buffer the first one returned."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = sorted(
        (node for node in ast.walk(tree) if isinstance(node, ast.Call)),
        key=lambda node: (node.lineno, node.col_offset),
    )
    consumed = {}  # argument node -> the matrix its slot may take
    seen = set()
    for node in calls:
        name = call_name(node)
        if name not in IN_PLACE or name in seen:
            continue
        seen.add(name)
        position, matrix = IN_PLACE[name]
        if position < len(node.args):
            consumed[node.args[position]] = matrix
    found = []
    for node in calls:
        if getattr(node.func, "attr", None) == "toarray":
            name = operator_matrix(node.func.value)
            fortran = any(
                kw.arg == "order" and isinstance(kw.value, ast.Constant) and kw.value.value == "F"
                for kw in node.keywords
            )
            if name and not (fortran and consumed.get(node) == name):
                found.append(f"{path.name}:{node.lineno} keeps a dense copy of .{name}")
    return found


def test_k_and_m_are_densified_only_for_lapack():
    # K only for the eigensolve's first blocked band solve, M never
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [hit for path in sources for hit in dense_copies(path)]
    assert offenders == []


@pytest.mark.parametrize(
    "source, hits",
    [
        # the retired ?tbtrs route: K densified for it is no longer exempt
        ("Y, info = tbtrs(L, K.toarray(order='F'), uplo='L', overwrite_b=True)", 1),
        ("Y, info = tbtrs(L, op.K.toarray(order='F'), overwrite_b=True)", 1),
        ("Y, info = tbtrs(L, K.toarray(order='F'))", 1),
        ("Y, info = tbtrs(L, K.toarray(order='F'), overwrite_b=False)", 1),
        ("Y, info = tbtrs(L, K.toarray(), overwrite_b=True)", 1),
        ("Y, info = tbtrs(L, M.toarray(order='F'), overwrite_b=True)", 1),
        ("Y, info = tbtrs(K.toarray(order='F'), B, overwrite_b=True)", 1),
        ("Y, info = tbtrs(L, A, overwrite_b=True)\n"
         "Z, info = tbtrs(L, K.toarray(order='F'), overwrite_b=True)", 1),
        ("A = _solve_band(L, K.toarray(order='F'), adjoint=True)", 0),
        ("A = operators._solve_band(L, op.K.toarray(order='F'), True)", 0),
        ("A = _solve_band(L, K.toarray(order='F').copy(), adjoint=True)", 1),
        ("Y = solve_triangular(L, K.toarray(order='F'), overwrite_b=True)", 1),
        ("A = _solve_band(L, K.toarray(), adjoint=True)", 1),
        ("A = _solve_band(L, M.toarray(order='F'), adjoint=True)", 1),
        ("A = _solve_band(K.toarray(order='F'), B, adjoint=True)", 1),
        ("_solve_band(L, A, adjoint=True)\n"
         "Z = _solve_band(L, K.toarray(order='F'), adjoint=False)", 1),
        ("w, v = eigh(K.toarray(order='F'), M.toarray(order='F'), "
         "overwrite_a=True, overwrite_b=True)", 2),
        ("w, v = eigh(M.toarray(order='F'), K.toarray(order='F'), "
         "overwrite_a=True, overwrite_b=True)", 2),
        ("w, v = eigh(K.toarray(), M.toarray(), overwrite_a=True, overwrite_b=True)", 2),
        ("f = scipy.linalg.cho_factor(op.K.toarray(order='F'), overwrite_a=True)", 1),
        ("f = cho_factor(op.K.toarray(order='F'), overwrite_a=False)", 1),
        ("f = cho_factor(op.M.toarray(order='F'), overwrite_a=True)", 1),
        ("L = cholesky(op.M.toarray(order='F'), lower=True, overwrite_a=True)", 1),
        ("L = scipy.linalg.cholesky(op.M.toarray(order='F'), lower=True)", 1),
        ("c, info = pbtrf(M.toarray(order='F'), lower=1, overwrite_ab=True)", 1),
        ("D = op.M.toarray()", 1),
        ("x = np.linalg.solve(op.M.toarray(), v)", 1),
        ("B = op.K[rows].conj().toarray()", 1),
        ("R = omega_stiffness(op).toarray()", 0),
        ("band = lower_band(op.M)", 0),
        ("y = op.M @ v", 0),
    ],
)
def test_dense_copy_check_finds_its_targets(tmp_path, source, hits):
    path = tmp_path / "probe.py"
    path.write_text(source + "\n")
    assert len(dense_copies(path)) == hits


#: LAPACK drivers that solve for eigenvectors in a 2 n^2 workspace beside the
#: n x n matrix: the standard and generalized divide and conquer drivers
EIGENVECTOR_DRIVER = re.compile(r"[sdcz]?(sy|he)[eg]vd")


def eigenvector_drivers(path: Path) -> list:
    """Uses in one source file of a 2 n^2 eigenvector driver: its name as a
    string (``get_lapack_funcs("syevd")``), a name or an attribute
    (``lapack.dsyevd``), and every ``eigh`` call that does not pass
    ``eigvals_only=True``, which runs one of them."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and EIGENVECTOR_DRIVER.fullmatch(name):
            found.append(f"{path.name}:{node.lineno} names {name}")
        if isinstance(node, ast.Call) and call_name(node) == "eigh" and not any(
            kw.arg == "eigvals_only" and isinstance(kw.value, ast.Constant) and kw.value.value is True
            for kw in node.keywords
        ):
            found.append(f"{path.name}:{node.lineno} calls eigh for eigenvectors")
    return found


def test_no_eigensolve_holds_a_2n2_eigenvector_workspace():
    # the eigensolve packs the Householder tails while divide and conquer
    # runs, 2.5 n^2 at its peak; any of these drivers would take it to 3 n^2
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [hit for path in sources for hit in eigenvector_drivers(path)]
    assert offenders == []


@pytest.mark.parametrize(
    "source, hits",
    [
        ('solver = "heevd" if complex_ else "syevd"', 2),
        ('evd, = scipy.linalg.get_lapack_funcs(("dsygvd",), (A,))', 1),
        ("w, v, info = scipy.linalg.lapack.zhegvd(A, B)", 1),
        ("w, v = scipy.linalg.eigh(C)", 1),
        ("w, v = eigh(K, M, overwrite_a=True)", 1),
        ("w, v = np.linalg.eigh(C)", 1),
        ("w = scipy.linalg.eigh(C, eigvals_only=True)", 0),
        ("w = eigh(C, eigvals_only=False)", 1),
        ("w = scipy.linalg.eigvalsh(C)", 0),
        ('stevd = scipy.linalg.get_lapack_funcs("stevd", dtype=float)', 0),
        ('trd, mqr = scipy.linalg.get_lapack_funcs(("sytrd", "ormqr"), (C,))', 0),
        ('solver = "syevr"', 0),
    ],
)
def test_eigenvector_driver_check_finds_its_targets(tmp_path, source, hits):
    path = tmp_path / "probe.py"
    path.write_text(source + "\n")
    assert len(eigenvector_drivers(path)) == hits


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


def program_references() -> list:
    """The program, the demos, the benchmark and the acceptance test."""
    return [
        *PACKAGE.glob("*.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "bench").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]


def test_no_public_name_only_tests_reach():
    """Every public function and class is used by the program, a demo or the
    benchmark, or is named by the acceptance test."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert unreached_names(modules, program_references()) == []


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


def dataclass_fields(path: Path) -> list:
    """(class, field) of every field of the top-level dataclasses in one source file."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            found += [
                (node.name, stmt.target.id) for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return found


def read_attributes(path: Path) -> set:
    """Attribute names one source file reads, as in ``pair.psi``; an
    assignment, a constructor keyword or a docstring does not count."""
    return {
        node.attr for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_fields(modules, references) -> list:
    """Dataclass fields of ``modules`` whose name no file in ``references``
    reads as an attribute (of any object: the check goes by name)."""
    read = set().union(*map(read_attributes, references))
    return [
        f"{path.stem}.{cls}.{name}"
        for path in modules for cls, name in dataclass_fields(path) if name not in read
    ]


def test_no_field_only_tests_read():
    """Every dataclass field is read by the program, a demo or the benchmark,
    or by the acceptance test."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(dataclass_fields(path) for path in modules)
    assert unread_fields(modules, program_references()) == []


@pytest.mark.parametrize(
    "module, demo, unread",
    [
        ("@dataclass\nclass Box:\n    width: float\n", "", ["lib.Box.width"]),
        ("@dataclass\nclass Box:\n    width: float\n", "print(box.width)\n", []),
        ("@dataclasses.dataclass(frozen=True)\nclass Box:\n    width: float = 1.0\n", "", ["lib.Box.width"]),
        ("@dataclass\nclass Box:\n    width: float\n", "Box(width=2.0)\n", ["lib.Box.width"]),
        ("@dataclass\nclass Box:\n    width: float\n", "box.width = 2.0\n", ["lib.Box.width"]),
        ("@dataclass\nclass Box:\n    width: float\n", '"""Reads box.width in prose only."""\n', ["lib.Box.width"]),
        ("class Plain:\n    width: float\n", "", []),
        ("@dataclass\nclass Box:\n    @property\n    def width(self):\n        return 1.0\n", "", []),
    ],
    ids=["unread", "read-in-demo", "frozen-with-default", "constructor-only", "assigned-only",
         "docstring-only", "not-a-dataclass", "property"],
)
def test_unread_field_check_finds_its_targets(tmp_path, module, demo, unread):
    lib, script = tmp_path / "lib.py", tmp_path / "demo.py"
    lib.write_text(module)
    script.write_text(demo)
    assert unread_fields([lib], [lib, script]) == unread


#: a module-level name that reads as a tolerance constant
TOLERANCE_NAME = re.compile(r"[A-Z0-9_]*_TOL(_[A-Z0-9_]*)?")


def contract_uses(path: Path) -> tuple:
    """(checked, constants) of one source file: the contract name of each
    ``check(...)`` call (None unless it is a string literal) and the
    ``*_TOL`` constants assigned at module level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    checked = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "check":
            name = node.args[0] if node.args else None
            literal = isinstance(name, ast.Constant) and isinstance(name.value, str)
            checked.append(name.value if literal else None)
    constants = [
        target.id
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and TOLERANCE_NAME.fullmatch(target.id)
    ]
    return checked, constants


def test_every_bound_lives_in_the_contract_table():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    checked, constants = [], []
    for path in sources:
        names, tolerances = contract_uses(path)
        checked += names
        constants += tolerances
    assert sorted(set(checked), key=str) == sorted(CONTRACTS)
    assert constants == []


@pytest.mark.parametrize(
    "source, checked, constants",
    [
        ('r = check("eigenpair residual", r, AssemblyError)', ["eigenpair residual"], []),
        ('operators.check("gauge deviation", d, ContractError, a)', ["gauge deviation"], []),
        ("check(name, r, AssemblyError)", [None], []),
        ('check(f"lift {key} residual", r, ArithmeticError, a)', [None], []),
        ("check_shared_exterior(op1, op2)", [], []),
        ("SOLVE_TOL = 1e-10", [], ["SOLVE_TOL"]),
        ("LIFT_TOL_PHI: float = 1e-10", [], ["LIFT_TOL_PHI"]),
        ("RTOL = 1e-6", [], []),
        ("def f():\n    LOCAL_TOL = 1e-3", [], []),
    ],
)
def test_contract_use_check_finds_its_targets(tmp_path, source, checked, constants):
    path = tmp_path / "probe.py"
    path.write_text(source + "\n")
    assert contract_uses(path) == (checked, constants)


def context_writes(path: Path) -> list:
    """Stores into, or deletions from, the first argument of a top-level
    ``_suite_*`` function in one source file: an attribute of it
    (``ctx.rng = ...``) or a subscript of one (``ctx.outputs[name] = ...``),
    in any target position; rebinding the argument's own name is no write."""
    found = []
    for func in ast.parse(path.read_text(), filename=str(path)).body:
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("_suite_") and func.args.args):
            continue
        ctx = func.args.args[0].arg
        for node in ast.walk(func):
            if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del)):
                base = node
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    base = base.value
                if isinstance(base, ast.Name) and base.id == ctx:
                    found.append(f"{path.name}:{node.lineno} {func.name} writes into {ctx}")
    return found


def test_suites_return_their_artifacts_and_write_nothing_into_the_context():
    # a suite hands its artifacts to run_suites, the one writer; the context
    # is read-only scenario state
    sources = sorted(PACKAGE.glob("*.py"))
    assert "def _suite_" in (PACKAGE / "runner.py").read_text()
    offenders = [hit for path in sources for hit in context_writes(path)]
    assert offenders == []


@pytest.mark.parametrize(
    "source, hits",
    [
        ('def _suite_x(ctx):\n    ctx.outputs["x.json"] = "{}"', 1),
        ("def _suite_x(ctx):\n    ctx.rng = rng", 1),
        ('def _suite_x(ctx):\n    ctx.store.files["x.json"] = doc', 1),
        ("def _suite_x(ctx):\n    ctx.count += 1", 1),
        ("def _suite_x(ctx):\n    ctx.doc: dict = {}", 1),
        ("def _suite_x(ctx):\n    ctx.first, ctx.second = 1, 2", 2),
        ("def _suite_x(ctx):\n    for ctx.i in range(3):\n        pass", 1),
        ('def _suite_x(ctx):\n    del ctx.outputs["x.json"]', 1),
        ('def _suite_x(run):\n    run.outputs["x.json"] = doc', 1),
        ('def _suite_x(ctx):\n    doc = {}\n    doc[ctx.seed] = 1\n    return {"x.json": doc}', 0),
        ("def _suite_x(ctx):\n    ctx = other", 0),
        ('def _suite_x(ctx):\n    return {"x.json": {"seed": ctx.seed}}', 0),
        ('def helper(ctx):\n    ctx.outputs["x.json"] = doc', 0),
    ],
)
def test_context_write_check_finds_its_targets(tmp_path, source, hits):
    path = tmp_path / "probe.py"
    path.write_text(source + "\n")
    assert len(context_writes(path)) == hits


#: in a fresh interpreter: the top-level modules that importing fracred and
#: loading the configs named on the command line add to those numpy and
#: scipy load, standard library and fracred left out
IMPORT_FOOTPRINT = """
import sys
import numpy, scipy.linalg, scipy.sparse

def top_level():
    return {name.partition(".")[0] for name in sys.modules}

baseline = top_level()
sys.path.insert(0, sys.argv[1])
import fracred
for path in sys.argv[2:]:
    fracred.load_config(path)
added = top_level() - baseline - set(sys.stdlib_module_names) - {"fracred"}
print(" ".join(sorted(added)))
"""


def test_loading_a_config_imports_nothing_beyond_numpy_and_scipy(tmp_path):
    configs = sorted((PACKAGE / "configs").glob("*.json"))
    assert configs
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT, str(PACKAGE.parent), *map(str, configs)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == []
