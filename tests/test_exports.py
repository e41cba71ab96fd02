"""Every exported name resolves, so a deletion cannot leave a dangling
``__all__`` entry behind (``from relspin.x import *`` would fail on it),
every function the benchmark tracer wraps by name still exists, and the
lattice layer imports no physics."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import relspin

_MODULES = [relspin] + [importlib.import_module(f"relspin.{m.name}")
                        for m in pkgutil.iter_modules(relspin.__path__)]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_exports_declared():
    assert relspin.__all__


def test_traced_names_exist():
    # a renamed run, strang_step_dirac, krylov_step, Trajectory.to_csv or
    # expectation would otherwise leave its per-layer metric silently absent
    import relspin.cli  # noqa: F401  (the tracer wraps what the CLI imports)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer().install()
    tracer.uninstall()
    assert tracer.absent == {}


def test_grid_imports_no_physics():
    # grids, fields and transforms know no Dirac physics: what acts on them
    # (operators, Hamiltonians, projections) sits above, so grid.py may
    # import relspin.errors and no other relspin module
    tree = ast.parse(Path(relspin.__file__).with_name("grid.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = f"relspin.{node.module or ''}" if node.level else node.module
            if base in ("relspin.", "relspin"):  # from . import x, from relspin import x
                modules |= {f"relspin.{alias.name}" for alias in node.names}
            else:
                modules.add(base)
    assert {m for m in modules if m.split(".")[0] == "relspin"} <= {"relspin.errors"}


def test_only_expr_reads_leaf_fill_records():
    # a leaf's fill records (its scalar arrays, live terms, axes, kernel rows
    # and matrix entries) are expr's own: every other module reads a tree
    # through _monomials or an apply, so a change to how a leaf fills stays
    # in one module
    records = {"_arrays", "_axes", "_live", "_scalars", "_own_rows", "_entries"}
    found = []
    for path in sorted(Path(relspin.__file__).parent.glob("*.py")):
        if path.name != "expr.py":
            found += [f"{path.name}:{node.lineno} .{node.attr}"
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute) and node.attr in records]
    assert found == []


def test_only_grid_reads_field_storage():
    # a field's storage is grid's own: data is always phase-folded, and only
    # grid.py folds or unfolds it (with its checkerboard ``_phase``), so no
    # other module needs to know which storage a field holds
    records = {"_phase", "folded"}
    found = []
    for path in sorted(Path(relspin.__file__).parent.glob("*.py")):
        if path.name != "grid.py":
            found += [f"{path.name}:{node.lineno} .{node.attr}"
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute) and node.attr in records]
    assert found == []
