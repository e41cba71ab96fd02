"""The benchmark's workloads, run in-process as its default seed makes them,
match its committed reference outputs within its tolerances.  A change at
roundoff passes; a real drift fails here, not only in the benchmark."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_simulate_1d_matches_reference(tmp_path, capsys, monkeypatch):
    from relspin.cli import main
    workloads, checks = _perfbench("workloads", monkeypatch), _perfbench("checks", monkeypatch)
    workload = workloads.simulate_1d(ROOT, tmp_path, workloads.DEFAULT_SEED)
    assert [op.name for op in workload.ops] == ["simulate", "sweep"]
    for op in workload.ops:
        assert main(op.argv) == op.expect_rc
        got = checks._read(op.output)
        reference = checks._read(checks.reference_path(workload.name, op))
        assert checks.compare(got, reference, checks.ATOL[op.name]) == [], op.name


@pytest.mark.parametrize("name", ["verify_3d", "check_operators"])
def test_default_seed_run_passes_its_check(name, tmp_path, capsys, monkeypatch):
    # the benchmark's own check: exit code, schema, invariants and the
    # committed reference output
    from relspin.cli import main
    workloads, checks = _perfbench("workloads", monkeypatch), _perfbench("checks", monkeypatch)
    seed = workloads.DEFAULT_SEED
    workload = workloads.build(name, ROOT, tmp_path, seed)
    for op in workload.ops:
        assert checks.check(op, main(op.argv), workload.name, seed, seed) == [], op.name
