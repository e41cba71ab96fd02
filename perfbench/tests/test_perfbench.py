"""Self-tests of the benchmark (run: python3 -m pytest perfbench/tests)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DETERMINISTIC = ["grid.fft_calls", "expr.apply_calls",
                 "propagate.krylov_matvecs_per_step", "algebra.herm_eigs_calls"]


def _child(tmp, argv, spans=None):
    """Run one CLI command through child.py; returns (record, spans or None)."""
    record = tmp / "record.json"
    opts = ["--spans", str(spans)] if spans else []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    subprocess.run([sys.executable, str(BENCH / "child.py"), str(record), *opts,
                    "--", *argv], cwd=tmp, env=env, check=True, timeout=300,
                   stdout=subprocess.DEVNULL)
    rec = json.loads(record.read_text())
    if spans is None:
        return rec, None
    lines = spans.read_text().splitlines()
    return rec, [json.loads(line) for line in lines[1:]]


def _small_scenarios(tmp):
    """Shortened copies of the shipped 1D scenarios (same physics, fewer steps)."""
    free = json.loads((ROOT / "scenarios" / "free_particle.json").read_text())
    free["propagation"].update(steps=100, stride=25)
    larmor = json.loads((ROOT / "scenarios" / "larmor_sweep.json").read_text())
    larmor["propagation"].update(steps=20, stride=5)
    paths = {}
    for name, doc in (("free", free), ("larmor", larmor)):
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def _commands(tmp, out):
    sc = _small_scenarios(tmp)
    return [
        ["--threads", "1", "simulate", "--scenario", str(sc["free"]),
         "--output", str(out / "traj.csv")],
        ["--threads", "1", "sweep", "--scenario", str(sc["larmor"]),
         "--field-grid", "0.5,2", "--output", str(out / "sweep.csv")],
        ["--threads", "1", "verify-dynamics", "--scenario", str(sc["free"]),
         "--report", str(out / "report.json")],
        ["--threads", "1", "check-operators", "--samples", "20", "--seed", "3",
         "--json", str(out / "ops.json")],
    ]


def _traced_pass(tmp, label):
    out = tmp / label
    out.mkdir()
    span_lists = []
    for i, argv in enumerate(_commands(tmp, out)):
        rec, spans = _child(tmp, argv, spans=out / f"spans-{i}.jsonl")
        assert rec["rc"] == 0 and "error" not in rec
        span_lists.append(spans)
    return out, tracer.layer_metrics(span_lists)


def test_fft_round_trip_counts_two_ffts():
    from relspin.cli import main  # noqa: F401  (imports every traced module)
    from relspin.grid import GridSpec, gaussian_packet

    field = gaussian_packet(GridSpec(1, 64, 64.0), [0, 0, 0], 4.0, [0.5, 0, 0],
                            [1, 0, 0, 0])
    t = tracer.Tracer().install()
    try:
        field.to_momentum().to_position()
    finally:
        t.uninstall()
    assert [s[0] for s in t.spans] == ["fft", "fft"]
    assert t.spans[0][4] == 2 * field.values.nbytes
    assert not t.absent


def test_traced_outputs_identical_and_counts_repeat(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    for argv in _commands(tmp_path, plain):
        rec, _ = _child(tmp_path, argv)
        assert rec["rc"] == 0
    traced, first = _traced_pass(tmp_path, "traced")
    for name in ("traj.csv", "sweep.csv", "report.json", "ops.json"):
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name

    _, second = _traced_pass(tmp_path, "again")
    for name in DETERMINISTIC:
        assert first[name] > 0, name
        assert first[name] == second[name], name
    assert all(NAME.fullmatch(name) for name in first)


def test_benchmark_metric_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(NAME.fullmatch(w["name"]) for w in bench["workloads"])
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_missing_target_is_reported_absent(monkeypatch):
    from relspin.cli import main  # noqa: F401

    targets = [t for t in tracer.TARGETS if t[2] != "load_scenario"]
    targets += [("algebra.herm_eigs", "relspin.algebra", "renamed_eigs"),
                ("scenario.load", "relspin.scenario", "gone")]
    monkeypatch.setattr(tracer, "TARGETS", targets)
    t = tracer.Tracer().install()
    t.uninstall()
    assert "scenario.load" in t.absent and "algebra.herm_eigs" not in t.absent
    assert "gone" in tracer.absent_reason("scenario.load_s", t.absent)
    assert tracer.absent_reason("algebra.herm_eigs_s", t.absent) is None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_seeds(tmp_path, name):
    default = workloads.build(name, ROOT, tmp_path, workloads.DEFAULT_SEED)
    argvs = set()
    for seed in range(60):
        wl = workloads.build(name, ROOT, tmp_path, seed)   # guards raise
        assert [op.name for op in wl.ops] == [op.name for op in default.ops]
        argvs.add(json.dumps(wl.inputs, sort_keys=True))
    assert len(argvs) == 60


def test_default_seed_is_shipped(tmp_path):
    workloads.build("verify_3d", ROOT, tmp_path, workloads.DEFAULT_SEED)
    workloads.build("simulate_1d", ROOT, tmp_path, workloads.DEFAULT_SEED)
    made = {"uniform_b_verification": "verify_3d", "free_particle": "free_particle",
            "larmor_sweep": "larmor_sweep"}
    for shipped, generated in made.items():
        ship = json.loads((ROOT / "scenarios" / f"{shipped}.json").read_text())
        doc = json.loads((tmp_path / f"{generated}.json").read_text())
        ship.pop("output")
        doc.pop("output")
        if shipped == "uniform_b_verification":
            ship["verification"]["checks"].remove({"kind": "fw", "family": "dirac-em"})
        assert doc == ship, shipped
