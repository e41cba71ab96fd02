"""Correctness gate: one check per operation; a failed check counts toward
``fail_frac``.

Seed-independent invariants are checked on every run: the exit code, frozen
output schemas and field names, classifications, total-J residuals, norm drift
and spin constancy, and every ``check-operators`` pass flag.  At the default
seed the outputs must also match the committed reference in ``reference/``
within the tolerances below.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

#: relative tolerance against the reference; the absolute floor covers
#: roundoff-level entries (operator residuals near 1e-16, spin components
#: that vanish by symmetry)
RTOL = 1e-6
ATOL = {"verify-dynamics": 1e-12, "simulate": 1e-9, "sweep": 1e-9,
        "check-operators": 1e-12}

TOTAL_J_TOL = 1e-12
NORM_DRIFT_TOL = 1e-10
SPIN_CONSTANCY_TOL = 1e-10
FLUX_LIMIT = 1e-6

TRAJECTORY_COLUMNS = ["t", "norm", "energy", "S_D_x", "S_D_y", "S_D_z",
                      "S_FW_x", "S_FW_y", "S_FW_z", "S_Py_x", "S_Py_y", "S_Py_z",
                      "r_x", "r_y", "r_z", "p_x", "p_y", "p_z", "flux"]
SWEEP_COLUMNS = ["B0", "t", "d_Py", "d_FW"]
REPORT_FIELDS = {"schema", "kind", "family", "grid", "params", "model", "time",
                 "residual", "classification", "offending_term", "term_names",
                 "term_classification", "block_structure", "refinement", "cells"}
CELL_FIELDS = {"state", "axis", "residual", "lhs_norm", "rhs_norm", "scale",
               "term_norms"}


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def compare(got, ref, atol, where="$"):
    """Mismatches between two JSON-like values: numbers within
    RTOL * |ref| + atol, everything else exactly."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return [f"{where}: {got!r} is not a number"]
        if abs(got - ref) <= RTOL * abs(ref) + atol:
            return []
        return [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ"]
        return [m for k in sorted(ref) for m in compare(got[k], ref[k], atol, f"{where}.{k}")]
    if not isinstance(got, list) or len(got) != len(ref):
        return [f"{where}: length differs"]
    return [m for i, (g, r) in enumerate(zip(got, ref))
            for m in compare(g, r, atol, f"{where}[{i}]")]


def _check_verify(op, doc):
    problems = []
    if set(doc) != {"schema", "reports", "total_j"} or \
            doc["schema"] != "relspin-verification/1":
        return ["verification document schema or fields changed"]
    kinds = [r.get("kind") for r in doc["reports"]]
    if kinds != ["pryce"]:
        problems.append(f"report kinds {kinds}")
    for r in doc["reports"]:
        if set(r) != REPORT_FIELDS or r["schema"] != "relspin-residual-report/1":
            problems.append(f"{r.get('kind')}: report fields changed")
            continue
        if any(set(c) != CELL_FIELDS for c in r["cells"]):
            problems.append(f"{r['kind']}: cell fields changed")
        if r["family"] != "dirac-em" or r["classification"] != "non-converging":
            problems.append(f"{r['kind']}: {r['family']} classified {r['classification']}")
        if [row["n"] for row in r["refinement"]] != [32, 64]:
            problems.append(f"{r['kind']}: refinement ladder {r['refinement']}")
        if not isinstance(r["offending_term"], str):
            problems.append(f"{r['kind']}: no offending term named")
    for kind in ("fw", "pryce"):
        values = doc["total_j"].get(kind, [])
        if len(values) != 3 or not all(0 <= v <= TOTAL_J_TOL for v in values):
            problems.append(f"total-J residual [{kind}] {values}")
    return problems


def _scenario(op):
    return _read_json(_arg(op.argv, "--scenario"))


def _expected_rows(scenario):
    prop = scenario["propagation"]
    return prop["steps"] // prop["stride"] + 1 + (prop["steps"] % prop["stride"] != 0)


def _check_trajectory(op, header, rows):
    if header != TRAJECTORY_COLUMNS:
        return ["trajectory CSV columns changed"]
    problems = []
    if len(rows) != _expected_rows(_scenario(op)):
        problems.append(f"{len(rows)} trajectory rows")
    if not all(math.isfinite(v) for row in rows for v in row):
        return problems + ["non-finite trajectory values"]
    col = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    drift = max(abs(v - 1.0) for v in col["norm"])
    if drift > NORM_DRIFT_TOL:
        problems.append(f"norm drift {drift:.3e}")
    # S_FW and S_Py are constants of the free motion
    for label in ("S_FW", "S_Py"):
        for ax in "xyz":
            values = col[f"{label}_{ax}"]
            spread = max(values) - min(values)
            if spread > SPIN_CONSTANCY_TOL:
                problems.append(f"{label}_{ax} varies by {spread:.3e}")
    if max(col["flux"]) > FLUX_LIMIT:
        problems.append(f"boundary flux {max(col['flux']):.3e}")
    return problems


def _check_sweep(op, header, rows):
    if header != SWEEP_COLUMNS:
        return ["sweep CSV columns changed"]
    ladder = [float(v) for v in _arg(op.argv, "--field-grid").split(",")]
    per_value = _expected_rows(_scenario(op))
    problems = []
    if [row[0] for row in rows] != [v for v in ladder for _ in range(per_value)]:
        problems.append("sweep rows do not follow the field ladder")
    if not all(math.isfinite(v) for row in rows for v in row) or \
            any(row[2] < 0 or row[3] < 0 for row in rows):
        problems.append("sweep distances not finite and non-negative")
    return problems


def _check_operators(op, doc, seed):
    problems = []
    if doc.get("schema") != "relspin-operator-check/1" or doc.get("samples") != 1000 \
            or doc.get("seed") != seed:
        problems.append("operator-check document header changed")
    results = doc.get("results", {})
    if sorted(results) != ["dirac", "fw", "pryce"]:
        return problems + [f"operator kinds {sorted(results)}"]
    problems += [f"{kind}: pass flag false" for kind, r in results.items()
                 if r.get("pass") is not True]
    return problems


def _read(path):
    """A JSON document, or a CSV file as [header, *rows]."""
    if Path(path).suffix == ".csv":
        header, rows = _read_csv(path)
        return [header] + rows
    return _read_json(path)


def check(op, rc, workload, seed, default_seed):
    """Problems found with one finished operation (empty when it passed)."""
    if rc != op.expect_rc:
        return [f"{op.name}: exit code {rc}, expected {op.expect_rc}"]
    try:
        got = _read(op.output)
        if op.name == "verify-dynamics":
            problems = _check_verify(op, got)
        elif op.name == "simulate":
            problems = _check_trajectory(op, got[0], got[1:])
        elif op.name == "sweep":
            problems = _check_sweep(op, got[0], got[1:])
        else:
            problems = _check_operators(op, got, seed)
        if seed == default_seed and not problems:
            reference = _read(reference_path(workload, op))
            problems = compare(got, reference, ATOL[op.name])[:5]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output or reference ({type(exc).__name__}: {exc})"]
    return [f"{op.name}: {p}" for p in problems]


def reference_path(workload, op):
    """Where the default-seed output of ``op`` is kept."""
    return REFERENCE / f"{workload}.{op.name}{Path(op.output).suffix}"
