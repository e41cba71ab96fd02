"""Seeded input generator: the benchmark's scenario files and CLI argument lists.

Every workload is derived from a shipped scenario in ``scenarios/``.  The seed
varies physical inputs only (field strength, packet momentum, polarization,
field ladder, momentum-sample seed); grid sizes, step counts and sample counts
never change, so the work a seed asks for is the same for every seed.
``DEFAULT_SEED`` reproduces the shipped values exactly.

Standard library only: run.py never imports relspin itself.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 7
THREADS = ["--threads", "1"]

_POLARIZATIONS = ("up_z", "down_z", "up_x", "down_x")
#: packet-level zero-mode guard (relspin.expr.DEFAULT_ZERO_MODE_GUARD)
_ZERO_MODE_GUARD = 1e-10
_DEFAULT_LADDER = [0.5, 1.0, 2.0, 4.0]


@dataclass
class Op:
    """One CLI command of a workload, with the exit code it must return."""

    name: str
    argv: list
    expect_rc: int
    output: str             # the file the command writes


@dataclass
class Workload:
    name: str
    ops: list
    inputs: dict            # what the seed drew, for the run record
    #: whether the time goes to the interpreter rather than to memory
    #: bandwidth; such a workload slows in step with the host's
    #: interpreter speed, so its wall_s is rescaled (see NOTES.md)
    interpreter_bound: bool


def _load(root: Path, name: str) -> dict:
    with open(root / "scenarios" / name) as fh:
        return json.load(fh)


def _write(doc: dict, path: Path) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return str(path)


def _group_velocity(k, doc):
    p = doc["params"]
    c, m0 = p["c"], p["m0"]
    return c * c * abs(k) / math.sqrt(k * k * c * c + (m0 * c * c) ** 2)


def check_packet_guards(doc: dict):
    """Raise ValueError unless the scenario's packet satisfies the margin,
    flux and zero-mode guards with the Gaussian-tail estimates below."""
    g, s = doc["grid"], doc["state"]
    half = g["lengths"] / 2.0
    sigma, k0 = s["sigma"], s["k0"][0]
    center = abs(s["center"][0])
    if center > half - 4.0 * sigma:
        raise ValueError("packet centre closer than 4 sigma to the boundary")
    # |psi|^2 is Gaussian with std sigma; the flux shell starts L/16 inside
    # the boundary.  Keep the tail beyond it under the abort threshold at the
    # last step: 5 sigma leaves a one-sided tail of 3e-7, under the 1e-6
    # flux abort of relspin.propagate.run.
    prop = doc.get("propagation")
    moving = doc["hamiltonian"]["family"] in ("free", "dirac-em") or \
        "kinetic" in doc["hamiltonian"].get("terms", ["kinetic"])
    travel = _group_velocity(k0, doc) * prop["dt"] * prop["steps"] if (
        prop and moving) else 0.0
    shell = half - g["lengths"] / 16.0
    if center + travel + 5.0 * sigma > shell:
        raise ValueError(f"packet reaches the flux shell (travel {travel:.3g})")
    # momentum-space Gaussian exp(-2 sigma^2 (k - k0)^2): weight in the k = 0 bin
    if math.exp(-2.0 * sigma * sigma * k0 * k0) > _ZERO_MODE_GUARD:
        raise ValueError("packet zero-mode weight exceeds the guard")


def verify_3d(root: Path, work: Path, seed: int) -> Workload:
    doc = _load(root, "uniform_b_verification.json")
    # only the pryce check: with the fw check as well one pass takes 66-84 s
    # on the reference box, too long to repeat the other workloads often
    # enough for steady medians within the run budget (see NOTES.md)
    doc["verification"]["checks"] = [{"kind": "pryce", "family": "dirac-em"}]
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        # direction fixed along z: the operator trees and the work stay the same
        doc["field"]["b0"] = [0.0, 0.0, round(rng.uniform(0.03, 0.07), 6)]
    doc["output"] = {}
    scenario = _write(doc, work / "verify_3d.json")
    report = str(work / "verify_3d_report.json")
    # exit code 1 by design: the pryce/dirac-em check classifies non-converging
    op = Op("verify-dynamics",
            THREADS + ["verify-dynamics", "--scenario", scenario, "--report", report],
            1, report)
    return Workload("verify_3d", [op], {"b0_z": doc["field"]["b0"][2]}, False)


def simulate_1d(root: Path, work: Path, seed: int) -> Workload:
    free = _load(root, "free_particle.json")
    larmor = _load(root, "larmor_sweep.json")
    ladder = list(_DEFAULT_LADDER)
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        free["state"]["k0"] = [round(rng.uniform(0.6, 0.8), 6), 0, 0]
        free["state"]["polarization"] = rng.choice(_POLARIZATIONS)
        larmor["state"]["k0"] = [round(rng.uniform(0.7, 1.1), 6), 0, 0]
        # transverse to B only: a packet polarized along B is an eigenstate
        # of the Zeeman term and halves the Krylov matvecs per step
        larmor["state"]["polarization"] = rng.choice(("up_x", "down_x"))
        ladder = sorted(round(rng.uniform(0.25, 4.0), 6) for _ in range(4))
    for doc in (free, larmor):
        check_packet_guards(doc)
        doc["output"] = {}
    traj = str(work / "free_trajectory.csv")
    sweep = str(work / "larmor_sweep.csv")
    ops = [
        Op("simulate", THREADS + ["simulate", "--scenario",
                                  _write(free, work / "free_particle.json"),
                                  "--output", traj], 0, traj),
        Op("sweep", THREADS + ["sweep", "--scenario",
                               _write(larmor, work / "larmor_sweep.json"),
                               "--field-grid", ",".join(repr(v) for v in ladder),
                               "--output", sweep], 0, sweep),
    ]
    inputs = {"free_k0": free["state"]["k0"][0],
              "free_polarization": free["state"]["polarization"],
              "larmor_k0": larmor["state"]["k0"][0],
              "larmor_polarization": larmor["state"]["polarization"],
              "ladder": ladder}
    return Workload("simulate_1d", ops, inputs, True)


def check_operators(root: Path, work: Path, seed: int) -> Workload:
    out = str(work / "check_operators.json")
    op = Op("check-operators",
            THREADS + ["check-operators", "--samples", "1000", "--seed", str(seed),
                       "--json", out], 0, out)
    return Workload("check_operators", [op], {"samples": 1000, "seed": seed}, True)


WORKLOADS = {"verify_3d": verify_3d, "simulate_1d": simulate_1d,
             "check_operators": check_operators}


def build(name: str, root: Path, work: Path, seed: int) -> Workload:
    """Write the workload's inputs under ``work`` and return its operations."""
    return WORKLOADS[name](root, work, seed)
