"""Command-line interface.

Subcommands
-----------
check-operators   fixed-momentum condition battery for the three spin operators
verify-dynamics   commutator-vs-printed-equation verification per scenario
simulate          propagate a scenario and emit the trajectory CSV
sweep             rerun a scenario over a field-strength ladder and emit
                  operator-divergence metrics

Exit codes: 0 pass, 1 scientific check failure or aborted run, 2 usage or
configuration error, non-finite run or output that cannot be written.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .dynamics import (battery_states, classify_residual_series, standard_battery,
                       total_j_identity, verify, verify_residual)
from .errors import BoundaryFluxError, ConfigError, KrylovConvergenceError, PreconditionError
from .expr import release_pool
from .fields import UniformB, UniformE, PlaneWavePulse
from .grid import GridSpec, set_fft_workers
from .operators import PhysParams, SpinKind, condition_checks, energy_k2
from .propagate import run
from .scenario import load_scenario

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_CONDITION_TOL = 1e-12
_DIRAC_ANALYTIC_TOL = 1e-10


#: momenta per ``condition_checks`` call, which bounds its (n, 4, 4) stacks and,
#: with ``_sample_momenta`` drawing directions per chunk, the peak memory
_CHUNK = 1000


def _sample_momenta(n, pmax, params, seed):
    """The n sampled momenta, ``_CHUNK`` at a time: the n magnitudes are drawn
    first, then each chunk's direction normals as it is read, which are the
    normals one draw of all n would give."""
    rng = np.random.default_rng(seed)
    mags = np.power(10.0, rng.uniform(-3.0, np.log10(pmax), n))
    mags *= params.m0 * params.c
    for i in range(0, n, _CHUNK):
        m = mags[i:i + _CHUNK]
        dirs = rng.normal(size=(len(m), 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        yield m[:, None] * dirs


def _worst_residuals(kind, p, params):
    """Per check, the largest residual over the momenta p and the largest
    judged one: ``free`` and ``dirac_mismatch`` per momentum relative to
    ||H_free(p)||_F = 2 E_p, the scale of their roundoff, and the
    dimensionless su2 and spectrum as they are."""
    rep = condition_checks(kind, p, params)
    residuals = {"su2": rep.su2_residual, "spectrum": rep.spectrum_residual,
                 "free": rep.free_commutation_residual, "dirac_mismatch": np.zeros(len(p))}
    if kind is SpinKind.DIRAC:
        # ||(1/i)[S_D,i, H_free]||_F = ||c (alpha x p)_i||_F = 2c sqrt(p_j^2 + p_k^2)
        sq = p**2
        analytic = 2 * params.c * np.sqrt(sq[:, [1, 0, 0]] + sq[:, [2, 2, 1]])
        residuals["dirac_mismatch"] = np.max(
            np.abs(rep.free_commutation_components - analytic), axis=-1)
    scale = dict.fromkeys(("free", "dirac_mismatch"), 2 * energy_k2(np.sum(p**2, -1), params))
    return {k: (np.max(v), np.max(v / scale.get(k, 1.0))) for k, v in residuals.items()}


def cmd_check_operators(args):
    params = PhysParams(m0=args.m0, c=args.c, e=args.e)
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if not 1e-3 < args.pmax < np.inf:  # also false for NaN
        print(f"error: --pmax must be finite and exceed the sampling floor 1e-3, "
              f"got {args.pmax}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    out = _writable(args.json)
    per_kind = {kind: [] for kind in (SpinKind.FW, SpinKind.PRYCE, SpinKind.DIRAC)}
    for p in _sample_momenta(args.samples, args.pmax, params, args.seed):
        for kind, per_chunk in per_kind.items():
            per_chunk.append(_worst_residuals(kind, p, params))

    summary = {}
    for kind, per_chunk in per_kind.items():
        # np.max propagates NaN, and a non-finite worst value fails the kind
        worst, judged = ({k: float(np.max([w[k][i] for w in per_chunk])) for k in per_chunk[0]}
                         for i in (0, 1))  # the reported and the judged values
        tol = dict.fromkeys(("su2", "spectrum", "free"), _CONDITION_TOL)
        if kind is SpinKind.DIRAC:  # gated on matching the analytic violation
            tol["free"], tol["dirac_mismatch"] = np.inf, _DIRAC_ANALYTIC_TOL
        summary[kind.value] = {"residuals": worst, "pass": all(
            np.isfinite(worst[k]) and v <= tol.get(k, np.inf) for k, v in judged.items())}

    print(f"{'kind':8s} {'su2':>12s} {'spectrum':>12s} {'free-comm':>12s}  verdict")
    for kind, entry in summary.items():
        w = entry["residuals"]
        verdict = "ok" if entry["pass"] else "FAIL"
        extra = (f" (matches analytic within {w['dirac_mismatch']:.2e})"
                 if kind == "dirac" else "")
        print(f"{kind:8s} {w['su2']:12.3e} {w['spectrum']:12.3e} "
              f"{w['free']:12.3e}  {verdict}{extra}")
    doc = {"schema": "relspin-operator-check/1",
           "samples": args.samples, "pmax": args.pmax, "seed": args.seed,
           "results": summary}
    if out:
        _write(out, json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK if all(e["pass"] for e in summary.values()) else EXIT_CHECK_FAILED


def _refinement_grids(grid, levels):
    """Coarse-to-fine ladder around the scenario grid: the same box, every
    axis refined alike, and a rung only where every axis has 8 to cap points."""
    cap = 2048 if grid.dim == 1 else 64
    levels = min(levels, cap.bit_length())  # past it, 2**i alone exceeds the cap
    ladder = [[int(n * s) for n in grid.n] for s in [0.5, 1] + [2**i for i in range(1, levels + 1)]]
    return [GridSpec(grid.dim, n, grid.lengths) for n in ladder if 8 <= min(n) and max(n) <= cap]


def _writable(path):
    """``path``, refused before the run when it is a directory or its
    directory does not exist; a path that passes but still cannot be written
    (a full device) is refused by ``_write`` after the run."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ConfigError(path, "not a file in an existing directory")
    return path


def _write(path, text):
    """Write ``text`` to ``path``; a failed write is a usage error naming it."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(path, f"cannot be written: {exc.strerror or exc}") from exc


def _rung_residual(kind, ham, sc, grid):
    """The residual of a refinement rung on its own standard battery, or why
    the rung is skipped; ``verify_residual`` holds one state at a time, and
    the pool is dropped at the rung's end."""
    if sc.battery != "standard":
        return "the single state is tied to the scenario grid"
    try:
        states = battery_states(grid, sc.params)
    except PreconditionError as exc:
        return str(exc)
    residual = verify_residual(kind, ham, states)
    release_pool()
    return residual


def _ladder(kind, family, sc, report):
    """The refinement series of a check verified in ``report``, printing why a
    rung is skipped.  One Hamiltonian, its leaves filled per grid, serves
    every rung; it and the rung grids die with the call."""
    ham = sc.make_hamiltonian(family=family)
    series = []
    for g in _refinement_grids(sc.grid, sc.refine_levels):
        # the scenario grid's residual is the check's own
        r = report.residual if g == sc.grid else _rung_residual(kind, ham, sc, g)
        if isinstance(r, str):
            print(f"  {kind.value}/{family}: refinement rung N={g.n[0]} skipped:", r)
        else:
            series.append((g.n[0], r))
    return series


def cmd_verify_dynamics(args):
    """Verify every check on the scenario grid and the total-J identity, drop
    the scenario states, then run each check's refinement ladder and print
    its table: no scenario state is held while a rung runs."""
    sc = load_scenario(args.scenario)
    if not sc.checks:
        raise ConfigError("verification.checks", "no checks requested")
    out = _writable(args.report or sc.output.get("report"))
    states = standard_battery(sc.grid, sc.params) if sc.battery == "standard" else [
        sc.make_state()]
    reports = [verify(kind, sc.make_hamiltonian(family=family), states)
               for kind, family in sc.checks]
    tj = {kind.value: total_j_identity(kind, states, sc.params)
          for kind in (SpinKind.FW, SpinKind.PRYCE)}
    del states

    all_ok = True
    for (kind, family), report in zip(sc.checks, reports):
        if report.classification != "holds" or args.refine:
            report.refinement = _ladder(kind, family, sc, report)
            report.classification = classify_residual_series(
                [r for _, r in report.refinement] or [report.residual])
            report.term_classification = dict.fromkeys(report.term_names, report.classification)
            if report.classification == "non-converging":
                # the term whose removal shrinks state 0's defect the most
                gains = report.removal_gains
                report.offending_term = max(gains, key=gains.get) if gains else None
        print(report.table())
        if report.classification == "non-converging":
            all_ok = False
            print(f"  non-converging mismatch; offending printed term: {report.offending_term}")
    for kind, residuals in tj.items():
        print(f"total-J identity [{kind}]: " + " ".join(f"{v:.3e}" for v in residuals))

    doc = {"schema": "relspin-verification/1",
           "reports": [r.to_dict() for r in reports],
           "total_j": tj}
    if out:
        _write(out, json.dumps(doc, indent=2, sort_keys=True))
        print(f"report written to {out}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_simulate(args):
    sc = load_scenario(args.scenario)
    if sc.steps < 1:
        raise ConfigError("propagation", "simulate needs a propagation section")
    out = _writable(args.output or sc.output.get("trajectory", "trajectory.csv"))
    ham = sc.make_hamiltonian()
    state = sc.make_state()
    traj = run(ham, state, sc.dt, sc.steps, stride=sc.stride)
    _write(out, traj.to_csv())
    print(f"{len(traj.rows)} samples -> {out}")
    return EXIT_OK


def _with_amplitude(model, value):
    """The sweep's model with its base field rescaled to magnitude ``value``."""
    for cls, attr in ((UniformB, "b0"), (UniformE, "e0"), (PlaneWavePulse, "e0")):
        if isinstance(model, cls):
            base = getattr(model, attr)
            mag = np.linalg.norm(base)
            if mag == 0:
                raise ConfigError(f"field.{attr}", "sweep needs a nonzero base field")
            return dataclasses.replace(model, **{attr: base / mag * value})
    raise ConfigError("field.type", "sweep needs a non-zero field model")


def cmd_sweep(args):
    sc = load_scenario(args.scenario)
    if sc.steps < 1:
        raise ConfigError("propagation", "sweep needs a propagation section")
    try:
        values = [float(v) for v in args.field_grid.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError("--field-grid", f"expected comma-separated numbers: {exc}")
    if not values or not np.all(np.isfinite(values)):
        raise ConfigError("--field-grid", f"needs one or more finite field strengths, got {values}")
    out = _writable(args.output or sc.output.get("sweep", "sweep.csv"))

    state = sc.make_state()
    lines = ["B0,t,d_Py,d_FW"]
    for value in values:
        model = _with_amplitude(sc.model, value)
        ham = sc.make_hamiltonian(model=model)
        traj = run(ham, state, sc.dt, sc.steps, stride=sc.stride)
        t = traj.column("t")
        d_py = np.sqrt(sum((traj.column(f"S_Py_{ax}") - traj.column(f"S_D_{ax}"))**2
                           for ax in "xyz"))
        d_fw = np.sqrt(sum((traj.column(f"S_FW_{ax}") - traj.column(f"S_Py_{ax}"))**2
                           for ax in "xyz"))
        for i in range(len(t)):
            lines.append("%.17g,%.17g,%.17g,%.17g" % (value, t[i], d_py[i], d_fw[i]))
    _write(out, "\n".join(lines) + "\n")
    print(f"sweep over {len(values)} field strengths -> {out}")
    return EXIT_OK


def _threads(text):
    """A --threads value: an integer >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1 (also as RELSPIN_THREADS), got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relspin",
        description="Verification lab and spectral simulator for relativistic "
                    "electron-spin dynamics")
    parser.add_argument("--version", action="version", version=__version__)
    # a string default goes through ``type`` too, so a bad RELSPIN_THREADS is a usage error
    parser.add_argument("--threads", type=_threads, default=os.environ.get("RELSPIN_THREADS", "1"),
                        help="FFT workers (env: RELSPIN_THREADS); BLAS reads OPENBLAS_NUM_THREADS")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-operators",
                       help="fixed-momentum proper-spin-operator conditions")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--pmax", type=float, default=10.0,
                   help="largest sampled |p| in units of m0 c")
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--m0", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--e", type=float, default=-1.0)
    p.add_argument("--json", help="write the machine-readable report here")
    p.set_defaults(func=cmd_check_operators)

    p = sub.add_parser("verify-dynamics",
                       help="verify printed dynamics equations against the "
                            "commutator ground truth")
    p.add_argument("--scenario", required=True)
    p.add_argument("--refine", action="store_true",
                   help="run the refinement ladder even for passing checks")
    p.add_argument("--report", help="output JSON path (overrides scenario)")
    p.set_defaults(func=cmd_verify_dynamics)

    p = sub.add_parser("simulate", help="propagate a scenario, emit CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--output", help="trajectory CSV path (overrides scenario)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep",
                       help="rerun a scenario over a field-strength ladder")
    p.add_argument("--scenario", required=True)
    p.add_argument("--field-grid", required=True,
                   help="comma-separated field strengths")
    p.add_argument("--output", help="sweep CSV path (overrides scenario)")
    p.set_defaults(func=cmd_sweep)
    return parser


#: glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_BYTES = 256 << 20


def _keep_freed_memory() -> bool:
    """Serve blocks of up to 256 MB from the heap and keep up to 256 MB of
    freed heap: a run frees and makes the same large fields over and over
    (16 MB each at 64^3), and with glibc's defaults each is mapped afresh
    and faulted in page by page.  Both are set: a trim threshold alone turns
    off glibc's dynamic mmap threshold, and then every large block is
    mapped.  Returns whether mallopt accepted both; without glibc it does
    nothing and returns False."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no glibc
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all([mallopt(param, _HEAP_BYTES) == 1
                for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD)])


def main(argv=None):
    """Run one subcommand and return its exit code.  Glibc's allocator is
    tuned first (``_keep_freed_memory``), once per call."""
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    set_fft_workers(args.threads)
    try:
        return args.func(args)
    except (ConfigError, PreconditionError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BoundaryFluxError, KrylovConvergenceError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
