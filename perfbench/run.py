"""relspin benchmark: runs one workload and reports its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs the workload's CLI commands one after another, each in a fresh
interpreter (``child.py``), repeating the whole workload until ``--seconds``
have passed (at least once), and checks every command's output.  Prints a
table of every metric with its unit, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with ``--trace 1``.

Inputs, outputs, spans and the run record go to ``.perfbench_run/<workload>/``
in the checkout, which is emptied at the start of each run.  Exits 2 without a
result when the checkout has no relspin sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: a run stops starting commands after this many seconds and kills one
#: still running at the limit, so that every run ends within 180 s
RUN_LIMIT_S = 170.0
#: setup_s is the median of at least this many interpreter starts per run:
#: the commands' own starts, topped up with starts that stop at the entry
#: of main
SETUP_SAMPLES = 9
#: numpy + scipy import time of a fresh interpreter on the reference box (2
#: vCPUs, Python 3.11, numpy 2.4, scipy 1.17).  Interpreter-bound times are
#: reported for a host on which that import takes this long; see NOTES.md.
LIBS_REF_S = 0.42
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "RELSPIN_THREADS": "1"}
NOT_APPLICABLE = ("waiting time: one process, no queues; "
                  "utilization: CPU sandbox, no accelerator")


class Runner:
    """Starts the commands of one benchmark run and keeps what they report."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0", **THREAD_ENV)
        self.count = 0
        self.setup_s = []
        self.libs_s = []

    def start(self, argv, probe=False, spans=None):
        """Run child.py once; returns its record, or None if it died."""
        self.count += 1
        tag = f"{self.count:03d}"
        record = self.work / f"child-{tag}.json"
        opts = ["--probe"] if probe else (["--spans", str(spans)] if spans else [])
        cmd = [sys.executable, str(HERE / "child.py"), str(record), *opts, "--", *argv]
        with open(self.work / f"child-{tag}.out", "w") as out, \
                open(self.work / f"child-{tag}.err", "w") as err:
            started = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=out, stderr=err)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return None
        if proc.returncode != 0 or not record.exists():
            return None
        with open(record) as fh:
            rec = json.load(fh)
        rec["setup_s"] = rec["entry"] - started
        if not spans:
            self.setup_s.append(rec["setup_s"])
            self.libs_s.append(rec["libs"] - started)
        return rec


def run_pass(runner, wl, seed, default_seed, traced, label):
    """One run of every command of the workload; returns its summary."""
    result = {"wall_s": 0.0, "maxrss_kb": 0, "ops": [], "spans": []}
    for i, op in enumerate(wl.ops):
        spans = runner.work / f"spans-{label}-{i}.jsonl" if traced else None
        rec = runner.start(op.argv, spans=spans)
        if rec is None:
            problems = [f"{op.name}: the command did not finish"]
        else:
            problems = ([f"{op.name}: uncaught exception"] if "error" in rec else []) + \
                checks.check(op, rec["rc"], wl.name, seed, default_seed)
            result["wall_s"] += rec["wall_s"]
            result["maxrss_kb"] = max(result["maxrss_kb"], rec["maxrss_kb"])
        result["ops"].append({"op": op.name, "problems": problems,
                              "wall_s": rec and rec["wall_s"]})
        if spans:
            result["spans"].append(spans)
    result["failed"] = sum(1 for o in result["ops"] if o["problems"])
    return result


def schedule(trace):
    """Whether each successive pass is traced.  A traced run starts with its
    traced pass (the per-layer metrics come from it), then alternates
    untraced and traced passes to measure the tracing overhead."""
    if trace == 1:
        yield True
    while True:
        yield False
        if trace == 1:
            yield True


def read_spans(paths):
    absent, lists = {}, []
    for path in paths:
        if not path.exists():       # the command died; counted as failed
            continue
        with open(path) as fh:
            absent.update(json.loads(fh.readline())["absent"])
            lists.append([json.loads(line) for line in fh])
    return absent, lists


def tail_percentile(values):
    """The highest whole percentile above the median with at least ten
    samples beyond it, as (percentile, value), or None."""
    n = len(values)
    pct = math.floor(100 * (1 - 10 / n)) if n else 0
    if pct <= 50:
        return None
    return pct, sorted(values)[math.ceil(pct / 100 * n) - 1]


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def provenance():
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "nproc": os.cpu_count(), "threads": {"--threads": "1", **THREAD_ENV},
            "loadavg_start": list(os.getloadavg())}


def _metric(value, unit, absent=None):
    m = {"value": value, "unit": unit}
    if absent:
        m["absent"] = absent
    return m


def end_to_end(passes, runner, wl, spec):
    """The run's end-to-end metrics and the table lines describing them.

    Interpreter-bound times are rescaled to the reference host speed: each
    interpreter start measures how long the numpy and scipy imports took, a
    fixed piece of interpreter-bound work that relspin cannot change.  setup_s
    scales each start by its own import time; wall_s of an interpreter-bound
    workload scales by the run's median import time.
    """
    walls = [p["wall_s"] for p in passes if not any(
        o["wall_s"] is None for o in p["ops"])]
    raw_wall = statistics.median(walls) if walls else 0.0
    if not runner.libs_s:           # no interpreter reached relspin
        runner.setup_s, runner.libs_s = [0.0], [LIBS_REF_S]
    scale = LIBS_REF_S / statistics.median(runner.libs_s)
    values = {"wall_s": raw_wall * scale if wl.interpreter_bound else raw_wall,
              "setup_s": LIBS_REF_S * statistics.median(
                  s / lib for s, lib in zip(runner.setup_s, runner.libs_s)),
              "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024.0}
    tail = tail_percentile(walls)
    lines = [f"wall_s       {values['wall_s']:.4f} s   " + (
                 f"{raw_wall:.4f} s measured x host scale {scale:.3f}; "
                 if wl.interpreter_bound else "") +
             f"median of {len(walls)} workload passes; " +
             (f"p{tail[0]} {tail[1]:.4f} s measured" if tail else
              "no tail percentile: fewer than 21 samples"),
             f"setup_s      {values['setup_s']:.4f} s   median of "
             f"{len(runner.setup_s)} interpreter starts, each scaled by its "
             f"numpy+scipy import time (measured median "
             f"{statistics.median(runner.setup_s):.4f} s)",
             f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB  largest ru_maxrss of "
             f"the commands"]
    return {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec}, lines


def per_layer(traced, untraced_walls, traced_walls, spec, attempted, failed):
    absent, lists = read_spans(traced["spans"])
    measured = tracer.layer_metrics(lists)
    if untraced_walls:
        measured["trace.overhead_frac"] = (statistics.median(traced_walls) /
                                           statistics.median(untraced_walls) - 1.0)
    else:
        absent["trace.overhead_frac"] = "no untraced pass fitted the run time limit"
    measured["fail_frac"] = failed / attempted
    out = {}
    for m in spec:
        name = m["name"]
        reason = (absent.get(name) or tracer.absent_reason(name, absent) or
                  (None if name in measured or tracer.unit_of(name) else
                   "no such metric in this benchmark version"))
        out[name] = _metric(measured.get(name, 0) if not reason else 0,
                            m["unit"], reason)
    extra = sorted(set(measured) - set(out))
    return out, measured, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the default-seed reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "relspin" / "cli.py").is_file() or \
            not (ROOT / "scenarios").is_dir():
        print(f"error: no relspin sources (src/relspin, scenarios/) under {ROOT}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    t0 = time.monotonic()
    prov = provenance()

    work = ROOT / ".perfbench_run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.build(args.workload, ROOT, work, args.seed)
    runner = Runner(work, t0 + RUN_LIMIT_S)
    default_seed = None if args.write_reference else workloads.DEFAULT_SEED

    runner.start([], probe=True)     # fills bytecode caches; not counted
    runner.setup_s.clear()
    runner.libs_s.clear()
    passes, traced_passes = [], []
    measuring = time.monotonic()
    for traced in schedule(args.trace):
        begun = time.monotonic()
        p = run_pass(runner, wl, args.seed, default_seed, traced,
                     label=len(passes) + len(traced_passes))
        (traced_passes if traced else passes).append(p)
        now = time.monotonic()
        if now - measuring >= seconds and (args.trace == 0 or passes):
            break
        if now + (now - begun) > runner.deadline - 10:
            break
    if args.write_reference:
        checks.REFERENCE.mkdir(exist_ok=True)
        for op in wl.ops:
            shutil.copy(op.output, checks.reference_path(wl.name, op))
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - len(runner.setup_s)):
            runner.start([], probe=True)

    every = passes + traced_passes
    attempted = sum(len(p["ops"]) for p in every)
    failed = sum(p["failed"] for p in every)
    problems = [q for p in every for o in p["ops"] for q in o["problems"]]

    print(f"relspin benchmark: workload={wl.name} seed={args.seed} "
          f"trace={args.trace} seconds={seconds:g}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("inputs: " + json.dumps(wl.inputs, sort_keys=True))
    print(f"fail_frac    {failed / attempted:.4f}     {failed} of {attempted} "
          f"commands failed their check")
    for q in problems[:10]:
        print(f"  check failed: {q}")
    if args.trace == 0:
        metrics, lines = end_to_end(passes, runner, wl, bench["end_to_end"])
        extra, measured = [], {}
    else:
        metrics, measured, extra = per_layer(
            traced_passes[0], [p["wall_s"] for p in passes],
            [p["wall_s"] for p in traced_passes], bench["per_layer"],
            attempted, failed)
        lines = [f"{name:42s} {m['value']:<14.6g} {m['unit']}" +
                 (f"  ABSENT: {m['absent']}" if "absent" in m else "")
                 for name, m in metrics.items()]
        lines += [f"{name:42s} {measured[name]:<14.6g} (not in BENCHMARK.json)"
                  for name in extra]
        lines.append(f"not applicable: {NOT_APPLICABLE}")
    print("\n".join(lines))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"provenance": prov, "workload": wl.name, "seed": args.seed,
              "trace": args.trace, "inputs": wl.inputs, "result": result,
              "passes": [{k: p[k] for k in ("wall_s", "maxrss_kb", "ops")}
                         for p in passes],
              "traced_passes": [{k: p[k] for k in ("wall_s", "maxrss_kb", "ops")}
                                for p in traced_passes],
              "setup_s": runner.setup_s, "libs_s": runner.libs_s,
              "all_layer_metrics": measured}
    with open(work / "record.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
