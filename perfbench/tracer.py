"""Out-of-program tracing for the traced benchmark run.

``Tracer.install()`` wraps relspin's public functions from outside: every
``relspin`` module namespace that binds a target gets its own wrapper (so a
function imported by name into several modules is traced wherever it is
called from), methods are wrapped on their classes, and ``scipy.fft.fftn`` /
``ifftn`` are wrapped on ``scipy.fft`` to count transforms and computed bytes.

Each call records a span ``[name, start, end, parent, key, error, via]``;
``parent`` is the index of the enclosing span (-1 at the root), ``key``
carries the attribution a metric needs (bytes for an FFT, the (kind, family,
N) of a verify call, the tag of the expression an apply acted on), ``error``
the class name of an exception that left the call, and ``via`` the module
whose binding was called.  Spans stay in memory and are written out by the
caller when the operation ends.

Expressions returned by the ``build_*`` Hamiltonians, ``spin_expr`` and ``rhs``
are tagged by object identity, so an apply can be attributed to a family,
spin kind or printed right-hand side.

A target that no longer exists is recorded in ``absent`` with the reason; the
metrics fed by it are then reported as absent instead of crashing the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (span name, module, attribute): the attribute may be "Class.method"
TARGETS = [
    ("fft", "scipy.fft", "fftn"),
    ("fft", "scipy.fft", "ifftn"),
    ("grid.packet", "relspin.grid", "gaussian_packet"),
    ("expr.apply", "relspin.expr", "apply_expr"),
    ("expr.expectation", "relspin.expr", "expectation"),
    ("hamiltonians.build", "relspin.hamiltonians", "build_free_dirac"),
    ("hamiltonians.build", "relspin.hamiltonians", "build_dirac_em"),
    ("hamiltonians.build", "relspin.hamiltonians", "build_fw_full"),
    ("hamiltonians.build", "relspin.hamiltonians", "build_fw_direct"),
    ("hamiltonians.build", "relspin.hamiltonians", "NamedHamiltonian.subset"),
    ("dynamics.spin_expr", "relspin.dynamics", "spin_expr"),
    ("dynamics.rhs", "relspin.dynamics", "rhs"),
    ("dynamics.verify", "relspin.dynamics", "verify"),
    ("dynamics.battery", "relspin.dynamics", "standard_battery"),
    ("dynamics.total_j", "relspin.dynamics", "total_j_identity"),
    ("propagate.run", "relspin.propagate", "run"),
    ("propagate.strang", "relspin.propagate", "strang_step_dirac"),
    ("propagate.krylov", "relspin.propagate", "krylov_step"),
    ("propagate.output", "relspin.propagate", "Trajectory.to_csv"),
    ("propagate.output", "relspin.propagate", "Trajectory.save"),
    ("operators.condition_checks", "relspin.operators", "condition_checks"),
    ("operators.spin_operator", "relspin.operators", "spin_operator"),
    ("algebra.herm_eigs", "relspin.algebra", "herm_eigs"),
    ("scenario.load", "relspin.scenario", "load_scenario"),
]
#: the FieldModel.*_mesh methods are found by name on every model class
MESH_SPAN = "fields.mesh"

ROOT_SPAN = "cli.main"


def _relspin_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "relspin" or n.startswith("relspin."))]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _kind_value(kind):
    return getattr(kind, "value", str(kind))


def _verify_key(args, kwargs):
    states = _arg(args, kwargs, 2, "states")
    return [_kind_value(_arg(args, kwargs, 0, "kind")),
            _arg(args, kwargs, 1, "hamiltonian").family, int(states[0].grid.n[0])]


def _tag_of(tags):
    def key(args, kwargs):
        hit = tags.get(id(_arg(args, kwargs, 0, "expr")))
        return None if hit is None else hit[1]
    return key


def _fft_bytes(out, args, kwargs):
    return int(_arg(args, kwargs, 0, "x").nbytes) + int(out.nbytes)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = {}       # span name -> reason
        self.tags = {}         # id(expr) -> (expr, tag); holds a reference
        self._undo = []

    # -- tagging ------------------------------------------------------------
    def _tag(self, expr, tag):
        self.tags[id(expr)] = (expr, tag)

    def _tag_hamiltonian(self, ham, args, kwargs):
        self._tag(ham.total, ["H", ham.family])

    def _tag_spin(self, triple, args, kwargs):
        kind = _kind_value(_arg(args, kwargs, 0, "kind"))
        for comp in triple:
            self._tag(comp, ["S", kind])

    def _tag_rhs(self, result, args, kwargs):
        kind = _kind_value(_arg(args, kwargs, 0, "kind"))
        family = _arg(args, kwargs, 1, "family")
        terms, total = result
        for triple in [total] + [t for _, t in terms]:
            for comp in triple:
                self._tag(comp, ["R", kind, family])

    # -- spans --------------------------------------------------------------
    def span(self, name, fn, key=None, post=None, via=None):
        """Return ``fn`` wrapped so that each call records a span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   key(args, kwargs) if key else None, None, via]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                result = post(out, args, kwargs)
                if result is not None:
                    rec[4] = result
            return out
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every target.  Import ``relspin.cli`` (and so every relspin
        module the CLI uses) before calling this."""
        posts = {"hamiltonians.build": self._tag_hamiltonian,
                 "dynamics.spin_expr": self._tag_spin,
                 "dynamics.rhs": self._tag_rhs}
        keys = {"dynamics.verify": _verify_key,
                "expr.apply": _tag_of(self.tags),
                "expr.expectation": _tag_of(self.tags)}
        missing, installed = {}, set()
        for name, modname, attr in TARGETS:
            module = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            orig = vars(owner).get(meth) if owner is not None else None
            if not callable(orig):
                missing.setdefault(name, f"{modname}.{attr} not found")
                continue
            installed.add(name)
            if name == "fft":
                self._patch(owner, meth, self.span(name, orig, post=_fft_bytes))
            elif isinstance(owner, type):
                self._patch(owner, meth, self.span(name, orig, keys.get(name),
                                                   posts.get(name)))
            else:
                for mod in _relspin_modules():
                    via = mod.__name__.rsplit(".", 1)[-1]
                    for bound, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, bound, self.span(
                                name, orig, keys.get(name), posts.get(name), via))
        self.absent.update({n: r for n, r in missing.items() if n not in installed})
        self._install_mesh()
        return self

    def _install_mesh(self):
        fields = sys.modules.get("relspin.fields")
        base = getattr(fields, "FieldModel", None)
        found = False
        if base is not None:
            for _, cls in inspect.getmembers(fields, inspect.isclass):
                if not issubclass(cls, base):
                    continue
                for meth, fn in list(cls.__dict__.items()):
                    if meth.endswith("_mesh") and callable(fn):
                        self._patch(cls, meth, self.span(MESH_SPAN, fn))
                        found = True
        if not found:
            self.absent[MESH_SPAN] = "no FieldModel.*_mesh methods in relspin.fields"

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def run_root(self, fn, *args):
        """Call ``fn`` (``relspin.cli.main``) inside the root span."""
        return self.span(ROOT_SPAN, fn)(*args)


# -- per-layer metrics from the spans of one traced pass ----------------------

#: metric name -> unit, for the metrics every workload reports; keyed
#: families (``hamiltonians.apply_ms.<family>`` ...) are added as they occur
UNITS = {
    "grid.fft_calls": "count", "grid.fft_s": "s", "grid.fft_gb": "GB-computed",
    "grid.packet_s": "s",
    "fields.mesh_calls": "count", "fields.mesh_s": "s",
    "expr.apply_calls": "count", "expr.apply_self_s": "s",
    "expr.expectation_calls": "count", "expr.expectation_self_s": "s",
    "expr.fft_per_apply": "fft/apply",
    "hamiltonians.build_s": "s",
    "dynamics.verify_calls": "count", "dynamics.expr_build_s": "s",
    "dynamics.battery_s": "s", "dynamics.total_j_s": "s",
    "dynamics.guard_refusals": "count",
    "propagate.strang_steps": "count", "propagate.strang_step_ms": "ms",
    "propagate.strang_fft_per_step": "fft/step",
    "propagate.krylov_steps": "count", "propagate.krylov_step_ms": "ms",
    "propagate.krylov_matvecs_per_step": "matvec/step",
    "propagate.krylov_failures": "count",
    "propagate.measure_s": "s", "propagate.output_s": "s",
    "operators.condition_checks_ms": "ms", "operators.spin_operator_s": "s",
    "algebra.herm_eigs_calls": "count", "algebra.herm_eigs_s": "s",
    "scenario.load_s": "s", "cli.direct_apply_s": "s", "cli.unattributed_s": "s",
}
KEYED_UNITS = {
    "hamiltonians.apply_ms.": "ms", "hamiltonians.fft_per_apply.": "fft/apply",
    "dynamics.verify_s.": "s", "dynamics.verify_fft.": "count",
    "dynamics.spin_apply_ms.": "ms", "dynamics.rhs_apply_ms.": "ms",
}
#: metric-name prefix -> spans it is computed from (for absent reporting)
NEEDS = {
    "grid.fft": ["fft"], "grid.packet": ["grid.packet"], "fields.": [MESH_SPAN],
    "expr.apply": ["expr.apply"], "expr.expectation": ["expr.expectation"],
    "expr.fft_per_apply": ["expr.apply", "fft"],
    "hamiltonians.build": ["hamiltonians.build"],
    "hamiltonians.apply": ["hamiltonians.build", "expr.apply", "expr.expectation"],
    "hamiltonians.fft": ["hamiltonians.build", "expr.apply", "expr.expectation", "fft"],
    "dynamics.verify_fft": ["dynamics.verify", "fft"],
    "dynamics.verify": ["dynamics.verify"],
    "dynamics.spin_apply": ["dynamics.spin_expr", "expr.apply", "expr.expectation"],
    "dynamics.rhs_apply": ["dynamics.rhs", "expr.apply", "expr.expectation"],
    "dynamics.expr_build": ["dynamics.spin_expr", "dynamics.rhs"],
    "dynamics.battery": ["dynamics.battery"], "dynamics.total_j": ["dynamics.total_j"],
    "dynamics.guard": ["expr.apply", "expr.expectation"],
    "propagate.strang_fft": ["propagate.strang", "fft"],
    "propagate.strang": ["propagate.strang"],
    "propagate.krylov_matvecs": ["propagate.krylov", "hamiltonians.build", "expr.apply"],
    "propagate.krylov": ["propagate.krylov"],
    "propagate.measure": ["propagate.run", "expr.expectation"],
    "propagate.output": ["propagate.output"],
    "operators.condition": ["operators.condition_checks"],
    "operators.spin_operator": ["operators.spin_operator"],
    "algebra.": ["algebra.herm_eigs"], "scenario.": ["scenario.load"],
    "cli.direct_apply": ["expr.apply"],
}
_STEPS = ("propagate.strang", "propagate.krylov")


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    for prefix, unit in KEYED_UNITS.items():
        if name.startswith(prefix):
            return unit
    return None


def absent_reason(name, absent):
    """Why ``name`` cannot be measured, or None when it can."""
    for prefix, spans in NEEDS.items():
        if name.startswith(prefix):
            reasons = [f"{s}: {absent[s]}" for s in spans if s in absent]
            return "; ".join(reasons) or None
    return None


def _raw_sums(spans, raw):
    """Add one operation's span list into the running sums ``raw``."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * n
    ffts = [0] * n                      # FFT spans below each span
    for i in range(n - 1, -1, -1):      # children come after their parent
        p = spans[i][3]
        if p >= 0:
            covered[p] += dur[i]
            ffts[p] += ffts[i] + (spans[i][0] == "fft")
    in_run = [False] * n
    in_step = [False] * n
    for i in range(n):
        p = spans[i][3]
        if p >= 0:
            in_run[i] = in_run[p] or spans[p][0] == "propagate.run"
            in_step[i] = in_step[p] or spans[p][0] in _STEPS

    def add(key, value):
        raw[key] = raw.get(key, 0) + value

    for i, (name, _, _, parent, key, err, via) in enumerate(spans):
        d, own = dur[i], dur[i] - covered[i]
        if name == "fft":
            add("grid.fft_calls", 1)
            add("grid.fft_s", d)
            add("grid.fft_gb", key / 1e9)
        elif name == "grid.packet":
            add("grid.packet_s", own)
        elif name == MESH_SPAN:
            add("fields.mesh_calls", 1)
            add("fields.mesh_s", own)
        elif name in ("expr.apply", "expr.expectation"):
            short = name.split(".")[1]
            add(f"expr.{short}_calls", 1)
            add(f"expr.{short}_self_s", own)
            if name == "expr.apply":
                add("expr.apply_fft", ffts[i])
                if via == "cli":
                    add("cli.direct_apply_s", d)
            if err == "SingularMomentumError":
                add("dynamics.guard_refusals", 1)
            if name == "expr.expectation" and in_run[i] and not in_step[i]:
                add("propagate.measure_s", d)
            if key is not None:
                label = {"H": "hamiltonians.apply", "S": "dynamics.spin_apply",
                         "R": "dynamics.rhs_apply"}[key[0]]
                suffix = ".".join(str(k) for k in key[1:])
                add(f"{label}.n.{suffix}", 1)
                add(f"{label}.t.{suffix}", d)
                add(f"{label}.fft.{suffix}", ffts[i])
                if key[0] == "H" and parent >= 0 and spans[parent][0] == "propagate.krylov":
                    add("propagate.krylov_matvecs", 1)
        elif name == "hamiltonians.build":
            add("hamiltonians.build_s", own)
        elif name in ("dynamics.spin_expr", "dynamics.rhs"):
            add("dynamics.expr_build_s", own)
        elif name == "dynamics.verify":
            suffix = f"{key[0]}.{key[1]}.n{key[2]}"
            add("dynamics.verify_calls", 1)
            add(f"dynamics.verify_s.{suffix}", d)
            add(f"dynamics.verify_fft.{suffix}", ffts[i])
        elif name == "dynamics.battery":
            add("dynamics.battery_s", d)
        elif name == "dynamics.total_j":
            add("dynamics.total_j_s", d)
        elif name in _STEPS:
            kind = name.split(".")[1]
            add(f"propagate.{kind}_steps", 1)
            add(f"propagate.{kind}_t", d)
            add(f"propagate.{kind}_fft", ffts[i])
            if err == "KrylovConvergenceError":
                add("propagate.krylov_failures", 1)
        elif name == "propagate.output":
            add("propagate.output_s", own)
        elif name == "operators.condition_checks":
            add("operators.condition_checks_n", 1)
            add("operators.condition_checks_t", d)
        elif name == "operators.spin_operator":
            add("operators.spin_operator_s", own)
        elif name == "algebra.herm_eigs":
            add("algebra.herm_eigs_calls", 1)
            add("algebra.herm_eigs_s", own)
        elif name == "scenario.load":
            add("scenario.load_s", own)
        elif name == ROOT_SPAN:
            add("cli.unattributed_s", own)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(span_lists):
    """Per-layer metrics of one traced pass (one span list per operation).

    Totals named ``*_s`` are self times (a span's duration minus its child
    spans) except the phase timers ``dynamics.verify_s.*``, ``battery_s``,
    ``total_j_s``, ``propagate.measure_s`` and ``cli.direct_apply_s``, which
    are inclusive.  Per-call ``*_ms`` figures are inclusive.  Quantities that
    did not occur read 0.
    """
    raw = {}
    for spans in span_lists:
        _raw_sums(spans, raw)
    out = {name: raw.get(name, 0) for name in UNITS}
    out["expr.fft_per_apply"] = _ratio(raw.get("expr.apply_fft", 0),
                                       raw.get("expr.apply_calls", 0))
    for kind in ("strang", "krylov"):
        steps = raw.get(f"propagate.{kind}_steps", 0)
        out[f"propagate.{kind}_step_ms"] = _ratio(raw.get(f"propagate.{kind}_t", 0),
                                                  steps, 1e3)
    out["propagate.strang_fft_per_step"] = _ratio(raw.get("propagate.strang_fft", 0),
                                                  raw.get("propagate.strang_steps", 0))
    out["propagate.krylov_matvecs_per_step"] = _ratio(
        raw.get("propagate.krylov_matvecs", 0), raw.get("propagate.krylov_steps", 0))
    out["operators.condition_checks_ms"] = _ratio(
        raw.get("operators.condition_checks_t", 0),
        raw.get("operators.condition_checks_n", 0), 1e3)
    for key, value in raw.items():
        if key.startswith(("dynamics.verify_s.", "dynamics.verify_fft.")):
            out[key] = value
        for label, fft_name in (("hamiltonians.apply", "hamiltonians.fft_per_apply"),
                                ("dynamics.spin_apply", None),
                                ("dynamics.rhs_apply", None)):
            if key.startswith(f"{label}.n."):
                suffix = key[len(label) + 3:]
                out[f"{label}_ms.{suffix}"] = _ratio(raw[f"{label}.t.{suffix}"], value, 1e3)
                if fft_name:
                    out[f"{fft_name}.{suffix}"] = _ratio(raw[f"{label}.fft.{suffix}"], value)
    return out
