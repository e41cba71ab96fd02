"""Scenario configuration: a versioned JSON document describing one run.

Top-level shape (see README for the full field reference)::

    {
      "schema": "relspin-scenario/1",
      "units": "natural",                  # or "si"
      "seed": 1,                           # optional int, read by nothing
      "params": {"m0": 1.0, "c": 1.0, "e": -1.0},
      "grid": {"dim": 1, "n": 512, "lengths": 256.0},
      "field": {"type": "zero"},
      "hamiltonian": {"family": "free"},
      "state": {"center": [0,0,0], "sigma": 24.0, "k0": [1,0,0],
                "polarization": "up_z", "energy_projection": true},
      "propagation": {"dt": 0.002, "steps": 1000, "stride": 10},
      "verification": {"checks": [{"kind": "fw", "family": "free"}],
                       "battery": "standard"},
      "output": {"trajectory": "traj.csv", "report": "report.json"}
    }

With ``units: "si"`` the rest mass and charge are divided by hbar
(1.054571817e-34 J s) on load, after which every internal formula is the
hbar = 1 one; lengths/times/fields stay in SI units.

One ``_Reader`` per JSON object checks each key where it is read and
refuses a key that no read takes; a field ``type`` or envelope ``shape``
names a row of ``_FIELDS`` or ``_ENVELOPES``.  The propagated Hamiltonian
and each check's printed equation are built on load, so a mass or model
they cannot take is refused before any run.  All validation errors carry
the JSON path of the offending field and surface as exit code 2.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .dynamics import positive_energy_part, rhs
from .errors import ConfigError
from .fields import Envelope, FieldModel, PlaneWavePulse, UniformB, UniformE, ZeroField
from .grid import POLARIZATIONS, GridSpec, SpinorField, gaussian_packet
from .hamiltonians import FAMILIES, NamedHamiltonian, build_hamiltonian
from .operators import PhysParams, SpinKind

__all__ = ["Scenario", "load_scenario", "parse_scenario", "SCHEMA_ID"]

SCHEMA_ID = "relspin-scenario/1"
HBAR_SI = 1.054571817e-34

_REQUIRED = object()
_NUMBER = (int, float)


class _Reader:
    """One JSON object of a scenario, at ``path``: ``get`` reads and checks
    one key, and ``done`` refuses any key that no ``get`` read."""

    def __init__(self, doc, path):
        if not isinstance(doc, dict):
            raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
        self.doc, self.path, self.read = doc, path, []

    def at(self, key):
        """The JSON path of ``key``, an index when it is an int."""
        if isinstance(key, int):
            return f"{self.path}[{key}]"
        return f"{self.path}.{key}" if self.path else key

    def get(self, key, types, default=_REQUIRED, *, items=None, size=None, choices=None,
            above=None):
        """doc[key], or ``default`` when absent, checked to be of ``types``
        (a JSON boolean is no number), finite, a string in ``choices`` (for
        a list, every string item) and greater than ``above`` (for a string
        or a list, its length); a list must also have every item of
        ``items`` and a length in the range ``size``."""
        here = self.at(key)
        self.read.append(key)
        if key not in self.doc:
            if default is _REQUIRED:
                raise ConfigError(here, "missing required field")
            return default
        value = self.doc[key]
        if not _is(value, types):
            raise ConfigError(here, f"expected {_names(types)}, got {type(value).__name__}")
        listed = value if isinstance(value, list) else [value]
        if listed is value and items is not None and not all(_is(v, items) for v in value):
            raise ConfigError(here, f"expected a list of {_names(items)}")
        if listed is value and size is not None and len(value) not in size:
            raise ConfigError(here, f"expected {size[0]}" + (
                f" to {size[-1]}" if len(size) > 1 else "") + f" items, got {len(value)}")
        for i, v in enumerate(listed):
            # no number may be NaN, infinite or beyond the float range
            if _is(v, _NUMBER) and not abs(v) <= sys.float_info.max:
                where = f"{here}[{i}]" if listed is value else here
                raise ConfigError(where, f"expected a finite number, got {v!r:.24}")
            if choices is not None and isinstance(v, str) and v not in choices:
                raise ConfigError(here, f"unknown {v!r}; expected one of {list(choices)}")
        sized = isinstance(value, (str, list))
        if above is not None and not (len(value) if sized else value) > above:
            raise ConfigError(here, "must not be empty" if sized else f"must be > {above}")
        return value

    def object(self, key, default=_REQUIRED):
        """The reader of the object at ``key`` (None for an absent one)."""
        doc = self.get(key, dict, default)
        return None if doc is None else _Reader(doc, self.at(key))

    def done(self):
        for key in self.doc:
            if key not in self.read:
                raise ConfigError(self.at(key), f"unknown key; {self.path or 'a scenario'} "
                                                f"takes {', '.join(self.read)}")


def _is(value, types):
    """isinstance, except that a JSON boolean is not a number."""
    return isinstance(value, types) and (types is bool or not isinstance(value, bool))


def _names(types):
    return "/".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))


def _build(path, ctor, *args, **kwargs):
    """``ctor(*args, **kwargs)`` with its ValueError or arithmetic error (a
    prefactor of extreme params) reported at ``path``."""
    try:
        return ctor(*args, **kwargs)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _number(default=_REQUIRED):
    return lambda r, key: float(r.get(key, _NUMBER, default))


def _vector(r, key, default=_REQUIRED):
    return np.asarray(r.get(key, list, default, items=_NUMBER, size=range(3, 4)), dtype=float)


def _coeffs(r, key):
    """Up to three polynomial coefficients, the missing ones zero."""
    coeffs = [float(c) for c in r.get(key, list, [], items=_NUMBER, size=range(4))]
    return tuple(coeffs) + (0.0,) * (3 - len(coeffs))


def _tagged(r, tag, table, default=_REQUIRED):
    """The object of reader ``r`` built by the row of ``table`` that its
    ``tag`` names: a constructor and the reader of each keyword argument."""
    ctor, readers = table[r.get(tag, str, default, choices=table)]
    kwargs = {key: read(r, key) for key, read in readers.items()}
    r.done()
    return _build(r.path, ctor, **kwargs)


_ENVELOPES = {shape: (partial(Envelope, shape=shape), readers) for shape, readers in {
    "constant": {"value": _number(1.0)},
    "poly": {"coeffs": _coeffs},
    "gaussian": {"amplitude": _number(1.0), "center": _number(0.0), "width": _number()},
    "sinusoid": {"amplitude": _number(1.0), "omega": _number(), "phase": _number(0.0)},
}.items()}


def _envelope(r, key):
    return _tagged(r.object(key, {}), "shape", _ENVELOPES, "constant")


_FIELDS = {
    "zero": (ZeroField, {}),
    "uniform_b": (UniformB, {"b0": _vector, "envelope": _envelope}),
    "uniform_e": (UniformE, {"e0": _vector, "envelope": _envelope}),
    "plane_wave": (PlaneWavePulse, {"e0": _vector, "wavevector": _vector, "omega": _number(),
                                    "env_center": _number(0.0), "env_width": _number(5.0)}),
}


@dataclass
class Scenario:
    """Validated, unit-converted scenario ready to build runtime objects."""

    params: PhysParams
    grid: GridSpec
    model: FieldModel
    family: str
    term_mask: list | None
    hermitize: bool
    state_spec: dict
    dt: float
    steps: int
    stride: int
    checks: list
    battery: str
    refine_levels: int
    output: dict = dc_field(default_factory=dict)

    def make_hamiltonian(self, family=None, model=None) -> NamedHamiltonian:
        """The scenario's own Hamiltonian, shaped by its ``terms`` and
        ``hermitize``, when no family is given (what ``simulate`` and
        ``sweep`` propagate); the named family's printed Hamiltonian
        otherwise (a verification check, on every refinement rung)."""
        own = family is None
        return build_hamiltonian(family or self.family, model or self.model, self.params,
                                 self.term_mask if own else None, own and self.hermitize)

    def make_state(self) -> SpinorField:
        """The packet, or with ``energy_projection`` its positive-energy part."""
        if self.state_spec is None:
            raise ConfigError("state", "this scenario has no state section")
        s = self.state_spec
        packet = gaussian_packet(self.grid, s["center"], s["sigma"], s["k0"], s["polarization"])
        return positive_energy_part(packet, self.params) if s["energy_projection"] else packet


def parse_scenario(doc: dict) -> Scenario:
    top = _Reader(doc, "")
    top.get("schema", str, choices=(SCHEMA_ID,))
    units = top.get("units", str, "natural", choices=("natural", "si"))
    top.get("seed", int, 0)  # kept for older documents; nothing reads it

    r = top.object("params", {})
    m0, c, e = (float(r.get(k, _NUMBER, v)) for k, v in (("m0", 1.0), ("c", 1.0), ("e", -1.0)))
    r.done()
    if units == "si":
        m0, e = m0 / HBAR_SI, e / HBAR_SI
    params = _build("params", PhysParams, m0=m0, c=c, e=e)

    r = top.object("grid")
    grid = _build("grid", GridSpec, r.get("dim", int), r.get("n", (int, list), items=int),
                  r.get("lengths", (int, float, list), items=_NUMBER))
    r.done()

    model = _tagged(top.object("field", {"type": "zero"}), "type", _FIELDS)

    r = top.object("hamiltonian", {"family": "free"})
    family = r.get("family", str, choices=FAMILIES)
    term_mask = r.get("terms", list, None, items=str, choices=FAMILIES[family].terms, above=0)
    hermitize = r.get("hermitize", bool, False)
    r.done()
    # the propagated Hamiltonian: building it takes trees only, no grid work
    _build("hamiltonian", build_hamiltonian, family, model, params, term_mask, hermitize)

    r = top.object("state", None)
    state_spec = None
    if r is not None:
        pol = r.get("polarization", (str, list), "up_z", choices=POLARIZATIONS, items=list,
                    size=range(4, 5))
        if isinstance(pol, str):
            pol = POLARIZATIONS[pol]
        else:
            pairs = _Reader(dict(enumerate(pol)), r.at("polarization"))
            pol = np.array([complex(*pairs.get(i, list, items=_NUMBER, size=range(2, 3)))
                            for i in range(4)])
        state_spec = dict(center=_vector(r, "center", [0.0] * 3),
                          sigma=float(r.get("sigma", _NUMBER, above=0)),
                          k0=_vector(r, "k0", [0.0] * 3), polarization=pol,
                          energy_projection=r.get("energy_projection", bool, True))
        r.done()

    r = top.object("propagation", None)
    dt, steps, stride = 0.0, 0, 1
    if r is not None:
        dt = float(r.get("dt", _NUMBER, above=0))
        steps = r.get("steps", int, above=0)
        stride = r.get("stride", int, 1, above=0)
        r.done()

    r = top.object("verification", {})
    listed = r.get("checks", list, [])
    checks, listing = [], _Reader(dict(enumerate(listed)), r.at("checks"))
    for i in range(len(listed)):
        check = listing.object(i)
        kind = SpinKind(check.get("kind", str, choices=[k.value for k in SpinKind]))
        family_i = check.get("family", str, choices=FAMILIES)
        check.done()
        # rhs is the one table of printed equations; it builds trees and applies nothing
        _build(check.path, rhs, kind, family_i, model, params)
        checks.append((kind, family_i))
    battery = r.get("battery", str, "standard", choices=("standard", "state"))
    if battery == "state" and state_spec is None:
        raise ConfigError("verification.battery", "battery 'state' needs a state section")
    refine_levels = r.get("refine_levels", int, 1, above=-1)
    r.done()

    r = top.object("output", {})
    output = {key: r.get(key, str, None, above=0) for key in ("trajectory", "report", "sweep")}
    r.done()
    top.done()
    return Scenario(params, grid, model, family, term_mask,
                    hermitize, state_spec, dt, steps, stride, checks, battery,
                    refine_levels, {k: v for k, v in output.items() if v is not None})


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return parse_scenario(doc)
