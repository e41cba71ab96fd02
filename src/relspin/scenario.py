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
hbar = 1 one; lengths/times/fields stay in SI units.  All validation errors
carry the JSON path of the offending field and surface as exit code 2.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dynamics import rhs
from .errors import ConfigError
from .fields import Envelope, FieldModel, PlaneWavePulse, UniformB, UniformE, ZeroField
from .grid import POLARIZATIONS, GridSpec, SpinorField, gaussian_packet
from .hamiltonians import FAMILIES, NamedHamiltonian, build_hamiltonian
from .operators import PhysParams, SpinKind

__all__ = ["Scenario", "load_scenario", "parse_scenario", "SCHEMA_ID"]

SCHEMA_ID = "relspin-scenario/1"
HBAR_SI = 1.054571817e-34

_KINDS = {"dirac": SpinKind.DIRAC, "fw": SpinKind.FW, "pryce": SpinKind.PRYCE}


_SENTINEL = object()


def _get(doc, path, key, expected=None, default=_SENTINEL, items=None):
    """doc[key] checked against ``expected`` types (and, for a list, every
    element against ``items``), or ``default`` when absent."""
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    here = f"{path}.{key}" if path else key
    if key not in doc:
        if default is not _SENTINEL:
            return default
        raise ConfigError(here, "missing required field")
    value = doc[key]
    if expected is not None and not _is(value, expected):
        raise ConfigError(
            here, f"expected {_names(expected)}, got {type(value).__name__}")
    if items is not None and isinstance(value, list) and not all(
            _is(v, items) for v in value):
        raise ConfigError(here, f"expected a list of {_names(items)}")
    _check_finite(value, here)
    return value


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


def _check_finite(value, where):
    """No scenario number may be NaN, infinite or beyond the float range."""
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise ConfigError(where, f"expected a finite number, got {value!r:.24}")
    if isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _check_finite(v, f"{where}[{i}]")


def _vec3(doc, path, key, default=_SENTINEL):
    v = _get(doc, path, key, list, default)
    if len(v) != 3 or not all(_is(x, (int, float)) for x in v):
        raise ConfigError(f"{path}.{key}", "expected a 3-vector of numbers")
    return np.asarray(v, dtype=float)


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
        if self.state_spec is None:
            raise ConfigError("state", "this scenario has no state section")
        spec = self.state_spec
        return gaussian_packet(
            self.grid, spec["center"], spec["sigma"], spec["k0"],
            spec["polarization"], params=self.params,
            energy_projection=spec["energy_projection"])


def _parse_envelope(doc, path):
    if doc is None:
        return Envelope()
    shape = _get(doc, path, "shape", str, "constant")
    number = (int, float)
    if shape == "constant":
        return Envelope(shape="constant", value=float(_get(doc, path, "value", number, 1.0)))
    if shape == "poly":
        coeffs = _get(doc, path, "coeffs", list, [0.0, 0.0, 0.0], items=number)
        if len(coeffs) > 3:
            raise ConfigError(f"{path}.coeffs", "polynomial envelopes support degree <= 2")
        coeffs = tuple(float(c) for c in coeffs) + (0.0,) * (3 - len(coeffs))
        return Envelope(shape="poly", coeffs=coeffs)
    if shape == "gaussian":
        return _build(path, Envelope, shape="gaussian",
                      amplitude=float(_get(doc, path, "amplitude", number, 1.0)),
                      center=float(_get(doc, path, "center", number, 0.0)),
                      width=float(_get(doc, path, "width", number)))
    if shape == "sinusoid":
        return Envelope(shape="sinusoid",
                        amplitude=float(_get(doc, path, "amplitude", number, 1.0)),
                        omega=float(_get(doc, path, "omega", number)),
                        phase=float(_get(doc, path, "phase", number, 0.0)))
    raise ConfigError(f"{path}.shape", f"unknown envelope shape {shape!r}")


def _parse_field(doc, path, field_scale):
    kind = _get(doc, path, "type", str)
    if kind == "zero":
        return ZeroField()
    if kind == "uniform_b":
        return UniformB(field_scale * _vec3(doc, path, "b0"),
                        _parse_envelope(doc.get("envelope"), f"{path}.envelope"))
    if kind == "uniform_e":
        return UniformE(field_scale * _vec3(doc, path, "e0"),
                        _parse_envelope(doc.get("envelope"), f"{path}.envelope"))
    if kind == "plane_wave":
        return _build(
            path, PlaneWavePulse, field_scale * _vec3(doc, path, "e0"),
            _vec3(doc, path, "wavevector"),
            float(_get(doc, path, "omega", (int, float))),
            float(_get(doc, path, "env_center", (int, float), 0.0)),
            float(_get(doc, path, "env_width", (int, float), 5.0)))
    raise ConfigError(f"{path}.type", f"unknown field model {kind!r}")


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ConfigError("", "scenario must be a JSON object")
    schema = _get(doc, "", "schema", str)
    if schema != SCHEMA_ID:
        raise ConfigError("schema", f"unsupported schema {schema!r}; "
                                    f"expected {SCHEMA_ID!r}")
    units = _get(doc, "", "units", str, "natural")
    if units not in ("natural", "si"):
        raise ConfigError("units", "must be 'natural' or 'si'")
    _get(doc, "", "seed", int, 0)  # kept for older documents; nothing reads it

    pdoc = _get(doc, "", "params", dict, {})
    m0 = float(_get(pdoc, "params", "m0", (int, float), 1.0))
    c = float(_get(pdoc, "params", "c", (int, float), 1.0))
    e = float(_get(pdoc, "params", "e", (int, float), -1.0))
    if units == "si":
        m0 = m0 / HBAR_SI
        e = e / HBAR_SI
    params = _build("params", PhysParams, m0=m0, c=c, e=e)

    gdoc = _get(doc, "", "grid", dict)
    grid = _build("grid", GridSpec, int(_get(gdoc, "grid", "dim", int)),
                  _get(gdoc, "grid", "n", (int, list), items=int),
                  _get(gdoc, "grid", "lengths", (int, float, list), items=(int, float)))

    model = _parse_field(_get(doc, "", "field", dict, {"type": "zero"}),
                         "field", 1.0)

    hdoc = _get(doc, "", "hamiltonian", dict, {"family": "free"})
    family = _get(hdoc, "hamiltonian", "family", str)
    if family not in FAMILIES:
        raise ConfigError("hamiltonian.family",
                          f"unknown family {family!r}; expected one of {list(FAMILIES)}")
    term_mask = _get(hdoc, "hamiltonian", "terms", list, None, items=str)
    hermitize = _get(hdoc, "hamiltonian", "hermitize", bool, False)
    choices = FAMILIES[family].terms
    if term_mask is not None and not (term_mask and set(term_mask) <= set(choices)):
        raise ConfigError("hamiltonian.terms", f"{family} takes a non-empty subset "
                                               f"of {list(choices)}, got {term_mask}")

    sdoc = _get(doc, "", "state", dict, None)
    if sdoc is not None:
        pol = _get(sdoc, "state", "polarization", (str, list), "up_z")
        if isinstance(pol, str):
            if pol not in POLARIZATIONS:
                raise ConfigError("state.polarization",
                                  f"unknown name {pol!r}; expected one of "
                                  f"{sorted(POLARIZATIONS)} or 4 [re, im] pairs")
            pol = POLARIZATIONS[pol]
        else:
            if len(pol) != 4 or any(not isinstance(p, list) or len(p) != 2 or not all(
                    _is(x, (int, float)) for x in p) for p in pol):
                raise ConfigError("state.polarization", "expected 4 [re, im] pairs")
            pol = np.array([complex(p[0], p[1]) for p in pol])
        sigma = float(_get(sdoc, "state", "sigma", (int, float)))
        if sigma <= 0:
            raise ConfigError("state.sigma", "must be positive")
        state_spec = {
            "center": _vec3(sdoc, "state", "center", default=[0.0, 0.0, 0.0]),
            "sigma": sigma,
            "k0": _vec3(sdoc, "state", "k0", default=[0.0, 0.0, 0.0]),
            "polarization": pol,
            "energy_projection": bool(_get(sdoc, "state", "energy_projection",
                                           bool, True)),
        }
    else:
        state_spec = None

    prop = _get(doc, "", "propagation", dict, None)
    if prop is not None:
        dt = float(_get(prop, "propagation", "dt", (int, float)))
        steps = int(_get(prop, "propagation", "steps", int))
        stride = int(_get(prop, "propagation", "stride", int, 1))
        if dt <= 0:
            raise ConfigError("propagation.dt", "must be positive")
        if steps < 1:
            raise ConfigError("propagation.steps", "must be >= 1")
        if stride < 1:
            raise ConfigError("propagation.stride", "must be >= 1")
    else:
        dt, steps, stride = 0.0, 0, 1

    vdoc = _get(doc, "", "verification", dict, {})
    checks = []
    for i, cdoc in enumerate(_get(vdoc, "verification", "checks", list, [])):
        path = f"verification.checks[{i}]"
        kind = _get(cdoc, path, "kind", str)
        if kind not in _KINDS:
            raise ConfigError(f"{path}.kind",
                              f"unknown spin kind {kind!r}; expected one of "
                              f"{sorted(_KINDS)}")
        cfam = _get(cdoc, path, "family", str)
        if cfam not in FAMILIES:
            raise ConfigError(f"{path}.family", f"unknown family {cfam!r}")
        # rhs is the one table of printed equations; it builds trees and applies nothing
        _build(path, rhs, _KINDS[kind], cfam, model, params)
        checks.append((_KINDS[kind], cfam))
    battery = _get(vdoc, "verification", "battery", str, "standard")
    if battery not in ("standard", "state"):
        raise ConfigError("verification.battery", "must be 'standard' or 'state'")
    if battery == "state" and state_spec is None:
        raise ConfigError("verification.battery",
                          "battery 'state' needs a state section")
    refine_levels = int(_get(vdoc, "verification", "refine_levels", int, 1))
    if refine_levels < 0:
        raise ConfigError("verification.refine_levels", "must be >= 0")

    odoc = _get(doc, "", "output", dict, {})
    output = {key: _get(odoc, "output", key, str) for key in ("trajectory", "report", "sweep")
              if key in odoc}
    for key, path in output.items():
        if not path:
            raise ConfigError(f"output.{key}", "expected a non-empty path")
    return Scenario(params, grid, model, family, term_mask,
                    hermitize, state_spec, dt, steps, stride, checks, battery,
                    refine_levels, output)


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return parse_scenario(doc)
