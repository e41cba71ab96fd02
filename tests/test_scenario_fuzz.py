"""Property test: ``parse_scenario`` refuses any malformed document with a
``ConfigError`` and never with another exception."""

import copy
import functools
import json
import operator
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relspin.errors import ConfigError
from relspin.scenario import Scenario, parse_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

FUZZ = settings(max_examples=400, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

#: what ``json.load`` can return, NaN and Infinity included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)

_FIELDS = [
    {"type": "zero"},
    {"type": "uniform_b", "b0": [0.0, 0.0, 0.05],
     "envelope": {"shape": "gaussian", "amplitude": 1.0, "center": 0.3, "width": 2.0}},
    {"type": "uniform_e", "e0": [0.01, 0.0, 0.0],
     "envelope": {"shape": "poly", "coeffs": [1.0, 0.1]}},
    {"type": "uniform_b", "b0": [0.0, 0.0, 1.0],
     "envelope": {"shape": "sinusoid", "amplitude": 1.0, "omega": 0.5, "phase": 0.1}},
    {"type": "plane_wave", "e0": [0.0, 0.1, 0.0], "wavevector": [0.5, 0.0, 0.0],
     "omega": 0.5, "env_center": 0.0, "env_width": 20.0},
]


def _valid_documents():
    """The shipped scenarios, and the free-particle one under every field
    model and envelope shape with the optional keys spelled out."""
    shipped = {p.stem: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}
    yield from shipped.values()
    for field in _FIELDS:
        doc = copy.deepcopy(shipped["free_particle"])
        doc["field"] = copy.deepcopy(field)
        doc["hamiltonian"] = {"family": "fw-direct", "terms": ["kinetic"],
                              "hermitize": False}
        doc["verification"].update(battery="state", refine_levels=1)
        yield doc


VALID = list(_valid_documents())


def _paths(node, prefix=()):
    """Every key and list index path into a document, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    """The node of ``doc`` at a key and index path."""
    return functools.reduce(operator.getitem, path, doc)


def _parse(doc):
    try:
        assert isinstance(parse_scenario(doc), Scenario)
    except ConfigError:
        pass


def test_valid_documents_parse():
    for doc in VALID:
        assert isinstance(parse_scenario(doc), Scenario)


_PLANE_WAVE = {"type": "plane_wave", "e0": [0.0, 0.1, 0.0], "wavevector": [0.5, 0.0, 0.0]}


@pytest.mark.parametrize("section, value, path", [
    ("field", dict(_PLANE_WAVE, omega=0), "field"),
    ("field", {"type": "plane_wave", "e0": [0.0, 0.1, 0.0], "omega": 0.5},
     "field.wavevector"),
    ("field", {"type": "uniform_b", "b0": [0, 0, 1], "envelope": {"shape": "poly",
                                                                  "coeffs": [None]}},
     "field.envelope.coeffs"),
    ("grid", {"dim": 1, "n": [None], "lengths": 256.0}, "grid.n"),
    ("grid", {"dim": 1, "n": 256, "lengths": 10**400}, "grid.lengths"),
    ("propagation", {"dt": 10**400, "steps": 4}, "propagation.dt"),
    ("state", {"sigma": 16.0, "polarization": [[1], [0], [0], [0]]}, "state.polarization"),
    ("hamiltonian", {"family": "fw-direct", "terms": [{}]}, "hamiltonian.terms"),
    ("verification", {"checks": [None]}, r"verification.checks\[0\]"),
    ("verification", {"refine_levels": -3}, "verification.refine_levels"),
    ("output", {"trajectory": 2}, "output.trajectory"),
    ("verification", {"checks": [{"kind": "fw", "family": "fw-full"}]},
     r"verification.checks\[0\]"),
    ("propagation", {"dt": 0.01, "steps": True}, "propagation.steps"),
    ("propagation", {"dt": 0.01, "steps": 4, "stride": True}, "propagation.stride"),
    ("verification", {"refine_levels": True}, "verification.refine_levels"),
    ("grid", {"dim": True, "n": 256, "lengths": 256.0}, "grid.dim"),
    ("params", {"m0": True}, "params.m0"),
    ("output", {"report": ""}, "output.report"),
    ("propagation", {"dt": 0.01, "steps": 0}, "propagation.steps"),
    ("propagation", {"dt": 0.01, "steps": 4, "stride": 0}, "propagation.stride"),
    ("verification", {"battery": "bogus"}, "verification.battery"),
    ("field", {"type": "uniform_b", "b0": [0, 0, 1], "envelope": {"shape": "bogus"}},
     "field.envelope.shape"),
    ("field", {"type": "bogus"}, "field.type"),
    ("field", {"type": "uniform_e", "e0": [0.1, 0, 0],
               "envelope": {"shape": "poly", "coeffs": [1.0, 0.1, 0.0, 0.2]}},
     "field.envelope.coeffs"),
    ("propagaton", {"dt": 0.01, "steps": 4}, "propagaton"),
    ("state", {"sigma": 16.0, "k0": [0.75, 0, 0], "polarisation": "down_z"},
     "state.polarisation"),
    ("field", {"type": "uniform_b", "b0": [0, 0, 1],
               "envelop": {"shape": "gaussian", "width": 2.0}}, "field.envelop"),
    ("field", {"type": "zero", "b0": [0, 0, 1]}, "field.b0"),
    ("verification", {"checks": [{"kind": "fw", "family": "free", "famly": "fw-direct"}]},
     r"verification.checks\[0\].famly"),
], ids=["omega-zero", "no-wavevector", "coeff-none", "n-none", "huge-length",
        "huge-dt", "short-pair", "term-object", "check-none", "negative-refine",
        "output-fd", "unprinted-check", "steps-true", "stride-true", "refine-true",
        "dim-true", "m0-true", "output-empty", "steps-zero", "stride-zero",
        "unknown-battery", "unknown-shape", "unknown-field", "cubic-poly",
        "typo-propagation", "typo-polarization", "typo-envelope", "b0-on-zero",
        "typo-family"])
def test_found_escapes_are_config_errors(section, value, path):
    # parse_scenario once let each of these out as another exception, or
    # (term-object, the booleans, output-empty) accepted it silently; the
    # six rows from steps-zero are refusals no other test reached, and the
    # last five are misspelt or stray keys that were once ignored (a
    # Gaussian pulse ran as a constant field, a down_z packet as up_z)
    with pytest.raises(ConfigError, match=path):
        parse_scenario(dict(VALID[0], **{section: value}))


def test_unknown_keys_refused_at_their_path():
    # every object of every valid document, the root included, refuses a key
    # that no reader takes, at that key's own path
    for doc in VALID:
        for path in [()] + [p for p in _paths(doc) if isinstance(_at(doc, p), dict)]:
            bad = copy.deepcopy(doc)
            _at(bad, path)["bogus"] = 1.0
            where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                            for k in path + ("bogus",))
            with pytest.raises(ConfigError) as info:
                parse_scenario(bad)
            assert info.value.path == where.lstrip(".")


def test_readme_example_parses():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert isinstance(parse_scenario(json.loads(example)), Scenario)


@FUZZ
@given(json_values)
def test_arbitrary_documents(doc):
    _parse(doc)


@FUZZ
@given(st.dictionaries(st.sampled_from(sorted(VALID[0])), json_values, max_size=6))
def test_arbitrary_sections(sections):
    _parse(dict(VALID[0], **sections))


@FUZZ
@given(st.data())
def test_mutated_valid_documents(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(VALID)))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = _at(doc, path[:-1])
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(json_values)
    _parse(doc)
