import json
import platform
import re
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from relspin import cli, dynamics, expr
from relspin import grid as grid_module
from relspin.cli import _refinement_grids, main
from relspin.dynamics import (classify_residual_series, positive_energy_part, rhs,
                              standard_battery, verify, verify_residual)
from relspin.errors import ConfigError, PreconditionError
from relspin.expr import apply_expr
from relspin.fields import UniformB
from relspin.grid import GridSpec, SpinorField, gaussian_packet, set_fft_workers
from relspin.hamiltonians import FAMILIES, build_hamiltonian
from relspin.operators import PhysParams, SpinKind
from relspin.propagate import run
from relspin.scenario import SCHEMA_ID, parse_scenario


def base_scenario(**overrides):
    doc = {
        "schema": SCHEMA_ID,
        "units": "natural",
        "seed": 7,
        "params": {"m0": 1.0, "c": 1.0, "e": -1.0},
        "grid": {"dim": 1, "n": 256, "lengths": 256.0},
        "field": {"type": "zero"},
        "hamiltonian": {"family": "free"},
        "state": {"center": [0, 0, 0], "sigma": 16.0, "k0": [1.0, 0, 0],
                  "polarization": "up_z", "energy_projection": True},
        "propagation": {"dt": 0.02, "steps": 40, "stride": 10},
        "verification": {"checks": [{"kind": "fw", "family": "free"},
                                    {"kind": "pryce", "family": "free"},
                                    {"kind": "dirac", "family": "free"}]},
    }
    doc.update(overrides)
    return doc


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def pool_entries():
    """The (key, value) pairs the pool of ``expr.pooled`` holds."""
    return [(key, value) for held in expr._POOL.values() for key, (_, value) in held.items()]


def pooled_arrays():
    """Every array the pool holds, inside lists and tuples too."""
    found, todo = [], [value for _, value in pool_entries()]
    while todo:
        value = todo.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            todo.extend(value)
    return found


class TestParsing:
    def test_roundtrip(self):
        sc = parse_scenario(base_scenario())
        assert sc.grid.n == (256,)
        assert sc.params.e == -1.0
        assert sc.checks[0][1] == "free"

    def test_error_paths_carry_json_paths(self):
        with pytest.raises(ConfigError, match="schema"):
            parse_scenario({"schema": "bogus/9"})
        with pytest.raises(ConfigError, match="grid.dim"):
            parse_scenario(base_scenario(grid={"n": 256, "lengths": 1.0}))
        with pytest.raises(ConfigError, match="hamiltonian.family"):
            parse_scenario(base_scenario(hamiltonian={"family": "nope"}))
        with pytest.raises(ConfigError, match="state.sigma"):
            doc = base_scenario()
            doc["state"]["sigma"] = -2.0
            parse_scenario(doc)
        with pytest.raises(ConfigError, match="state.polarization"):
            doc = base_scenario()
            doc["state"]["polarization"] = "sideways"
            parse_scenario(doc)
        with pytest.raises(ConfigError, match="propagation.dt"):
            doc = base_scenario()
            doc["propagation"]["dt"] = 0.0
            parse_scenario(doc)
        with pytest.raises(ConfigError, match=r"verification.checks\[0\].kind"):
            parse_scenario(base_scenario(
                verification={"checks": [{"kind": "weyl", "family": "free"}]}))

    @pytest.mark.parametrize("edit, path", [
        (lambda d: d["state"].update(k0=[float("nan"), 0, 0]), "state.k0[0]"),
        (lambda d: d["propagation"].update(dt=float("inf")), "propagation.dt"),
        (lambda d: d.update(field={"type": "uniform_b", "b0": [0, 0, float("-inf")]}),
         "field.b0[2]"),
        (lambda d: d.update(field={"type": "uniform_b", "b0": [0, 0, 1.0],
                                   "envelope": {"shape": "gaussian", "width": 2.0,
                                                "amplitude": float("inf")}}),
         "field.envelope.amplitude"),
    ], ids=["k0", "dt", "b0", "envelope"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, edit, path):
        # json writes and reads NaN / Infinity / -Infinity as bare tokens
        doc = base_scenario()
        edit(doc)
        scenario = write_scenario(tmp_path, doc)
        code = main(["simulate", "--scenario", scenario,
                     "--output", str(tmp_path / "traj.csv")])
        assert code == 2
        assert path in capsys.readouterr().err
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("hamiltonian", [
        {"family": "free", "terms": ["bogus"]},
        {"family": "dirac-em", "terms": ["kinetic"]},
        {"family": "fw-direct", "terms": []},
        {"family": "fw-full", "terms": []},
        {"family": "fw-direct", "terms": ["kinetic", "darwin"]},
        {"family": "fw-full", "terms": ["nutation"]},
    ], ids=["free", "dirac-em", "empty-fw-direct", "empty-fw-full",
            "fw-full-term-on-fw-direct", "fw-direct-term-on-fw-full"])
    def test_terms_refused_where_they_would_be_ignored(self, hamiltonian):
        # an empty list or a name the family does not have (an fw term on
        # dirac-em included) selects nothing; each once ran the full
        # Hamiltonian or failed later
        with pytest.raises(ConfigError, match="hamiltonian.terms"):
            parse_scenario(base_scenario(hamiltonian=hamiltonian))

    def test_si_units_rescale(self):
        doc = base_scenario(units="si")
        doc["params"] = {"m0": 9.1093837015e-31, "c": 2.99792458e8,
                        "e": -1.602176634e-19}
        sc = parse_scenario(doc)
        hbar = 1.054571817e-34
        assert sc.params.m0 == pytest.approx(9.1093837015e-31 / hbar)
        assert sc.params.e == pytest.approx(-1.602176634e-19 / hbar)
        assert sc.params.c == 2.99792458e8

    def test_explicit_spinor_polarization(self):
        doc = base_scenario()
        doc["state"]["polarization"] = [[1, 0], [0, 1], [0, 0], [0, 0]]
        sc = parse_scenario(doc)
        pol = sc.state_spec["polarization"]
        assert pol[1] == 1j


def test_families_table_is_what_the_code_does():
    # FAMILIES is the one list of families and terms: every builder and the
    # scenario parser read it, and every family takes terms and hermitize;
    # a check parses where dynamics.rhs has its printed equation
    params, grid, model = PhysParams(), GridSpec(1, 64, 64.0), UniformB([0.0, 0.0, 0.1])
    assert set(FAMILIES) == {"free", "dirac-em", "fw-full", "fw-direct"}
    for family, spec in FAMILIES.items():
        assert build_hamiltonian(family, model, params).term_names() == list(spec.default)
        for kind in SpinKind:
            doc = base_scenario(hamiltonian={"family": family}, verification={
                "checks": [{"kind": kind.value, "family": family}]})
            try:
                rhs(kind, family, model, params)
            except PreconditionError:
                with pytest.raises(ConfigError, match=r"verification.checks\[0\]"):
                    parse_scenario(doc)
            else:
                parse_scenario(doc)
        for term in spec.terms:
            ham = build_hamiltonian(family, model, params, terms=[term], hermitize=True)
            assert ham.term_names() == [term] and ham.assume_hermitian
            sc = parse_scenario(base_scenario(hamiltonian={"family": family, "terms": [term],
                                                           "hermitize": True}))
            assert sc.make_hamiltonian().term_names() == [term]
    for family in ("Free", "dirac", "fw", "pauli"):
        with pytest.raises(ConfigError, match="hamiltonian.family"):
            parse_scenario(base_scenario(hamiltonian={"family": family}))
        with pytest.raises(ConfigError, match=r"verification.checks\[0\].family"):
            parse_scenario(base_scenario(verification={
                "checks": [{"kind": "fw", "family": family}]}))
        with pytest.raises(PreconditionError, match="unknown Hamiltonian family"):
            build_hamiltonian(family, model, params)
    ham = build_hamiltonian("fw-direct", model, params, terms=["zeeman"])
    psi = positive_energy_part(gaussian_packet(grid, 0.0, 4.0, 0.5, [1, 0, 0, 0]), params)
    for propagator in ("strang", "bogus", ""):
        with pytest.raises(PreconditionError, match="propagator"):
            run(ham, psi, 0.05, 2, propagator=propagator)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("family", ["fw-direct", "fw-full"])
def test_propagated_hamiltonian_built_at_parse(tmp_path, capsys, command, family):
    # the fw prefactors divide by powers of m0; with a finite but tiny mass
    # the Hamiltonian's build once ended the run in a ZeroDivisionError
    doc = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                      / "larmor_sweep.json").read_text())
    doc["params"]["m0"] = 1e-120
    doc["hamiltonian"]["family"] = family
    out = tmp_path / "out.csv"
    extra = ["--field-grid", "0.5,1"] if command == "sweep" else []
    code = main([command, "--scenario", write_scenario(tmp_path, doc),
                 "--output", str(out)] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert "hamiltonian" in err and "Traceback" not in err
    assert not out.exists()


class TestAllocator:
    """``main`` tunes glibc's allocator once per call, so that a freed field's
    pages are reused from the heap (``cli._keep_freed_memory``)."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_main_applies_it_and_runs_twice(self, monkeypatch, capsys):
        applied, keep = [], cli._keep_freed_memory
        monkeypatch.setattr(cli, "_keep_freed_memory", lambda: applied.append(keep()))
        for _ in range(2):
            assert main(["check-operators", "--samples", "5"]) == 0
        assert applied == [True, True]

    def test_skipped_where_libc_has_no_mallopt(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert cli._keep_freed_memory() is False
        assert main(["check-operators", "--samples", "5"]) == 0


class TestCheckOperators:
    def test_default_passes(self, capsys):
        code = main(["check-operators", "--samples", "150"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fw" in out and "pryce" in out and "dirac" in out

    def test_zero_samples_usage_error(self, capsys):
        assert main(["check-operators", "--samples", "0"]) == 2

    def test_large_pmax(self):
        assert main(["check-operators", "--samples", "60", "--pmax", "10"]) == 0

    def test_json_report(self, tmp_path):
        path = tmp_path / "ops.json"
        assert main(["check-operators", "--samples", "40",
                     "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "relspin-operator-check/1"
        assert doc["results"]["fw"]["pass"] is True
        assert doc["results"]["dirac"]["pass"] is True

    @pytest.mark.parametrize("flag,value,named", [
        ("--pmax", "nan", "--pmax"), ("--pmax", "inf", "--pmax"),
        ("--m0", "inf", "m0"), ("--c", "inf", "c"),
        ("--e", "nan", "e"), ("--e", "inf", "e")])
    def test_non_finite_input_usage_error(self, capsys, flag, value, named):
        assert main(["check-operators", "--samples", "5", flag, value]) == 2
        assert f"{named} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--m0", "1e200"), ("--c", "1e-200")])
    def test_constants_outside_the_float_range_usage_error(self, capsys, flag, value):
        # (m0 c^2)^2 overflows with m0 = 1e200, and c^2 underflows with
        # c = 1e-200: each once ended in a traceback or a misleading message
        assert main(["check-operators", "--samples", "5", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: m0 = ") and "outside the float range" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_nan_residual_fails(self, tmp_path, capsys, monkeypatch):
        import relspin.cli
        from relspin.operators import SpinKind, condition_checks

        def nan_su2(kind, p, params):
            rep = condition_checks(kind, p, params)
            if kind is SpinKind.FW:
                rep.su2_residual[3] = np.nan
            return rep

        monkeypatch.setattr(relspin.cli, "condition_checks", nan_su2)
        path = tmp_path / "ops.json"
        assert main(["check-operators", "--samples", "20",
                     "--json", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out
        results = json.loads(path.read_text())["results"]
        assert [results[k]["pass"] for k in ("fw", "pryce", "dirac")] == \
            [False, True, True]

    @pytest.mark.parametrize("flag, value", [("--c", "137.035999"), ("--m0", "1000")])
    def test_passes_outside_natural_units(self, tmp_path, capsys, flag, value):
        # the free-commutation roundoff grows with ||H_free(p)||_F = 2 E_p, to
        # 9.5e-11 absolute in atomic units, and is judged relative to it
        path = tmp_path / "ops.json"
        assert main(["check-operators", flag, value, "--json", str(path)]) == 0
        results = json.loads(path.read_text())["results"]
        assert [results[k]["pass"] for k in ("fw", "pryce", "dirac")] == [True] * 3

    def test_relative_free_residual_fails(self, tmp_path, capsys, monkeypatch):
        from relspin.operators import condition_checks, free_dirac_matrix

        def loose(kind, p, params):
            rep = condition_checks(kind, p, params)
            if kind is SpinKind.FW:
                h = np.linalg.norm(free_dirac_matrix(p, params), axis=(-2, -1))
                rep.free_commutation_residual = 1e-10 * h
            return rep

        monkeypatch.setattr(cli, "condition_checks", loose)
        path = tmp_path / "ops.json"
        assert main(["check-operators", "--samples", "20", "--json", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out
        results = json.loads(path.read_text())["results"]
        assert [results[k]["pass"] for k in ("fw", "pryce", "dirac")] == [False, True, True]

    def test_negative_seed_usage_error(self, capsys):
        assert main(["check-operators", "--samples", "5", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--seed" in err

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_json_refused_before_the_checks(self, tmp_path, capsys, where):
        path = tmp_path / "missing" / "ops.json" if where == "missing-dir" else tmp_path
        assert main(["check-operators", "--samples", "5", "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and str(path) in err

    def test_chunked_report_equals_one_batch(self, tmp_path, monkeypatch, capsys):
        # 2500 samples are three chunks of at most 1000
        import relspin.cli
        docs = []
        for chunk in (relspin.cli._CHUNK, 2500):
            monkeypatch.setattr(relspin.cli, "_CHUNK", chunk)
            path = tmp_path / f"ops-{chunk}.json"
            assert main(["check-operators", "--samples", "2500",
                         "--json", str(path)]) == 0
            docs.append(path.read_bytes())
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("samples", [1, 999, 1000, 1001, 2500, 50000])
    def test_chunked_draws_equal_one_draw(self, samples):
        # directions drawn per chunk take the generator's normals in the
        # order one draw of all of them takes them, so the momenta (and the
        # report) do not depend on the chunking
        params = PhysParams(m0=1.3, c=2.0)
        rng = np.random.default_rng(11)
        mags = params.m0 * params.c * 10.0 ** rng.uniform(-3.0, np.log10(50.0), samples)
        dirs = rng.normal(size=(samples, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        chunks = list(cli._sample_momenta(samples, 50.0, params, 11))
        assert [len(p) for p in chunks] == [min(cli._CHUNK, samples - i)
                                            for i in range(0, samples, cli._CHUNK)]
        assert np.array_equal(np.concatenate(chunks), mags[:, None] * dirs)

    def test_memory_bounded_in_samples(self, capsys):
        # the momenta go through the checks in chunks, so twenty times the
        # samples cost well under twice the peak (one batch: about 17 times)
        peaks = {}
        for n in (1000, 20000):
            tracemalloc.start()
            try:
                assert main(["check-operators", "--samples", str(n)]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[20000] < 2 * peaks[1000]

    @pytest.mark.parametrize("samples", ["50", "200"])
    def test_eigensolves_per_kind_independent_of_samples(self, monkeypatch, samples):
        # one eigenvalue-only solve per spin component, stacked over the
        # samples of a chunk: three per spin kind, whatever the sample count
        # up to one chunk
        calls = [0]
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls[0] += 1
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert main(["check-operators", "--samples", samples]) == 0
        assert calls[0] == 3 * 3


class TestVerifyDynamics:
    def test_free_scenario_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        path = write_scenario(tmp_path, base_scenario())
        code = main(["verify-dynamics", "--scenario", path,
                     "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert len(doc["reports"]) == 3
        for rep in doc["reports"]:
            assert rep["residual"] <= 1e-8
            assert rep["classification"] == "holds"
        assert max(doc["total_j"]["fw"]) <= 1e-6
        assert max(doc["total_j"]["pryce"]) <= 1e-6

    def test_non_converging_check_names_offending_term(self, tmp_path, capsys):
        # the smallest 3D standard battery, with no refinement rungs
        doc = base_scenario(
            grid={"dim": 3, "n": 32, "lengths": 48.0},
            field={"type": "uniform_b", "b0": [0.0, 0.0, 0.05]},
            hamiltonian={"family": "dirac-em"},
            verification={"checks": [{"kind": "pryce", "family": "dirac-em"}],
                          "battery": "standard", "refine_levels": 0})
        report = tmp_path / "report.json"
        path = write_scenario(tmp_path, doc)
        code = main(["verify-dynamics", "--scenario", path, "--report", str(report)])
        assert code == 1
        (rep,) = json.loads(report.read_text())["reports"]
        assert rep["classification"] == "non-converging"
        assert rep["offending_term"] == "r-p-alpha-b"
        assert "offending printed term: r-p-alpha-b" in capsys.readouterr().out

    def test_single_state_3d_reports_finding(self, tmp_path, capsys):
        # a packet with 9.4e-7 zero-mode weight: over the default 1e-10 guard
        # but within verify's, which the total-J identity must share
        doc = base_scenario(
            grid={"dim": 3, "n": 32, "lengths": 48.0},
            field={"type": "uniform_b", "b0": [0.0, 0.0, 0.05]},
            hamiltonian={"family": "dirac-em"},
            verification={"checks": [{"kind": "pryce", "family": "dirac-em"}],
                          "battery": "state", "refine_levels": 0})
        doc["state"].update(sigma=6.0, k0=[1.0, 0.0, 0.0])
        report = tmp_path / "report.json"
        path = write_scenario(tmp_path, doc)
        code = main(["verify-dynamics", "--scenario", path, "--report", str(report)])
        assert code == 1
        out = json.loads(report.read_text())
        assert out["reports"][0]["classification"] == "non-converging"
        assert max(out["total_j"]["pryce"]) <= 1e-6

    def test_pryce_with_zero_centered_state_is_config_error(self, tmp_path, capsys):
        doc = base_scenario()
        doc["state"]["k0"] = [0.0, 0.0, 0.0]
        doc["verification"] = {"checks": [{"kind": "pryce", "family": "free"}],
                               "battery": "state"}
        path = write_scenario(tmp_path, doc)
        code = main(["verify-dynamics", "--scenario", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "singular" in err.lower()

    _PULSED_B = {"type": "uniform_b", "b0": [0.0, 0.0, 0.2],
                 "envelope": {"shape": "gaussian", "amplitude": 1.0,
                              "center": 0.3, "width": 2.0}}

    @pytest.mark.parametrize("family, shape", [
        # fw-full names that fw-direct does not have
        ("fw-full", {"terms": ["kinetic", "darwin"]}),
        # a subset of the checked family itself: the soc and nutation terms,
        # live under the pulse, stay in the checked Hamiltonian
        ("fw-direct", {"terms": ["kinetic", "zeeman"]}),
        # the checked family itself, hermitized
        ("fw-direct", {"hermitize": True}),
    ], ids=["fw-full-terms", "fw-direct-subset", "fw-direct-hermitize"])
    def test_checks_ignore_the_term_mask(self, tmp_path, capsys, family, shape):
        # hamiltonian.terms and hermitize shape what simulate and sweep
        # propagate; a check verifies its family's printed Hamiltonian either way
        docs = {}
        for name, hamiltonian in (("masked", dict(shape, family=family)),
                                  ("full", {"family": family})):
            docs[name] = base_scenario(
                field=self._PULSED_B, hamiltonian=hamiltonian,
                verification={"checks": [{"kind": "pryce", "family": "fw-direct"}],
                              "refine_levels": 0})
        sc = parse_scenario(docs["masked"])
        propagated = sc.make_hamiltonian()
        assert propagated.term_names() == shape.get("terms", list(FAMILIES[family].default))
        assert propagated.assume_hermitian == shape.get("hermitize", False)
        checked = sc.make_hamiltonian(family="fw-direct")
        assert checked.term_names() == ["kinetic", "zeeman", "field-derivative-soc", "nutation"]
        assert not checked.assume_hermitian
        reports = {}
        for name, doc in docs.items():
            path = write_scenario(tmp_path, doc, name=f"{name}.json")
            report = tmp_path / f"{name}-report.json"
            code = main(["verify-dynamics", "--scenario", path, "--report", str(report)])
            assert code in (0, 1), capsys.readouterr().err
            reports[name] = report.read_bytes()
        assert reports["masked"] == reports["full"]

    def test_refinement_rungs_each_report_their_residual(self, tmp_path, capsys):
        # a 1D ladder of 128 to 1024 points: 128 cannot host the battery
        # (Nyquist), 256 is the scenario's own check, 512 and 1024 are run
        doc = base_scenario(
            field={"type": "uniform_b", "b0": [0.0, 0.0, 0.05]},
            hamiltonian={"family": "dirac-em"},
            verification={"checks": [{"kind": "pryce", "family": "dirac-em"}],
                          "refine_levels": 2})
        report = tmp_path / "report.json"
        path = write_scenario(tmp_path, doc)
        assert main(["verify-dynamics", "--scenario", path, "--report", str(report)]) == 1
        assert ("pryce/dirac-em: refinement rung N=128 skipped: battery momentum too close "
                "to the lattice Nyquist bound") in capsys.readouterr().out
        (rep,) = json.loads(report.read_text())["reports"]
        # each rung's residual is the reporting verify's, whose printed terms
        # apply one by one, not compiled into one total
        sc = parse_scenario(doc)
        want = []
        for n in (256, 512, 1024):
            g = GridSpec(1, n, 256.0)
            ham = build_hamiltonian("dirac-em", sc.model, sc.params)
            want.append(verify(SpinKind.PRYCE, ham, standard_battery(g, sc.params)).residual)
        assert [r["n"] for r in rep["refinement"]] == [256, 512, 1024]
        assert [r["residual"] for r in rep["refinement"]] == pytest.approx(want, rel=1e-12)
        assert rep["classification"] == classify_residual_series(
            [r["residual"] for r in rep["refinement"]])
        assert set(rep["term_classification"].values()) == {rep["classification"]}

    def _two_ladders(self, **verification):
        # a pryce and an fw check on the 1D grid of 256 points, each with a
        # ladder of 128 (skipped: Nyquist), 256 (the check's own) and 512
        return base_scenario(
            field={"type": "uniform_b", "b0": [0.0, 0.0, 0.05]},
            hamiltonian={"family": "dirac-em"},
            verification=dict({"checks": [{"kind": "pryce", "family": "dirac-em"},
                                          {"kind": "fw", "family": "dirac-em"}],
                               "refine_levels": 1}, **verification))

    def test_no_rung_battery_outlives_its_rung(self, tmp_path, capsys, monkeypatch):
        # each of the 512 and 1024 rungs makes its six states as its verify
        # reads them; none is alive when the next rung starts
        doc = self._two_ladders(refine_levels=2)
        scenario_grid = parse_scenario(doc).grid
        rung_states, alive_at_rung = [], []

        def state(battery, i):
            psi = made(battery, i)
            if psi.grid != scenario_grid:
                rung_states.append(weakref.ref(psi.data))
            return psi

        def rung(kind, *args):
            alive_at_rung.append((kind, [ref() is not None for ref in rung_states]))
            return rung_residual(kind, *args)
        made, rung_residual = dynamics._Battery.__getitem__, cli._rung_residual
        monkeypatch.setattr(dynamics._Battery, "__getitem__", state)
        monkeypatch.setattr(cli, "_rung_residual", rung)
        path = write_scenario(tmp_path, doc)
        assert main(["verify-dynamics", "--scenario", path, "--refine"]) in (0, 1)
        capsys.readouterr()
        # per ladder the 128 rung is skipped, and the 512 and 1024 rungs make
        # six states each
        assert len(rung_states) == 2 * 12
        assert alive_at_rung == [
            (SpinKind.PRYCE, []), (SpinKind.PRYCE, []), (SpinKind.PRYCE, [False] * 6),
            (SpinKind.FW, [False] * 12), (SpinKind.FW, [False] * 12), (SpinKind.FW, [False] * 18)]

    def test_no_rung_pool_outlives_its_rung(self, tmp_path, capsys, monkeypatch):
        # what the pool holds when the pryce check's 512 rung has verified
        # (E_k is not among it: no pryce leaf reads it) is dropped with the
        # rung: none of it is alive when the fw check's 512 rung, on an equal
        # grid, starts its verify
        rung_arrays, alive_at_rung = [], []

        def watched_rung(kind, ham, states):
            if kind is SpinKind.FW:
                alive_at_rung.append([ref() is not None for ref in rung_arrays])
            residual = verify_residual(kind, ham, states)
            if kind is SpinKind.PRYCE:
                rung_arrays.extend(weakref.ref(a) for a in pooled_arrays())
            return residual
        monkeypatch.setattr(cli, "verify_residual", watched_rung)
        path = write_scenario(tmp_path, self._two_ladders())
        assert main(["verify-dynamics", "--scenario", path, "--refine"]) in (0, 1)
        capsys.readouterr()
        # the six k_i k_m/k^2 of S_Py, and A_y = B x/2 of the gauge leaf
        assert len(rung_arrays) == 7
        assert alive_at_rung == [[False] * 7]

    def test_no_scenario_state_alive_during_a_rung(self, tmp_path, capsys, monkeypatch):
        # the checks and the total-J identity read the scenario states first;
        # they are dropped before any ladder runs
        scenario_states, alive_at_rung = [], []

        def watched_verify(kind, ham, states):  # a check's verify on the scenario grid
            scenario_states.extend(weakref.ref(psi.data) for psi in states)
            return verify(kind, ham, states)

        def watched_rung(kind, ham, states):
            alive_at_rung.append([ref() is not None for ref in scenario_states])
            return verify_residual(kind, ham, states)
        monkeypatch.setattr(cli, "verify", watched_verify)
        monkeypatch.setattr(cli, "verify_residual", watched_rung)
        path = write_scenario(tmp_path, self._two_ladders())
        assert main(["verify-dynamics", "--scenario", path, "--refine"]) in (0, 1)
        capsys.readouterr()
        # both checks verified the six states; one 512 rung per ladder
        assert len(scenario_states) == 2 * 6
        assert alive_at_rung == [[False] * 12] * 2

    def test_no_rung_grid_outlives_its_ladder(self, tmp_path, capsys, monkeypatch):
        # the pryce ladder's rung grids (the last one 512, with its cached k2
        # and 1/k2) live through that ladder and are dead when the fw ladder
        # asks for its rungs and at each of its rungs
        rung_grids, alive = [], []

        def grids(grid, levels):
            alive.append([ref() is not None for ref in rung_grids])
            return refinement_grids(grid, levels)

        def rung(kind, ham, sc, grid):
            alive.append([ref() is not None for ref in rung_grids])
            if kind is SpinKind.PRYCE:
                rung_grids.append(weakref.ref(grid))
            return rung_residual(kind, ham, sc, grid)
        refinement_grids, rung_residual = cli._refinement_grids, cli._rung_residual
        monkeypatch.setattr(cli, "_refinement_grids", grids)
        monkeypatch.setattr(cli, "_rung_residual", rung)
        path = write_scenario(tmp_path, self._two_ladders())
        assert main(["verify-dynamics", "--scenario", path, "--refine"]) in (0, 1)
        capsys.readouterr()
        # the pryce ladder, its 128 and 512 rungs, then the fw ladder and its rungs
        assert alive == [[], [], [True]] + [[False, False]] * 3

    def test_later_state_over_nyquist_skips_the_rung_before_any_state(self, tmp_path, capsys,
                                                                      monkeypatch):
        # on the 128 rung the first two states fit under the Nyquist bound
        # and the third (k0 = 2 m0 c) does not: the rung is skipped with its
        # line before any state is made or any verify starts
        grid = GridSpec(1, 128, 256.0)
        params = PhysParams()
        with pytest.raises(PreconditionError, match="Nyquist"):
            standard_battery(grid, params)
        assert len(standard_battery(grid, params, count=2)) == 2
        made, verified = [], []

        def state(battery, i):
            psi = make(battery, i)
            made.append(psi.grid.n[0])
            return psi

        def watched_verify(*args):
            report = verify(*args)
            verified.append(report.grid["n"][0])
            return report

        def watched_rung(kind, ham, states):
            verified.append(states[0].grid.n[0])
            return verify_residual(kind, ham, states)
        make = dynamics._Battery.__getitem__
        monkeypatch.setattr(dynamics._Battery, "__getitem__", state)
        monkeypatch.setattr(cli, "verify", watched_verify)
        monkeypatch.setattr(cli, "verify_residual", watched_rung)
        doc = self._two_ladders(checks=[{"kind": "pryce", "family": "dirac-em"}])
        path = write_scenario(tmp_path, doc)
        assert main(["verify-dynamics", "--scenario", path, "--refine"]) == 1
        assert ("pryce/dirac-em: refinement rung N=128 skipped: battery momentum too close "
                "to the lattice Nyquist bound") in capsys.readouterr().out
        assert 128 not in made and 128 not in verified
        assert verified == [256, 512]

    def test_rung_refusal_exits_2_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        # the first rung (16^3) verifies a state with weight one step from
        # k = 0 along x: the compiled 1/p^2 of the x total refuses the sum
        # it acts on (tests/test_dynamics.py::TestCompiledRhs), and the run
        # ends with exit code 2 and one error line naming it
        def near_origin(grid, params):
            vals = np.zeros((4, *grid.shape), dtype=complex)
            for step in (-1, 1):
                vals[(0, grid.origin_index[0] + step, *grid.origin_index[1:])] = 1.0
            return [SpinorField(grid, vals, "momentum")]
        monkeypatch.setattr(cli, "battery_states", near_origin)
        doc = base_scenario(
            grid={"dim": 3, "n": 32, "lengths": 48.0},
            state={"center": [0, 0, 0], "sigma": 4.0, "k0": [1.0, 0, 0],
                   "polarization": "up_z", "energy_projection": True},
            field={"type": "uniform_b", "b0": [0.0, 0.0, 1e-4]},
            hamiltonian={"family": "dirac-em"},
            verification={"checks": [{"kind": "pryce", "family": "dirac-em"}],
                          "refine_levels": 1})
        path = write_scenario(tmp_path, doc)
        assert main(["verify-dynamics", "--scenario", path, "--refine"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: operator 1/p^2 is singular at k=0")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_shipped_scenario_prints_in_order(self, tmp_path, capsys):
        # each check's skipped rung, table and finding, in the order of the
        # checks, then the total-J identities and the report path; the
        # numbers are masked
        path = Path(__file__).resolve().parents[1] / "scenarios" / "uniform_b_verification.json"
        report = tmp_path / "report.json"
        assert main(["verify-dynamics", "--scenario", str(path), "--report", str(report)]) == 1
        number = re.compile(r"-?\d\.\d{3}e[-+]\d\d")
        lines = [number.sub("#", line) for line in capsys.readouterr().out.splitlines()]
        cells = [f"  state {i} {ax}: residual=# lhs=# rhs=#" for i in (0, 1) for ax in "xyz"]
        skip = ("  {}/dirac-em: refinement rung N=16 skipped: grid too coarse for the "
                "standard battery: sigma=6.0 needs >= 4 dx = 12.0")
        want = []
        for kind, term in (("pryce", "r-p-alpha-b"), ("fw", "longitudinal-alpha-cross")):
            want += [skip.format(kind),
                     f"check kind={kind} H=dirac-em  residual=#  classification=non-converging",
                     *cells, "  refinement: N=32: #, N=64: #",
                     f"  non-converging mismatch; offending printed term: {term}"]
        want += ["total-J identity [fw]: # # #", "total-J identity [pryce]: # # #",
                 f"report written to {report}"]
        assert lines == want

    def test_single_state_ladder_names_each_skipped_rung(self, tmp_path, capsys):
        # the single state is tied to the scenario grid: --refine runs the
        # 256 rung alone and says so for 128 and 512
        doc = base_scenario(verification={"checks": [{"kind": "fw", "family": "free"}],
                                          "battery": "state", "refine_levels": 1})
        report = tmp_path / "report.json"
        path = write_scenario(tmp_path, doc)
        argv = ["verify-dynamics", "--scenario", path, "--refine", "--report", str(report)]
        assert main(argv) == 0
        (rep,) = json.loads(report.read_text())["reports"]
        assert [r["n"] for r in rep["refinement"]] == [256]
        out = capsys.readouterr().out
        for n in (128, 512):
            assert (f"fw/free: refinement rung N={n} skipped: the single state is tied "
                    "to the scenario grid") in out

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["verification"]["checks"].append({"kind": "fw", "family": "fw-full"}),
         "no printed dynamics equation"),
        (lambda d: d.update(field={"type": "uniform_e", "e0": [0.01, 0.0, 0.0]}) or
         d["verification"]["checks"].append({"kind": "pryce", "family": "dirac-em"}),
         "vanishing scalar potential"),
        (lambda d: d["verification"]["checks"].append({"kind": "dirac", "family": "dirac-em"}),
         "no printed Dirac-spin"),
        (lambda d: d.update(params={"m0": 1e-120}) or
         d["verification"]["checks"].append({"kind": "pryce", "family": "fw-direct"}),
         "division by zero"),
    ], ids=["fw-full", "uniform-e", "dirac-dirac-em", "tiny-mass"])
    def test_check_without_printed_equation_refused_at_parse(self, tmp_path, capsys, edit,
                                                             message):
        # dynamics.rhs, the one table of printed equations, is asked once per
        # check when the scenario is parsed, so nothing runs before the refusal
        doc = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                          / "free_particle.json").read_text())
        edit(doc)
        path = write_scenario(tmp_path, doc)
        code = main(["verify-dynamics", "--scenario", path, "--report", str(tmp_path / "r.json")])
        out, err = capsys.readouterr()
        assert code == 2
        assert "verification.checks[3]" in err and message in err
        assert out == "" and not (tmp_path / "r.json").exists()

    def test_non_finite_residual_refused(self, tmp_path, capsys):
        # b0 = 1e300 overflows the norms of the first cell: the run exits 2
        # naming the cell and writes no report, which could not hold a NaN
        doc = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                          / "uniform_b_verification.json").read_text())
        doc["field"]["b0"] = [0.0, 0.0, 1e300]
        report = tmp_path / "r.json"
        code = main(["verify-dynamics", "--scenario", write_scenario(tmp_path, doc),
                     "--report", str(report)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: pryce/dirac-em: state 0 axis x has a non-finite residual" in err
        assert "Traceback" not in err and not report.exists()

    def test_missing_checks_rejected(self, tmp_path):
        doc = base_scenario(verification={"checks": []})
        path = write_scenario(tmp_path, doc)
        assert main(["verify-dynamics", "--scenario", path]) == 2

    def test_broken_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify-dynamics", "--scenario", str(path)]) == 2


class TestRefinementLadder:
    def test_cubic_ladders(self):
        assert [g.n for g in _refinement_grids(GridSpec(1, 512, 256.0), 1)] == [
            (256,), (512,), (1024,)]
        assert [g.n for g in _refinement_grids(GridSpec(3, 32, 48.0), 1)] == [
            (16,) * 3, (32,) * 3, (64,) * 3]

    def test_non_cubic_ladder_holds_the_scenario_grid_and_box(self):
        grid = GridSpec(3, [16, 16, 32], [48.0, 48.0, 60.0])
        rungs = _refinement_grids(grid, 1)
        assert [g.n for g in rungs] == [(8, 8, 16), (16, 16, 32), (32, 32, 64)]
        assert grid in rungs and {g.lengths for g in rungs} == {grid.lengths}
        # a rung with any axis beyond the cap is dropped
        assert [g.n for g in _refinement_grids(GridSpec(3, [16, 16, 64], 48.0), 1)] == [
            (8, 8, 32), (16, 16, 64)]

    GRIDS = [GridSpec(1, n, 256.0) for n in (8, 512, 2048, 4096)] + [
        GridSpec(3, n, 48.0) for n in (8, 32, 64, 128, [16, 16, 32], [8, 8, 128])]

    @staticmethod
    def _every_level(grid, levels):
        """The ladder with a rung built for every level, those above the cap
        dropped afterwards: the reference for small level counts."""
        cap = 2048 if grid.dim == 1 else 64
        ladder = [[int(n * s) for n in grid.n]
                  for s in [0.5, 1] + [2**i for i in range(1, levels + 1)]]
        return [(tuple(n), grid.lengths) for n in ladder if 8 <= min(n) and max(n) <= cap]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g.n)))
    def test_small_level_counts_give_every_level_ladder(self, grid):
        for levels in range(13):
            assert [(g.n, g.lengths) for g in _refinement_grids(grid, levels)] == (
                self._every_level(grid, levels)), levels

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g.n)))
    def test_huge_level_count_stops_at_the_cap(self, grid):
        # the ladder of 10**9 levels is that of the fewest levels whose last
        # rung is above the cap; building every level would never finish
        cap = 2048 if grid.dim == 1 else 64
        reaching = next(i for i in range(1, 13) if max(grid.n) * 2**i > cap)
        start = time.perf_counter()
        rungs = _refinement_grids(grid, 10**9)
        assert time.perf_counter() - start < 0.1
        assert [(g.n, g.lengths) for g in rungs] == self._every_level(grid, reaching)


class TestSimulate:
    @pytest.mark.parametrize("projected", [True, False])
    def test_state_is_projected_where_the_scenario_asks(self, projected):
        # the projected packet stays in momentum space, where it was made
        doc = base_scenario()
        doc["state"]["energy_projection"] = projected
        sc = parse_scenario(doc)
        spec = sc.state_spec
        packet = gaussian_packet(sc.grid, spec["center"], spec["sigma"], spec["k0"],
                                 spec["polarization"])
        want = positive_energy_part(packet, sc.params) if projected else packet
        got = sc.make_state()
        assert got.space == ("momentum" if projected else "position") == want.space
        assert np.array_equal(got.values, want.values)

    def test_free_run_constant_proper_spins(self, tmp_path):
        out = tmp_path / "traj.csv"
        path = write_scenario(tmp_path, base_scenario())
        assert main(["simulate", "--scenario", path, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        for col in ("S_FW_x", "S_FW_y", "S_FW_z", "S_Py_x", "S_Py_y", "S_Py_z"):
            series = rows[:, header.index(col)]
            assert np.max(np.abs(series - series[0])) <= 1e-8

    def test_determinism_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario())
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["simulate", "--scenario", path, "--output", str(a)]) == 0
        assert main(["simulate", "--scenario", path, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_constants_outside_the_float_range_config_error(self, tmp_path, capsys):
        doc = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                          / "free_particle.json").read_text())
        doc["params"]["m0"] = 1e200
        out = tmp_path / "out.csv"
        code = main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                     "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: params: m0 = 1e+200") and "Traceback" not in err
        assert not out.exists()

    def test_scenario_without_propagation_rejected(self, tmp_path):
        doc = base_scenario()
        del doc["propagation"]
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", "--scenario", path]) == 2

    @pytest.mark.parametrize("command, key", [
        ("simulate", "trajectory"), ("verify-dynamics", "report"), ("sweep", "sweep")])
    @pytest.mark.parametrize("value", [2, True, []], ids=["fd", "true", "list"])
    def test_non_string_output_is_config_error(self, tmp_path, capsys, monkeypatch, command,
                                               key, value):
        # a number once named a file descriptor (2 wrote the CSV to stderr,
        # true to stdout) and a list ended in a traceback
        monkeypatch.chdir(tmp_path)
        path = write_scenario(tmp_path, base_scenario(output={key: value}))
        extra = ["--field-grid", "0.1"] if command == "sweep" else []
        assert main([command, "--scenario", path] + extra) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"output.{key}" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "scenario.json"]

    @pytest.mark.parametrize("command, key", [
        ("simulate", "trajectory"), ("verify-dynamics", "report"), ("sweep", "sweep")])
    @pytest.mark.parametrize("value", ["nodir/out.csv", "adir", ""],
                             ids=["no-dir", "is-dir", "empty"])
    def test_bad_output_path_refused_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                    command, key, value):
        # each once ran the whole job and then ended in a traceback at the open
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        calls = []
        monkeypatch.setattr(cli, "run", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(cli, "verify", lambda *args, **kwargs: calls.append(args))
        doc = base_scenario(field={"type": "uniform_b", "b0": [0.0, 0.0, 0.1]},
                            output={key: value})
        path = write_scenario(tmp_path, doc)
        extra = ["--field-grid", "0.1"] if command == "sweep" else []
        assert main([command, "--scenario", path] + extra) == 2
        out, err = capsys.readouterr()
        assert out == "" and (value or f"output.{key}") in err and "Traceback" not in err
        assert calls == []


class TestSweep:
    def sweep_scenario(self):
        return base_scenario(
            field={"type": "uniform_b", "b0": [0.0, 0.0, 1.0]},
            hamiltonian={"family": "fw-direct", "terms": ["zeeman"]},
            state={"center": [0, 0, 0], "sigma": 16.0, "k0": [0.9, 0, 0],
                   "polarization": "up_x", "energy_projection": True},
            propagation={"dt": 0.05, "steps": 40, "stride": 10},
        )

    def test_divergence_metrics_grow_with_field(self, tmp_path):
        out = tmp_path / "sweep.csv"
        path = write_scenario(tmp_path, self.sweep_scenario())
        code = main(["sweep", "--scenario", path,
                     "--field-grid", "0.02,0.1,0.3", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "B0,t,d_Py,d_FW"
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        final_dfw = {}
        for b0 in (0.02, 0.1, 0.3):
            sel = rows[np.isclose(rows[:, 0], b0)]
            final_dfw[b0] = sel[-1, 3]
        # Fig-1-style demo expectation: divergence non-decreasing with field
        assert final_dfw[0.02] <= final_dfw[0.1] + 1e-12
        assert final_dfw[0.1] <= final_dfw[0.3] + 1e-12

    def test_pool_does_not_grow_with_the_field_strengths(self, tmp_path):
        # every field strength's model mesh, Hamiltonian and exact-step
        # factors replace the last one's under the same keys, so a sweep
        # over 1, 4 or 8 field strengths leaves as many pool entries
        path = write_scenario(tmp_path, self.sweep_scenario())
        expr.release_pool()
        entries = []
        for fields in ("1", "1,2,3,4", "1,2,3,4,5,6,7,8"):
            assert main(["sweep", "--scenario", path, "--field-grid", fields,
                         "--output", str(tmp_path / "sweep.csv")]) == 0
            entries.append(len(pool_entries()))
        assert entries[0] == entries[1] == entries[2]

    def test_pool_holds_no_all_zero_mesh(self, tmp_path):
        # on the 1D grid the spin coefficients that read k_y or k_z vanish
        # everywhere; the pool holds each as the 0-d zero the leaves read
        path = Path(__file__).resolve().parents[1] / "scenarios" / "larmor_sweep.json"
        expr.release_pool()
        assert main(["sweep", "--scenario", str(path), "--field-grid", "0.5,1,2,4",
                     "--output", str(tmp_path / "sweep.csv")]) == 0
        full = [a for a in pooled_arrays() if a.size > 1]
        assert full and not [a for a in full if not a.any()]
        assert [a for a in pooled_arrays() if a.ndim == 0 and not a.any()]

    def test_zero_base_field_rejected(self, tmp_path):
        doc = self.sweep_scenario()
        doc["field"]["b0"] = [0.0, 0.0, 0.0]
        path = write_scenario(tmp_path, doc)
        assert main(["sweep", "--scenario", path, "--field-grid", "0.1"]) == 2

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d.pop("propagation"), "propagation"),
        (lambda d: d.update(field={"type": "zero"}), "field.type"),
    ], ids=["no-propagation", "zero-field"])
    def test_scenario_refused(self, tmp_path, capsys, edit, named):
        doc = self.sweep_scenario()
        edit(doc)
        path = write_scenario(tmp_path, doc)
        assert main(["sweep", "--scenario", path, "--field-grid", "0.1"]) == 2
        assert named in capsys.readouterr().err

    def test_bad_field_grid(self, tmp_path):
        path = write_scenario(tmp_path, self.sweep_scenario())
        assert main(["sweep", "--scenario", path, "--field-grid", "a,b"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_grid(self, tmp_path, capsys, value):
        path = write_scenario(tmp_path, self.sweep_scenario())
        assert main(["sweep", "--scenario", path, "--field-grid", f"0.1,{value}"]) == 2
        err = capsys.readouterr().err
        assert "--field-grid" in err and "finite" in err and "Traceback" not in err


def _packet_at_the_boundary(doc):
    doc["state"]["center"] = [60, 0, 0]
    doc["propagation"] = {"dt": 0.5, "steps": 100, "stride": 10}


def _field_across_the_line(doc):
    # A_y = B x/2 of a B along y carries weight into k = 0
    doc["hamiltonian"]["terms"] = ["kinetic", "zeeman"]
    doc["field"]["b0"] = [0.0, 1.0, 0.0]
    doc["propagation"]["steps"] = 4


class TestAbortedRun:
    # a run stopped by a flux abort or by a Krylov step that does not
    # converge is cli.main's exit 1 "aborted", one line on stderr
    @pytest.mark.parametrize("scenario, edit, message", [
        ("free_particle.json", _packet_at_the_boundary, "aborted: boundary flux"),
        ("larmor_sweep.json", _field_across_the_line, "aborted: Krylov propagation did not"),
    ], ids=["boundary-flux", "krylov"])
    def test_exit_1_with_one_aborted_line(self, tmp_path, capsys, scenario, edit, message):
        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        doc = json.loads((scenarios / scenario).read_text())
        edit(doc)
        path = write_scenario(tmp_path, doc)
        assert main(["simulate", "--scenario", path, "--output", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(message)
        assert "Traceback" not in err


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_version_flag(self):
        assert main(["--version"]) == 0

    def test_threads_give_identical_bytes(self, tmp_path, monkeypatch):
        # the FFT worker count splits the work, not the arithmetic
        monkeypatch.setattr(grid_module, "_FFT_WORKERS", grid_module._FFT_WORKERS)
        path = write_scenario(tmp_path, base_scenario())
        csv = []
        for n in (1, 2):
            out = tmp_path / f"traj{n}.csv"
            assert main(["--threads", str(n), "simulate", "--scenario", path,
                         "--output", str(out)]) == 0
            csv.append(out.read_bytes())
        assert csv[0] == csv[1]
        params = PhysParams()
        grid = GridSpec(3, 16, 24.0)
        rng = np.random.default_rng(5)
        psi = SpinorField(grid, rng.normal(size=(4, *grid.shape))
                          + 1j * rng.normal(size=(4, *grid.shape)))
        ham = build_hamiltonian("dirac-em", UniformB([0.0, 0.0, 0.05]), params)
        applied = []
        for n in (1, 2):
            set_fft_workers(n)
            applied.append(apply_expr(ham.total, psi).values)
        assert np.array_equal(applied[0], applied[1])

    @pytest.mark.parametrize("argv, env", [
        (["--threads", "0"], None), (["--threads", "-4"], None), ([], "abc")],
        ids=["flag-0", "flag-negative", "env-not-an-integer"])
    def test_bad_thread_count(self, capsys, monkeypatch, argv, env):
        if env is not None:
            monkeypatch.setenv("RELSPIN_THREADS", env)
        assert main(argv + ["check-operators", "--samples", "1"]) == 2
        err = capsys.readouterr().err
        assert "--threads" in err and "RELSPIN_THREADS" in err and "Traceback" not in err

    def test_threads_knob(self):
        assert main(["--threads", "2", "check-operators", "--samples", "5"]) == 0
        main(["--threads", "1", "check-operators", "--samples", "1"])
