"""Exact transform, field-mesh, Arnoldi-step, kernel-product and
linear-algebra counts of fixed operations.

Transforms dominate large-grid applies, so a change that adds one shows up
here as a failure instead of only as a slower run.  A 3D count is in axis
passes, one 1D transform along one axis of the field: a transform of every
axis is 3, and a leaf that reads only some axes transforms just those, there
and back, so it costs 2 per axis read.  A 1D count is in calls, which there
equal passes.  Field meshes are evaluated when a leaf's cache fills, so their
counts show how often a leaf refills.  Arnoldi steps are what a run pays
where no exact step applies.  Kernel products, the entries ``grid.pointwise``
multiplies, are a large-grid apply's other cost.  Stacked 4x4 solves and
commutators are all the work of ``check-operators``.
"""

from pathlib import Path

import numpy as np
import pytest

from relspin.dynamics import (positive_energy_part, rhs, spin_expr, standard_battery, verify,
                              verify_residual)
from relspin.expr import _DiagLeaf, _cost, apply_expr, compiled, expectation
from relspin.fields import Envelope, UniformB, ZeroField
from relspin.grid import GridSpec, SpinorField, gaussian_packet, pointwise
from relspin.hamiltonians import (build_dirac_em, build_free_dirac, build_fw_direct,
                                  build_hamiltonian)
from relspin.operators import SpinKind
from relspin.propagate import _Observables, run, strang_step_dirac
from relspin.scenario import load_scenario

_MODEL = UniformB([0.0, 0.0, 0.05])
_PULSED = UniformB([0.0, 0.0, 0.05],
                   Envelope(shape="gaussian", amplitude=1.0, center=0.3, width=2.0))


def _position_state(grid):
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(4, *grid.shape)) + 1j * rng.normal(size=(4, *grid.shape))
    return SpinorField(grid, vals).normalized()


def test_round_trip(fft_count):
    psi = _position_state(GridSpec(3, 16, 24.0))
    psi.to_momentum().to_position()
    assert (fft_count.calls, fft_count.passes) == (2, 6)


def test_dirac_spin_expectation(params, fft_count):
    # S_D = Sigma/2 is a constant matrix: it acts in the state's own space
    psi = _position_state(GridSpec(3, 16, 24.0))
    for comp in spin_expr(SpinKind.DIRAC, params):
        expectation(comp, psi)
    assert fft_count.passes == 0


def test_dirac_em_apply(params, fft_count):
    grid = GridSpec(3, 16, 24.0)
    psi = _position_state(grid)
    ham = build_hamiltonian("dirac-em", _MODEL, params)
    fft_count.reset()
    apply_expr(ham.total, psi)
    # kinetic c alpha.p reads all three k_j: to momentum (3); the gauge and
    # mass terms act in position (0) and are summed there; the absent scalar
    # potential is a zero constant and is skipped; the kinetic result joins
    # that position sum (3), the one cross-space move
    assert (fft_count.calls, fft_count.passes) == (2, 6)


def test_dirac_em_apply_momentum_state(params, fft_count):
    grid = GridSpec(3, 16, 24.0)
    psi = _position_state(grid).to_momentum()
    ham = build_hamiltonian("dirac-em", _MODEL, params)
    fft_count.reset()
    apply_expr(ham.total, psi)
    # kinetic and mass act in momentum (0); the gauge term reads A_x (along
    # y) and A_y (along x), so it transforms those two axes there and back
    # (4) and its result stays in momentum
    assert fft_count.passes == 4


# Under _MODEL's constant envelope, E, dE/dt, dB/dt and d2B/dt2 vanish, and
# A_z = (b0 x r)_z / 2 is the scalar 0: every term built on them is skipped.
# Under _PULSED at t = 0.7 only A_z and E_z, dE/dt_z vanish.  B, dB/dt and
# d2B/dt2 are constant leaves, which act in the state's own space.  A_x and
# E_x vary along y only, A_y and E_y along x only, and p_i along i only, so
# every field or momentum component leaf transforms its one axis (2), and
# every result stays in the state's space: a kinetic component (p - eA)_i
# costs 2 from either space, except (p - eA)_z = p_z from momentum (0).  So
# (p - eA)^2 costs 8 from momentum and 12 from position.
#
# A case id ends in the case's count in transform calls from before counts
# were pinned in passes, which keeps the ids stable.
_FW_APPLY = [
    # kinetic 8, zeeman 0
    ("fw-direct-constant-momentum-8", "fw-direct", _MODEL, "momentum", 8),
    # kinetic 12, zeeman 0
    ("fw-direct-constant-position-11", "fw-direct", _MODEL, "position", 12),
    # the above 8 plus field-derivative-soc 12: E x (p - eA) without its E_z
    # pairs, E_y p_z and E_x p_z 2 each, E_x (p - eA)_y and E_y (p - eA)_x
    # 4 each; the dB/dt piece and nutation are constants
    ("fw-direct-gaussian-momentum-18", "fw-direct", _PULSED, "momentum", 20),
    # kinetic 12, soc 2 each (the E_j act in position)
    ("fw-direct-gaussian-position-23", "fw-direct", _PULSED, "position", 20),
    # kinetic 8, mass-correction (sq sq) 16, kinetic-zeeman-cross 16
    ("fw-full-constant-momentum-40", "fw-full", _MODEL, "momentum", 40),
    # kinetic 12, mass-correction 24, kinetic-zeeman-cross 24
    ("fw-full-constant-position-47", "fw-full", _MODEL, "position", 60),
    # the above 40 plus spin-orbit and de-dt 24 each: X x (p - eA) 12 as in
    # fw-direct, and (p - eA) x X without its X_z pairs 2 + 2 + 4 + 4
    ("fw-full-gaussian-momentum-78", "fw-full", _PULSED, "momentum", 88),
    # the above 60 plus spin-orbit and de-dt 16 each (2 per pair)
    ("fw-full-gaussian-position-81", "fw-full", _PULSED, "position", 92),
]


@pytest.mark.parametrize("family, model, space, count", [c[1:] for c in _FW_APPLY],
                         ids=[c[0] for c in _FW_APPLY])
def test_fw_apply(params, fft_count, family, model, space, count):
    grid = GridSpec(3, 16, 24.0)
    psi = _position_state(grid).in_space(space)
    ham = build_hamiltonian(family, model, params)
    fft_count.reset()
    apply_expr(ham.total, psi, 0.7)
    assert fft_count.passes == count


def test_standard_battery_3d(params, grid_3d, fft_count):
    states = standard_battery(grid_3d, params)
    # each packet is built in position space and moved to momentum once (3),
    # where it is projected and its k = 0 bin stripped
    assert len(states) == 2
    assert fft_count.passes == 6


def test_pryce_dirac_em_verify(params, battery_3d, fft_count):
    ham = build_hamiltonian("dirac-em", _MODEL, params)
    fft_count.reset()
    verify(SpinKind.PRYCE, ham, battery_3d)
    # the battery is in momentum space, where verify works; per state:
    # H psi (4: the gauge leaf transforms x and y, there and back), then per
    # axis
    #   S (H psi) and S psi, momentum-diagonal:      0 + 0
    #   H (S psi):                                   4
    #   the compiled printed total, as a rung's:     4
    #   printed terms, each applied once for its norm:
    #     sigma-cross-b-alpha-p  alpha.p and constants in momentum  0
    #     alpha-r-gradient       alpha.r reads every axis: to
    #                            position, 1/p^2 back               6
    #     r-p-alpha-b            three r_j p_j products, each r_j
    #                            transforming its axis j            6
    # so 4 + 3 * (0 + 4 + 4 + 12) = 64 per state, 128 for the two-packet
    # battery
    assert len(battery_3d) == 2
    assert fft_count.passes == 128


def test_pryce_dirac_em_verify_position_states(params, battery_3d, fft_count):
    ham = build_hamiltonian("dirac-em", _MODEL, params)
    want = verify(SpinKind.PRYCE, ham, battery_3d)
    states = [psi.to_position() for psi in battery_3d]
    fft_count.reset()
    got = verify(SpinKind.PRYCE, ham, states)
    # one transform per state into momentum space (3 each), then the 128
    # above
    assert fft_count.passes == 134
    assert len(got.cells) == len(want.cells)
    for a, b in zip(got.cells, want.cells):
        assert (a.state, a.axis) == (b.state, b.axis)
        pairs = [(a.residual, b.residual), (a.lhs_norm, b.lhs_norm),
                 (a.rhs_norm, b.rhs_norm), (a.scale, b.scale)]
        pairs += [(a.term_norms[n], b.term_norms[n]) for n in b.term_norms]
        for x, y in pairs:
            assert abs(x - y) <= 1e-12 * abs(y)


# (kind, family, axis passes) on the two-state battery, named by the pair
_VERIFY = [
    # per state H psi 8 and, per axis, H (S psi) 8: under the constant
    # envelope only the zeeman terms are printed non-zero, and they and the
    # compiled total are momentum-diagonal, so 8 + 3 * 8 = 32, 2 * 32 = 64
    (SpinKind.PRYCE, "fw-direct", 64),
    # as above, plus 4 per axis for kinetic-coupling's B.(r x p) in the
    # compiled total (as a rung's) and 4 in the term: B_z is the only live
    # component, so r_x p_y and r_y p_x each transform one axis (2), and
    # their sum joins p^2 in momentum; 8 + 3 * (8 + 4 + 4) = 56, 2 * 56 = 112
    (SpinKind.FW, "fw-direct", 112),
    # per state H psi 4, then per axis H (S psi) 4, the compiled total
    # (10 on x and y, 12 on z, as a rung's), and the terms: alpha-r-gradient
    # 6 (as in the pryce check), alpha-b-gradient 6 (its r.p as in the pryce
    # check's r-p-alpha-b) and the three cross terms with (p - eA), which
    # cost 2 on the x and y axes (one live A_i) and 4 on z (A_x and A_y):
    # 4 + 2 * (4 + 10 + 6 + 6 + 3 * 2) + (4 + 12 + 6 + 6 + 3 * 4) = 108,
    # 2 * 108 = 216
    (SpinKind.FW, "dirac-em", 216),
]


@pytest.mark.parametrize("kind, family, count", _VERIFY,
                         ids=[f"{kind}-{family}" for kind, family, _ in _VERIFY])
def test_verify(params, battery_3d, fft_count, kind, family, count):
    ham = build_hamiltonian(family, _MODEL, params)
    fft_count.reset()
    verify(kind, ham, battery_3d)
    assert fft_count.passes == count


# (kind, family, axis passes) of a refinement rung's ``verify_residual`` on
# the same battery: verify's cells, the same LHS and per axis one apply of
# the printed total as ``expr.compiled`` makes it, with no term applied on
# its own
_RUNG = [
    # per state H psi 4, then per axis H (S psi) 4 and the compiled
    #   1/p^2 (sum_j k_j (Sigma x B)_i alpha_j
    #          + sum_j r_j [e c B k_z k_i alpha_j - e c B k_j k_i alpha_z] / 2):
    # 1/p^2 applies once, in momentum (0), and r_x and r_y once each, along
    # their axis there and back (2).  The j = z monomials of alpha-r-gradient
    # and r-p-alpha-b both end in k_z with B_z in their matrix, so they merge
    # and cancel, and r_z is not applied.  So 4 + 3 * (4 + 4) = 28 per state,
    # against 64 in verify
    (SpinKind.PRYCE, "dirac-em", 56),
    # every printed term is momentum-diagonal: 8 + 3 * 8, as verify's
    (SpinKind.PRYCE, "fw-direct", 64),
    # r_x p_y and r_y p_x of kinetic-coupling apply once each, under 1/E,
    # as in verify's compiled total: 8 + 3 * (8 + 4), against 112 in verify
    (SpinKind.FW, "fw-direct", 88),
    # per state H psi 4, then per axis H (S psi) 4 and the compiled total,
    # its j = z monomials of r and B_z k_z cancelled as in the pryce check:
    # on x and y the r_x and r_y of alpha-r-gradient and alpha-b-gradient
    # once each under 1/EW (4) and the one live A_i once under each of c/E
    # and p^2/EW and once bare (6); on z alpha.r once whole, now along x and
    # y (4), under 1/EW r_x and r_y once each (4), and A_x and A_y (4):
    # 4 + 2 * (4 + 10) + (4 + 12) = 48, against 108 in verify
    (SpinKind.FW, "dirac-em", 96),
]


@pytest.mark.parametrize("kind, family, count", _RUNG)
def test_rung_residual(params, battery_3d, fft_count, products, kind, family, count):
    # no more passes and no more kernel products than the reporting verify
    ham = build_hamiltonian(family, _MODEL, params)
    verify_residual(kind, ham, battery_3d)  # the leaves fill
    fft_count.reset()
    products[0] = 0
    verify_residual(kind, ham, battery_3d)
    passes, rung_products = fft_count.passes, products[0]
    fft_count.reset()
    products[0] = 0
    verify(kind, ham, battery_3d)
    assert passes == count
    assert passes <= fft_count.passes and rung_products < products[0]


# (kind, family, B, per axis (axis passes, kernel products)) of one apply of
# the compiled printed total to a momentum state on the 32^3, L = 48 grid
# (``expr._cost``, read from the records of the leaves ``compiled`` fills):
# the baseline for choosing, per total, whether small same-space factors
# are fused (``expr._fused``) and from which end chains share a leaf
_COMPILED_COST = [
    (SpinKind.PRYCE, "dirac-em", "z", [(4, 36), (4, 36), (4, 28)]),
    (SpinKind.FW, "dirac-em", "z", [(10, 80), (10, 80), (12, 124)]),
    (SpinKind.PRYCE, "fw-direct", "z", [(0, 12), (0, 12), (0, 8)]),
    (SpinKind.FW, "fw-direct", "z", [(4, 72), (4, 72), (4, 48)]),
    (SpinKind.PRYCE, "dirac-em", "skew", [(6, 80), (6, 80), (6, 68)]),
    (SpinKind.FW, "dirac-em", "skew", [(26, 140), (26, 140), (26, 136)]),
    (SpinKind.PRYCE, "fw-direct", "skew", [(0, 28), (0, 28), (0, 22)]),
    (SpinKind.FW, "fw-direct", "skew", [(12, 116), (12, 116), (12, 108)]),
]


@pytest.mark.parametrize("kind, family, field, costs", _COMPILED_COST,
                         ids=[f"{k}-{f}-{b}" for k, f, b, _ in _COMPILED_COST])
def test_compiled_total_cost(params, grid_3d, kind, family, field, costs):
    b0 = [0.0, 0.0, 0.05] if field == "z" else [0.03, 0.02, 0.05]
    total = rhs(kind, family, UniformB(b0), params)[1]
    assert [_cost(compiled(r_i, grid_3d)) for r_i in total] == costs


@pytest.mark.parametrize("space, count", [("momentum", 0), ("position", 1)])
def test_potential_free_strang_step(params, fft_count, space, count):
    psi = _position_state(GridSpec(3, 16, 24.0)).in_space(space)
    fft_count.reset()
    out = strang_step_dirac(build_free_dirac(params), psi, 0.0, 0.01)
    # one factor, the momentum one: a step in momentum space, which is where
    # the result stays; a transform of every axis per call
    assert out.space == "momentum"
    assert (fft_count.calls, fft_count.passes) == (count, 3 * count)


def test_uniform_b_strang_step(params, fft_count):
    psi = _position_state(GridSpec(3, 16, 24.0))
    fft_count.reset()
    strang_step_dirac(build_dirac_em(_MODEL, params), psi, 0.0, 0.01)
    # position half-step, to momentum (3), kinetic step, back (3), half-step
    assert fft_count.passes == 6


def test_static_strang_builds_its_factors_once(params, mesh_count, monkeypatch):
    # under a static field the factors are pooled per (grid, dt) for one H:
    # the first step builds the position factor of dt/2 (used twice) and the
    # momentum factor of dt, and the other 7 steps reuse them; the gauge and
    # scalar leaves fill once, so each mesh is called once
    from relspin import propagate
    calls = {"_plan": 0, "_factors": 0}
    for name in calls:
        def counted(*args, fn=getattr(propagate, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(propagate, name, counted)
    grid = GridSpec(3, 16, 24.0)
    ham = build_dirac_em(_MODEL, params)
    psi = _position_state(grid)
    for i in range(8):
        psi = strang_step_dirac(ham, psi, i * 0.01, 0.01)
    builds = calls["_factors"]
    assert (builds, calls["_plan"] - builds) == (1, 7)
    assert dict(mesh_count) == {"a_mesh": 1, "phi_mesh": 1}


@pytest.mark.parametrize("space", ["position", "momentum"])
def test_measure_free(params, fft_count, space):
    grid = GridSpec(3, 16, 24.0)
    psi = _position_state(grid).in_space(space)
    ham = build_hamiltonian("free", ZeroField(), params)
    obs = _Observables(ham, grid)
    fft_count.reset()
    obs.measure(psi, 0.0)
    # psi is transformed once (3); r and the flux read the position copy,
    # every other observable (the free H included) the momentum copy
    assert fft_count.passes == 3


def test_free_particle_run(fft_count, monkeypatch):
    from relspin import propagate
    sizes = []
    monkeypatch.setattr(propagate, "strang_step_dirac", lambda ham, psi, t, dt: sizes.append(dt)
                        or strang_step_dirac(ham, psi, t, dt))
    sc = load_scenario(Path(__file__).resolve().parents[1] / "scenarios"
                       / "free_particle.json")
    ham = sc.make_hamiltonian()
    fft_count.reset()
    run(ham, sc.make_state(), sc.dt, sc.steps, stride=sc.stride)
    # the packet's projection into momentum space (1), then the rows'
    # transforms (13 for 101 rows, see below); the steps need none
    assert fft_count.calls <= 110
    # the free H is one exact factor under a static model, so the 25 steps
    # between two rows are one step of 25 dt: 2500 / 25 = 100 calls
    assert sizes == [sc.stride * sc.dt] * 100


def test_shipped_cli_runs_transform_once_per_row(fft_count, tmp_path, capsys, monkeypatch):
    import scipy.fft
    from relspin.cli import main
    from relspin.expr import LeafStack
    # the leading shape of every transform: (4,) a state, (rows, 4) a block
    shapes = []
    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(scipy.fft, name, lambda x, *args, fn=getattr(scipy.fft, name),
                            **kwargs: shapes.append(x.shape[:-1]) or fn(x, *args, **kwargs))
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    assert LeafStack.BLOCK_POINTS == 4096
    assert main(["simulate", "--scenario", str(scenarios / "free_particle.json"),
                 "--output", str(tmp_path / "free.csv")]) == 0
    # the packet's projection moves it to momentum space (1), where it stays,
    # so the steps and the first block's first row need no transform; then
    # 101 rows of 512 points in blocks of 4096 // 512 = 8 rows, 12 blocks of 8
    # and one of 5, each written in momentum space and moved to position
    # space by one transform (13).  The energy, norm and flux are read from
    # the block's two stacks.
    assert fft_count.calls == 1 + 13
    assert shapes == [(4,)] + [(8, 4)] * 12 + [(5, 4)]
    # every row is transformed once by its block
    assert sum(rows for rows, _ in shapes[1:]) == 101
    fft_count.reset()
    shapes.clear()
    assert main(["sweep", "--scenario", str(scenarios / "larmor_sweep.json"),
                 "--field-grid", "0.5,1,2,4", "--output", str(tmp_path / "sweep.csv")]) == 0
    # the packet's projection once (1), which leaves it in momentum space;
    # then per field strength 121 rows of 256 points in blocks of 16 rows, 7
    # of 16 and one of 9, each one transform to position space (8): the
    # constant steps transform nothing, so every row is in momentum space
    assert fft_count.calls == 1 + 4 * 8
    assert shapes == [(4,)] + ([(16, 4)] * 7 + [(9, 4)]) * 4
    assert sum(rows for rows, _ in shapes[1:]) == 4 * 121


# A model vector's mesh is pooled, so it is called once per (grid, t) and
# serves every leaf built on it, in any tree: the gauge leaf or the three
# A_i of (p - eA); zeeman, kinetic-zeeman-cross and b-squared on B; the six
# E_j leaves of fw-direct's E x (p - eA), or the twelve E_j and twelve
# dE/dt_j of fw-full's spin-orbit and de-dt.  phi (the scalar leaf) and
# div E (darwin) are read by one leaf each.  So every method is called once
# per new t.
_MESH_CALLS = {
    "dirac-em": {"a_mesh": 1, "phi_mesh": 1},
    "fw-direct": {"a_mesh": 1, "b_mesh": 1, "e_mesh": 1, "dbdt_mesh": 1,
                  "d2bdt2_mesh": 1},
    "fw-full": {"a_mesh": 1, "b_mesh": 1, "e_mesh": 1, "dedt_mesh": 1,
                "dive_mesh": 1},
}


@pytest.mark.parametrize("family, counts", list(_MESH_CALLS.items()))
@pytest.mark.parametrize("model", [_MODEL, _PULSED], ids=["constant", "gaussian"])
def test_mesh_calls_per_apply(params, mesh_count, family, counts, model):
    grid = GridSpec(3, 16, 24.0)
    psi = _position_state(grid)
    ham = build_hamiltonian(family, model, params)
    apply_expr(ham.total, psi, 0.7)
    assert dict(mesh_count) == counts
    mesh_count.clear()
    apply_expr(ham.total, psi, 0.9)
    # a static field's leaves fill once per grid; a pulsed one's once per t
    assert dict(mesh_count) == ({} if model is _MODEL else counts)


# rhs reads each model vector through the pool, so applying its three
# components calls each of those mesh methods once per new t, and once
# per grid under _MODEL; the free family reads no field
_RHS_MESH_CALLS = [
    (SpinKind.DIRAC, "free", {}),
    (SpinKind.FW, "free", {}),
    (SpinKind.PRYCE, "free", {}),
    (SpinKind.FW, "dirac-em", {"a_mesh": 1, "b_mesh": 1}),
    (SpinKind.PRYCE, "dirac-em", {"b_mesh": 1}),
    (SpinKind.FW, "fw-direct", {"b_mesh": 1, "e_mesh": 1, "dbdt_mesh": 1,
                                "d2bdt2_mesh": 1}),
    (SpinKind.PRYCE, "fw-direct", {"b_mesh": 1, "e_mesh": 1, "dbdt_mesh": 1,
                                   "d2bdt2_mesh": 1}),
]


@pytest.mark.parametrize("kind, family, counts", _RHS_MESH_CALLS)
@pytest.mark.parametrize("model", [_MODEL, _PULSED], ids=["constant", "gaussian"])
def test_rhs_mesh_calls_per_apply(params, mesh_count, kind, family, counts, model):
    grid = GridSpec(3, 16, 24.0)
    psi = _position_state(grid).to_momentum()
    total = rhs(kind, family, model, params)[1]
    for t in (0.7, 0.9):
        mesh_count.clear()
        for comp in total:
            # a guard of 1 lets the 1/p^2 leaves act on this random state
            apply_expr(comp, psi, t, guard=1.0)
        assert dict(mesh_count) == ({} if model is _MODEL and t == 0.9 else counts)


def _fresh_adjoint(leaf):
    """The adjoint as a new leaf at every occurrence, each producer
    conjugated: the reference the shared adjoint leaves must equal."""
    return type(leaf)([(lambda g, t, fn=fn: np.conj(fn(g, t)), m.conj().T)
                       for fn, m in leaf.terms],
                      time_dependent=leaf.time_dependent,
                      singular_origin=leaf.singular_origin)


@pytest.mark.parametrize("family", ["fw-direct", "fw-full"])
@pytest.mark.parametrize("model", [_MODEL, _PULSED], ids=["constant", "gaussian"])
def test_mesh_calls_per_hermitized_apply(params, mesh_count, monkeypatch, family, model):
    # a leaf's adjoint is built once and reads the conjugates of the leaf's
    # cached scalars, so (T + T^H)/2 fills no mesh that T does not
    grid = GridSpec(3, 16, 24.0)
    psi = _position_state(grid)
    got = apply_expr(build_hamiltonian(family, model, params, hermitize=True).total,
                     psi, 0.7)
    assert dict(mesh_count) == _MESH_CALLS[family]
    monkeypatch.setattr(_DiagLeaf, "_adjoint", _fresh_adjoint)
    want = apply_expr(build_hamiltonian(family, model, params, hermitize=True).total,
                      psi, 0.7)
    assert np.array_equal(got.values, want.values)


def _zeeman_run(params, model, steps, stride, terms=("zeeman",), propagator=None):
    grid = GridSpec(1, 128, 128.0)
    ham = build_fw_direct(model, params).subset(terms)
    psi = positive_energy_part(gaussian_packet(grid, 0.0, 8.0, 0.5, [1, 1, 0, 0]), params)
    return run(ham, psi, 0.05, steps, stride=stride, propagator=propagator)


def test_static_krylov_run_fills_once(params, mesh_count):
    # the zeeman leaf's B model vector calls b_mesh once for the whole run
    traj = _zeeman_run(params, _MODEL, 600, 100)
    assert len(traj.rows) == 7
    assert dict(mesh_count) == {"b_mesh": 1}


def test_pulsed_krylov_run_fills_per_t(params, mesh_count):
    # every step applies H at its midpoint and every row at its own time:
    # 20 midpoints and 5 rows, each a new t, so 25 calls
    traj = _zeeman_run(params, _PULSED, 20, 5)
    assert len(traj.rows) == 5
    assert dict(mesh_count) == {"b_mesh": 25}


def test_static_arnoldi_run_fills_once(params, mesh_count, krylov_count):
    traj = _zeeman_run(params, _MODEL, 600, 100, propagator="krylov")
    assert len(traj.rows) == 7
    assert krylov_count[0] == 600
    assert dict(mesh_count) == {"b_mesh": 1}


def test_pulsed_arnoldi_run_fills_per_t(params, mesh_count, krylov_count):
    traj = _zeeman_run(params, _PULSED, 20, 5, propagator="krylov")
    assert len(traj.rows) == 5
    assert krylov_count[0] == 20
    assert dict(mesh_count) == {"b_mesh": 25}


@pytest.mark.parametrize("propagator", [None, "krylov"], ids=["exact", "arnoldi"])
def test_pulsed_run_holds_one_pool_entry_per_key(params, propagator):
    # each new t's B mesh, and each midpoint's exact-step factors, replace
    # the last ones under the same key: 40 steps leave the entries 5 leave
    from relspin.expr import _POOL, release_pool
    keys = []
    for steps in (5, 40):
        release_pool()
        _zeeman_run(params, _PULSED, steps, 5, propagator=propagator)
        (held,) = _POOL.values()
        keys.append(set(held))
    assert keys[0] == keys[1]
    assert (("exact step", 0.05) in keys[1]) == (propagator is None)


def test_shipped_sweep_scenario_takes_no_arnoldi_step(krylov_count, monkeypatch):
    # its zeeman-only Hamiltonian under a uniform B is one constant matrix,
    # and under a static field its exact step crosses the 5 steps between
    # two rows at once: 600 / 5 = 120 constant steps, each one pointwise
    # product with U; a B along z makes U diagonal, 4 entries
    from relspin import propagate
    calls = []
    monkeypatch.setattr(propagate, "pointwise",
                        lambda *args: calls.append(args) or pointwise(*args))
    sc = load_scenario(Path(__file__).resolve().parents[1] / "scenarios"
                       / "larmor_sweep.json")
    traj = run(sc.make_hamiltonian(), sc.make_state(), sc.dt, sc.steps, stride=sc.stride)
    assert len(traj.rows) == sc.steps // sc.stride + 1
    assert krylov_count[0] == 0
    assert len(calls) == 120
    assert {len(entries) for _, [(entries, _)] in calls} == {4}


@pytest.mark.parametrize("terms, propagator", [
    (("kinetic", "zeeman"), None),   # p^2 acts in momentum, so no constant matrix
    (("zeeman",), "krylov"),         # named, Arnoldi runs even on a constant
])
def test_arnoldi_step_per_step(params, krylov_count, terms, propagator):
    _zeeman_run(params, _MODEL, 20, 5, terms, propagator)
    assert krylov_count[0] == 20


@pytest.mark.parametrize("model, steps, stride, count", [
    (_MODEL, 600, 600, 1),
    # 120 steps of 5 dt, then the last row's one of 3 dt: two step sizes
    (_MODEL, 603, 5, 2),
    (_PULSED, 20, 20, 20),
], ids=["constant", "constant-remainder", "gaussian"])
def test_constant_step_exponentials_per_run(params, monkeypatch, model, steps, stride, count):
    # a static field's U = exp(-i n dt M) is built once per (grid, n dt),
    # where n is the number of steps between two rows; a pulsed one's
    # exp(-i dt M) at every midpoint
    from relspin import propagate
    calls = []
    exp = propagate._exp_minus_idt
    monkeypatch.setattr(propagate, "_exp_minus_idt",
                        lambda *args: calls.append(args) or exp(*args))
    _zeeman_run(params, model, steps, stride)
    assert len(calls) == count


def test_strang_step_builds_one_position_factor(params, mesh_count):
    # both half steps of a step apply one position factor, built from the
    # gauge leaf's cached scalars; under the static field that leaf (its A
    # model vector) fills once per grid, for the steps and the energy alike
    grid = GridSpec(1, 128, 128.0)
    ham = build_dirac_em(_MODEL, params)
    psi = positive_energy_part(gaussian_packet(grid, 0.0, 8.0, 0.5, [1, 1, 0, 0]), params)
    run(ham, psi, 0.05, 40, stride=10)
    assert mesh_count["a_mesh"] == 1


@pytest.fixture
def products(monkeypatch):
    """Entries the leaf applies multiply since the fixture was made: the sum
    of len(entries) over the terms of every ``grid.pointwise`` call of
    ``expr``."""
    import relspin.expr
    count = [0]

    def counted(psi, terms, out=None):
        count[0] += sum(len(entries) for entries, _ in terms)
        return pointwise(psi, terms, out)
    monkeypatch.setattr(relspin.expr, "pointwise", counted)
    return count


_PRODUCTS = [("kinetic-free", 8, 4), ("gauge-coupling", 4, 4), ("mass", 4, 0),
             ("dirac-em", 16, 8)] + [(f"S_Py_{c}", 10, 0) for c in "xyz"]


@pytest.mark.parametrize("name, count, merged", _PRODUCTS)
def test_products_per_apply(params, products, name, count, merged):
    # a 16^3 apply under a uniform B along z.  The fill sums the entries
    # that two or more terms put on one (row, col) into one coefficient
    # where their scalars broadcast to fewer points than the grid: c alpha.k
    # puts 12 entries on 8 (row, col), 4 of them shared by k_x and k_y (12
    # products before), -ec alpha.A with A = B x r / 2 in the xy-plane 8 on
    # 4 (8 before), and the mass's 4 entries share none; dirac-em is their
    # sum, 16 (24 before).  The Pryce spin's one sparse scalar is the
    # constant of Sigma_i / 2, so nothing sums and it takes 10 as before.
    grid = GridSpec(3, 16, 24.0)
    rng = np.random.default_rng(9)
    vals = rng.normal(size=(4, *grid.shape)) + 1j * rng.normal(size=(4, *grid.shape))
    vals[(slice(None), *grid.origin_index)] = 0.0  # no k = 0 weight for the Pryce guard
    ham = build_hamiltonian("dirac-em", _MODEL, params)
    pryce = {leaf.name: leaf for leaf in spin_expr(SpinKind.PRYCE, params)}
    expr = ham.total if name == "dirac-em" else pryce.get(name) or ham.term(name)
    apply_expr(expr, SpinorField(grid, vals, "momentum"))
    assert products[0] == count
    # a merged coefficient is an array the producers did not return, and is
    # never as large as the grid
    leaves = expr.children if name == "dirac-em" else [expr]
    coefs = [a for leaf in leaves for _, a in leaf._live if not any(a is b for b in leaf._arrays)]
    assert len(coefs) == merged
    assert all(np.size(a) < grid.npoints for a in coefs)


def test_check_operators_linear_algebra(monkeypatch, capsys):
    # 1000 samples are one chunk.  Per spin kind: one eigenvalue-only solve
    # per component, stacked over the chunk, and no eigenvector solve (the
    # spectrum check reads eigenvalues only); three commutators for su2 (the
    # cyclic pairs) and three for free commutation (one per component)
    from collections import Counter

    from relspin import cli, operators
    count = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(operators, "commutator", counted("commutator", operators.commutator))
    assert cli.main(["check-operators", "--samples", "1000"]) == 0
    assert (count["eigvalsh"], count["eigh"], count["commutator"]) == (9, 0, 18)
