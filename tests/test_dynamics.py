import json
import tracemalloc
import weakref

import numpy as np
import pytest

import relspin.dynamics
import relspin.expr
from relspin.algebra import ID4, commutator, levi_civita
from relspin.errors import PreconditionError, SingularMomentumError
from relspin.expr import (Add, ConstMatrix, MomentumDiag, Mul, OperatorExpr, PositionDiag,
                          Scale, _DiagLeaf, apply_expr, block_parity, compiled)
from relspin.fields import Envelope, PlaneWavePulse, UniformB, UniformE, ZeroField
from relspin.grid import GridSpec, SpinorField, gaussian_packet
from relspin.hamiltonians import (P, R, build_dirac_em, build_free_dirac, build_fw_direct,
                                  build_hamiltonian, triple)
from relspin.dynamics import (HOLD_TOL, VERIFY_GUARD, battery_states, classify_residual_series,
                              position_correction_expr, positive_energy_part, rhs,
                              spin_expr, standard_battery, total_j_identity,
                              verify, verify_residual)
from relspin.operators import (ALPHA, BETA, SIGMA, PhysParams, SpinKind,
                               position_correction, spin_operator)


class TestSpinExpr:
    @pytest.mark.parametrize("kind", list(SpinKind))
    def test_matches_fixed_momentum_matrices(self, kind, params):
        # plane wave at a lattice momentum: expression action == 4x4 action,
        # for S and for R; the 3D momentum has all three components nonzero
        rng = np.random.default_rng(9)
        for g, idx in ((GridSpec(1, 64, 32.0), (45,)),
                       (GridSpec(3, 8, 8.0), (5, 2, 7))):
            k = np.zeros(3)
            for axis, m in enumerate(idx):
                k[axis] = g.axis_momenta(axis)[m]
            rx, ry, rz = g.r
            pol = rng.normal(size=4) + 1j * rng.normal(size=4)
            wave = np.broadcast_to(np.exp(1j * (k[0] * rx + k[1] * ry + k[2] * rz)),
                                   g.shape)
            psi = SpinorField(g, pol.reshape((4,) + (1,) * g.dim) * wave).normalized()
            for triple, mats in ((spin_expr(kind, params), spin_operator(kind, k, params)),
                                 (position_correction_expr(kind, params),
                                  position_correction(kind, k, params))):
                for i in range(3):
                    out = apply_expr(triple[i], psi)
                    # the operator psi at each x equals the fixed-k matrix
                    # acting on psi(x)
                    direct = np.einsum("ab,b...->a...", mats[i], psi.values)
                    assert np.max(np.abs(out.values - direct)) <= 1e-12

    def test_polarized_packet_spin_half(self, grid_1d, params):
        # x-polarized positive-energy packet with k along x: <S_FW,x> = 1/2
        pol = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
        psi = positive_energy_part(gaussian_packet(grid_1d, 0.0, 16.0, 1.0, pol), params)
        triple = spin_expr(SpinKind.FW, params)
        val = psi.inner(apply_expr(triple[0], psi))
        assert abs(val.real - 0.5) <= 1e-8
        assert abs(val.imag) <= 1e-10

    def test_fw_energy_evaluated_once(self, monkeypatch):
        # every FW S and R pair reads E_k: one evaluation per (grid, params)
        # for all six leaves' fills, and one per batch at fixed momenta
        import relspin.dynamics
        import relspin.operators
        orig, calls = relspin.operators.energy_k2, [0]

        def counted(k2, params):
            calls[0] += 1
            return orig(k2, params)
        monkeypatch.setattr(relspin.operators, "energy_k2", counted)
        monkeypatch.setattr(relspin.dynamics, "energy_k2", counted)
        params = PhysParams(c=1.7)  # a (grid, params) pair no other test fills
        grid = GridSpec(3, 8, 6.0)
        for _ in range(2):
            for leaf in (spin_expr(SpinKind.FW, params)
                         + position_correction_expr(SpinKind.FW, params)):
                leaf._scalars(grid, 0.0)
        assert calls[0] == 1
        p = np.random.default_rng(3).normal(size=(5, 3))
        spin_operator(SpinKind.FW, p, params)
        position_correction(SpinKind.FW, p, params)
        assert calls[0] == 3

    @pytest.mark.parametrize("build, kind, held, distinct", [
        (spin_expr, SpinKind.FW, 18, 10), (spin_expr, SpinKind.PRYCE, 9, 6),
        (position_correction_expr, SpinKind.FW, 18, 10),
        (position_correction_expr, SpinKind.PRYCE, 6, 3)],
        ids=["S_FW", "S_Py", "R_FW", "R_Py"])
    def test_equal_coefficients_are_one_array(self, params, monkeypatch, build, kind, held,
                                              distinct):
        # each distinct coefficient of a table is one pooled array, read by
        # every component: c k_j/(2E), k^2/(EW) and k_i k_m/(EW) (the same
        # for k_m k_i) of S_FW, k_i k_m/k^2 of S_Py, c/(2E), k_m k_j/(E^2 W)
        # and k_b/(EW) of R_FW, k_b/k^2 of R_Py
        import relspin.dynamics
        grid = GridSpec(3, 16, 24.0)
        leaves = build(kind, params)
        arrays = [a for leaf in leaves for a in leaf._scalars(grid, 0.0) if a.size == grid.npoints]
        assert (len(arrays), len({id(a) for a in arrays})) == (held, distinct)
        rng = np.random.default_rng(4)
        psi = SpinorField(grid, rng.normal(size=(4, *grid.shape))
                          + 1j * rng.normal(size=(4, *grid.shape))).to_momentum()
        # a guard of 1 lets the Pryce leaves act on this random state
        shared = [apply_expr(leaf, psi, guard=1.0).data for leaf in leaves]
        monkeypatch.setattr(relspin.dynamics, "pooled", lambda key, grid, stamp, make: make())
        unshared = build(kind, params)
        assert len({id(a) for leaf in unshared for a in leaf._scalars(grid, 0.0)
                    if a.size == grid.npoints}) == held
        for got, leaf in zip(shared, unshared):
            assert np.array_equal(got, apply_expr(leaf, psi, guard=1.0).data)

    def test_dirac_fw_agree_at_small_momentum(self, params):
        g = GridSpec(1, 512, 400000.0)
        psi = gaussian_packet(g, 0.0, 5.0e4, 0.0, [1, 0, 0, 0])
        d = spin_expr(SpinKind.DIRAC, params)
        f = spin_expr(SpinKind.FW, params)
        for i in range(3):
            dv = psi.inner(apply_expr(d[i], psi))
            fv = psi.inner(apply_expr(f[i], psi))
            assert abs(dv - fv) <= 1e-10


class TestRhsBuilders:
    def test_fw_free_is_zero(self, params, battery_1d):
        terms, total = rhs(SpinKind.FW, "free", ZeroField(), params)
        assert terms == []
        for i in range(3):
            assert apply_expr(total[i], battery_1d[0]).norm() == 0.0

    def test_pryce_free_is_zero(self, params, battery_1d):
        _, total = rhs(SpinKind.PRYCE, "free", ZeroField(), params)
        assert all(apply_expr(total[i], battery_1d[0]).norm() == 0.0
                   for i in range(3))

    def test_dirac_free_components(self, params, battery_1d):
        # -c(alpha x p): with k along x the y component is -c alpha_z p_x
        _, total = rhs(SpinKind.DIRAC, "free", ZeroField(), params)
        psi = battery_1d[1]
        manual = Scale(-params.c, Mul(ConstMatrix(ALPHA[2]),
                                      MomentumDiag([(lambda g, t: np.broadcast_to(
                                          g.k[0], g.shape).astype(float), ID4)])))
        got = apply_expr(total[1], psi)
        want = apply_expr(manual, psi)
        assert (got - want).norm() <= 1e-12 * max(want.norm(), 1)
        assert apply_expr(total[0], psi).norm() <= 1e-14

    def test_unsupported_combinations(self, params):
        with pytest.raises(PreconditionError):
            rhs(SpinKind.DIRAC, "dirac-em", UniformB(), params)
        with pytest.raises(PreconditionError):
            rhs(SpinKind.FW, "dirac-em",
                PlaneWavePulse(np.array([0, 0.1, 0]), np.array([1, 0, 0]), 1.0),
                params)
        with pytest.raises(PreconditionError):
            rhs(SpinKind.FW, "fw-full", UniformB(), params)
        with pytest.raises(PreconditionError, match="scalar potential"):
            rhs(SpinKind.PRYCE, "dirac-em", UniformE(np.array([0.01, 0.0, 0.0])), params)

    def test_term_vocabulary(self, params):
        model = UniformB(np.array([0.0, 0.0, 0.1]))
        terms, _ = rhs(SpinKind.FW, "dirac-em", model, params)
        assert [n for n, _ in terms] == [
            "alpha-cross-kinetic", "beta-p-cross-kinetic",
            "longitudinal-alpha-cross", "alpha-r-gradient", "alpha-b-gradient",
            "sigma-alpha-field-cross", "sigma-dot-alpha-cross",
            "sigma-p-alpha-b", "sigma-b-p-alpha"]
        terms, _ = rhs(SpinKind.PRYCE, "dirac-em", model, params)
        assert [n for n, _ in terms] == [
            "sigma-cross-b-alpha-p", "alpha-r-gradient", "r-p-alpha-b"]
        terms, _ = rhs(SpinKind.PRYCE, "fw-direct", model, params)
        assert [n for n, _ in terms][:3] == [
            "zeeman-precession", "zeeman-projection", "soc-precession"]


class TestFreeVerification:
    @pytest.mark.parametrize("kind", list(SpinKind))
    def test_residual_at_floor(self, kind, params, battery_1d):
        ham = build_free_dirac(params)
        report = verify(kind, ham, battery_1d)
        assert report.residual <= 1e-8
        assert report.classification == "holds"


class TestZeemanIdentities:
    def test_dirac_spin_4x4(self, rng):
        # (1/i)[Sigma_i/2, -(e beta/2m0) Sigma.B] = (e beta/2m0)(Sigma x B)_i
        e, m0 = -1.0, 1.0
        for _ in range(10):
            b = rng.normal(size=3)
            hz = -(e / (2 * m0)) * BETA @ sum(b[j] * SIGMA[j] for j in range(3))
            for i in range(3):
                lhs = commutator(SIGMA[i] / 2, hz) / 1j
                sxb = sum(levi_civita(i, a, c) * SIGMA[a] * b[c]
                          for a in range(3) for c in range(3))
                assert np.linalg.norm(lhs - (e / (2 * m0)) * BETA @ sxb) <= 1e-13

    def test_pryce_leading_term_4x4(self, rng):
        # first commutator of the two-piece assembly gives (e/2m0)(Sigma x B)_i
        e, m0 = -1.0, 1.0
        for _ in range(10):
            b = rng.normal(size=3)
            hz = -(e / (2 * m0)) * BETA @ sum(b[j] * SIGMA[j] for j in range(3))
            for i in range(3):
                lhs = commutator(BETA @ SIGMA[i] / 2, hz) / 1j
                sxb = sum(levi_civita(i, a, c) * SIGMA[a] * b[c]
                          for a in range(3) for c in range(3))
                assert np.linalg.norm(lhs - (e / (2 * m0)) * sxb) <= 1e-13

    def test_zeeman_only_grid_check(self, params, grid_1d, battery_1d):
        # Dirac-spin commutator with a Zeeman-only direct Hamiltonian matches
        # the exact 4x4 value on the grid
        model = UniformB(np.array([0.0, 0.0, 0.4]))
        ham = build_fw_direct(model, params).subset(["zeeman"])
        s_triple = spin_expr(SpinKind.DIRAC, params)
        e, m0 = params.e, params.m0
        for psi in battery_1d[:2]:
            h_psi = apply_expr(ham.total, psi)
            for i in range(3):
                lhs = (apply_expr(s_triple[i], h_psi)
                       - apply_expr(ham.total, apply_expr(s_triple[i], psi))) * (-1j)
                sxb = sum(levi_civita(i, a, c) * SIGMA[a] * model.b0[c]
                          for a in range(3) for c in range(3))
                want = SpinorField(grid_1d, np.einsum(
                    "ab,b...->a...", (e / (2 * m0)) * BETA @ sxb, psi.values), psi.space)
                scale = max(want.norm(), 1e-14)
                assert (lhs - want).norm() <= 1e-10 * max(scale, 1.0)


class TestPryceDirectZeemanSector:
    """The Zeeman sector of the Pryce direct-Hamiltonian equation is
    momentum-diagonal, so it is checkable exactly.  The printed projection
    term reduces the defect but does not close the identity; the commutator
    gives -(e/2m0) beta(1-beta) (Sigma.(p x B)) p / p^2 instead."""

    def setup_method(self):
        self.params = PhysParams()
        self.b = np.array([0.0, 0.0, 0.05])
        e, m0 = self.params.e, self.params.m0
        self.hz = -(e / (2 * m0)) * BETA @ sum(self.b[j] * SIGMA[j]
                                               for j in range(3))

    def _lhs(self, k, i):
        s = spin_operator(SpinKind.PRYCE, k, self.params)
        return commutator(s[i], self.hz) / 1j

    def test_printed_form_mismatch(self, rng):
        e, m0 = self.params.e, self.params.m0
        lower = ID4 - BETA
        worst = 0.0
        zeeman_scale = abs(e) * np.linalg.norm(self.b) / (2 * m0)
        for _ in range(20):
            k = rng.normal(size=3) * 1.3
            k2 = k @ k
            for i in range(3):
                m1 = (e / (2 * m0)) * sum(levi_civita(i, a, c) * SIGMA[a] * self.b[c]
                                          for a in range(3) for c in range(3))
                vec = [self.b[a] * k2 - k[a] * np.dot(self.b, k) for a in range(3)]
                m2 = (e / (4 * m0 * k2)) * BETA @ lower @ sum(
                    levi_civita(i, a, c) * SIGMA[a] * vec[c]
                    for a in range(3) for c in range(3))
                worst = max(worst, np.linalg.norm(self._lhs(k, i) - m1 - m2))
        assert worst > 0.2 * zeeman_scale     # an O(1) relative mismatch

    def test_derived_form_closes(self, rng):
        e, m0 = self.params.e, self.params.m0
        lower = ID4 - BETA
        for _ in range(20):
            k = rng.normal(size=3) * 1.3
            k2 = k @ k
            kxb = np.cross(k, self.b)
            for i in range(3):
                m1 = (e / (2 * m0)) * sum(levi_civita(i, a, c) * SIGMA[a] * self.b[c]
                                          for a in range(3) for c in range(3))
                m2 = -(e / (2 * m0)) * BETA @ lower @ (
                    (k[i] / k2) * sum(kxb[m] * SIGMA[m] for m in range(3)))
                assert np.linalg.norm(self._lhs(k, i) - m1 - m2) <= 1e-14


class TestFieldOffReduction:
    def test_pryce_em_collapses_to_free(self, params, battery_1d):
        _, total = rhs(SpinKind.PRYCE, "dirac-em", ZeroField(), params)
        for psi in battery_1d[:2]:
            for i in range(3):
                assert apply_expr(total[i], psi).norm() <= 1e-8

    def test_pryce_direct_collapses_to_free(self, params, battery_1d):
        _, total = rhs(SpinKind.PRYCE, "fw-direct", ZeroField(), params)
        for psi in battery_1d[:2]:
            for i in range(3):
                assert apply_expr(total[i], psi).norm() <= 1e-8

    def test_fw_em_zero_field_defect(self, params, battery_1d):
        # the printed equation does NOT collapse to zero; its zero-field
        # remainder equals -(m0 c^2/E_p) c (alpha x p) exactly
        _, total = rhs(SpinKind.FW, "dirac-em", ZeroField(), params)
        er, c = params.rest_energy, params.c

        def defect(i):
            pairs = []
            for j in range(3):
                for k in range(3):
                    eps = levi_civita(i, j, k)
                    if eps:
                        pairs.append((
                            lambda g, t, k=k: -c * er * np.broadcast_to(
                                g.k[k], g.shape) / np.sqrt(
                                g.k2 * c**2 + er**2), eps * ALPHA[j]))
            return MomentumDiag(pairs)

        for psi in battery_1d[:2]:
            for i in range(3):
                a = apply_expr(total[i], psi)
                b = apply_expr(defect(i), psi)
                if b.norm() < 1e-12:
                    assert a.norm() < 1e-10
                    continue
                assert (a - b).norm() <= 1e-6 * b.norm()

    def test_fw_direct_zero_field_sign_flip(self, params, battery_1d):
        # at zero field the printed kinetic-coupling term equals MINUS the
        # commutator: LHS + RHS = 0 to machine precision on the grid
        ham = build_fw_direct(ZeroField(), params)
        _, total = rhs(SpinKind.FW, "fw-direct", ZeroField(), params)
        s_triple = spin_expr(SpinKind.FW, params)
        for psi in battery_1d[:2]:
            h_psi = apply_expr(ham.total, psi)
            for i in (1, 2):   # x component vanishes for k along x
                lhs = (apply_expr(s_triple[i], h_psi)
                       - apply_expr(ham.total, apply_expr(s_triple[i], psi))) * (-1j)
                rhs_f = apply_expr(total[i], psi)
                assert rhs_f.norm() > 1e-3
                assert (lhs + rhs_f).norm() <= 1e-10 * rhs_f.norm()
                assert (lhs - rhs_f).norm() >= 1.9 * rhs_f.norm()


class TestTotalJ:
    def test_dirac_identically_zero(self, params, battery_1d):
        res = total_j_identity(SpinKind.DIRAC, battery_1d[:2], params)
        assert max(res) <= 1e-13

    @pytest.mark.parametrize("kind", [SpinKind.FW, SpinKind.PRYCE])
    def test_grid_residual(self, kind, params, battery_1d):
        res = total_j_identity(kind, battery_1d, params)
        assert max(res) <= 1e-6

    @pytest.mark.parametrize("kind", [SpinKind.FW, SpinKind.PRYCE])
    def test_refinement_non_increasing(self, kind, params):
        def check(grid):
            states = standard_battery(grid, params, count=2)
            return max(total_j_identity(kind, states, params))

        residuals = [check(GridSpec(1, n, 256.0)) for n in (256, 512, 1024)]
        assert max(residuals) <= 1e-6
        floor = 1e-10
        for coarse, fine in zip(residuals, residuals[1:]):
            assert fine <= coarse * 1.5 or fine <= floor


def _near_origin_state(grid):
    """Upper-spinor weight on the momenta one step from k = 0 along x, none
    at k = 0: the r_j of the Pryce gradient terms carry some of it there."""
    vals = np.zeros((4, *grid.shape), dtype=complex)
    for step in (-1, 1):
        vals[(0, grid.origin_index[0] + step, *grid.origin_index[1:])] = 1.0
    return SpinorField(grid, vals, "momentum")


class TestCompiledRhs:
    GRID = GridSpec(3, 16, 24.0)

    @pytest.mark.parametrize("kind, family", [
        (SpinKind.PRYCE, "dirac-em"), (SpinKind.FW, "dirac-em"),
        (SpinKind.PRYCE, "fw-direct"), (SpinKind.FW, "fw-direct")])
    @pytest.mark.parametrize("model, t", [
        (UniformB([0.0, 0.0, 0.05]), 0.0),
        (UniformB([0.0, 0.0, 0.05], Envelope(shape="gaussian", amplitude=1.0, center=0.3,
                                             width=2.0)), 0.7)], ids=["constant", "gaussian"])
    def test_printed_total_compiles_to_an_equal_tree(self, params, kind, family, model, t):
        # per axis, from a momentum state with no k = 0 weight; the pulsed
        # field at t = 0.7 makes E, dB/dt and d2B/dt2 live
        psi = TestPeakMemory()._state()
        for printed in rhs(kind, family, model, params)[1]:
            want = apply_expr(printed, psi, t, VERIFY_GUARD)
            got = apply_expr(compiled(printed, self.GRID, t), psi, t, VERIFY_GUARD)
            assert (got - want).norm() <= 1e-13 * want.norm()

    def test_compiled_inverse_momentum_guards_its_summed_input(self, params):
        # the x total's 1/p^2 acts once, on the sum of the three terms'
        # inputs, whose k = 0 weight (1.7e-2) exceeds the guard; the field
        # is weak, so that S_Py (H psi) passes its guard
        ham = build_dirac_em(UniformB([0.0, 0.0, 1e-4]), params)
        psi = _near_origin_state(self.GRID)
        total = rhs(SpinKind.PRYCE, "dirac-em", ham.model, params)[1]
        with pytest.raises(SingularMomentumError, match=r"operator 1/p\^2 is singular"):
            apply_expr(compiled(total[0], self.GRID), psi, guard=VERIFY_GUARD)
        with pytest.raises(SingularMomentumError, match=r"operator 1/p\^2 is singular"):
            verify_residual(SpinKind.PRYCE, ham, [psi])


class TestBlockStructure:
    def test_pryce_em_offdiagonal(self, params, grid_3d):
        model = UniformB(np.array([0.0, 0.0, 0.05]))
        terms, _ = rhs(SpinKind.PRYCE, "dirac-em", model, params)
        for name, triple in terms:
            for comp in triple:
                assert block_parity(comp, grid_3d) in ("offdiagonal", "zero"), name

    def test_pryce_direct_diagonal(self, params, grid_3d):
        model = UniformB(np.array([0.0, 0.0, 0.05]))
        terms, _ = rhs(SpinKind.PRYCE, "fw-direct", model, params)
        for name, triple in terms:
            for comp in triple:
                assert block_parity(comp, grid_3d) in ("diagonal", "zero"), name

    def test_vanishing_term_is_zero(self, params):
        # the parity is read from the monomials on the grid at t = 0:
        # soc-precession reads E = -dA/dt, which a constant envelope makes
        # zero, so the term vanishes there; a Gaussian envelope with
        # g'(0) != 0 makes it live, and it is diagonal
        grid = GridSpec(3, 8, 12.0)
        for envelope, parity in ((Envelope(), "zero"),
                                 (Envelope(shape="gaussian", center=0.3, width=2.0), "diagonal")):
            model = UniformB(np.array([0.0, 0.0, 0.05]), envelope)
            terms = dict(rhs(SpinKind.FW, "fw-direct", model, params)[0])
            assert block_parity(Add(list(terms["soc-precession"])), grid) == parity

    def test_state_level_projection(self, params, battery_3d):
        # apply each Pryce EM term between the upper/lower block projectors
        grid = battery_3d[0].grid
        model = UniformB(np.array([0.0, 0.0, 0.05]))
        terms, _ = rhs(SpinKind.PRYCE, "dirac-em", model, params)
        up = ConstMatrix(np.diag([1, 1, 0, 0]).astype(complex))
        lo = ConstMatrix(np.diag([0, 0, 1, 1]).astype(complex))
        psi = battery_3d[0]
        for name, triple in terms:
            for comp in triple:
                t_psi = apply_expr(comp, psi, guard=1e-4)
                if t_psi.norm() <= 1e-14:
                    continue
                same = (apply_expr(up, apply_expr(comp, apply_expr(up, psi),
                                                  guard=1e-4)).norm()
                        + apply_expr(lo, apply_expr(comp, apply_expr(lo, psi),
                                                    guard=1e-4)).norm())
                assert same <= 1e-12 * t_psi.norm(), name


class TestVerifyReporting:
    def test_report_schema_and_determinism(self, params, battery_1d):
        ham = build_free_dirac(params)
        r1 = verify(SpinKind.FW, ham, battery_1d[:2])
        r2 = verify(SpinKind.FW, ham, battery_1d[:2])
        assert r1.to_json() == r2.to_json()
        doc = json.loads(r1.to_json())
        assert doc["schema"] == "relspin-residual-report/1"
        for key in ("kind", "family", "grid", "residual", "classification",
                    "cells", "term_names", "block_structure", "refinement"):
            assert key in doc

    def test_states_may_be_any_iterable(self, params, grid_1d, battery_1d):
        # a generator, and the battery made one state at a time, give the
        # report of the list
        ham = build_dirac_em(UniformB([0.0, 0.0, 0.05]), params)
        want = verify(SpinKind.PRYCE, ham, battery_1d)
        for states in ((psi for psi in battery_1d), battery_states(grid_1d, params)):
            got = verify(SpinKind.PRYCE, ham, states)
            assert got.to_dict() == want.to_dict()
            assert got.removal_gains == want.removal_gains

    @pytest.mark.parametrize("run", [
        lambda ham, params: verify(SpinKind.PRYCE, ham, []),
        lambda ham, params: verify(SpinKind.PRYCE, ham, iter(())),
        lambda ham, params: verify_residual(SpinKind.PRYCE, ham, []),
        lambda ham, params: total_j_identity(SpinKind.PRYCE, [], params),
    ], ids=["verify", "verify-generator", "verify_residual", "total_j_identity"])
    def test_empty_battery_refused(self, params, run):
        with pytest.raises(PreconditionError, match="no states"):
            run(build_free_dirac(params), params)

    @pytest.mark.parametrize("count", [0, -1])
    def test_battery_needs_a_state(self, params, grid_1d, count):
        for make in (battery_states, standard_battery):
            with pytest.raises(PreconditionError, match="at least one state"):
                make(grid_1d, params, count=count)

    def test_classification_rules(self):
        assert classify_residual_series([1e-9]) == "holds"
        assert classify_residual_series([1e-3, 4e-4, 1e-4]) == "converging"
        assert classify_residual_series([1e-3, 9e-4, 8e-4]) == "non-converging"
        assert classify_residual_series([1e-3, 1e-9]) == "holds"

    def test_removal_gains_match_brute_force(self, params, battery_1d):
        # gain of T = ||LHS - (RHS - T)|| - ||LHS - RHS||, largest over the
        # axes of state 0, with the reduced right-hand side summed afresh
        ham = build_dirac_em(UniformB(np.array([0.0, 0.0, 0.05])), params)
        report = verify(SpinKind.FW, ham, battery_1d[:2])
        assert report.residual > HOLD_TOL
        assert "removal_gains" not in report.to_dict()
        terms, _ = rhs(SpinKind.FW, "dirac-em", ham.model, params)
        s_triple = spin_expr(SpinKind.FW, params)
        psi = battery_1d[0]
        want = {}
        for i in range(3):
            lhs = (apply_expr(s_triple[i], apply_expr(ham.total, psi))
                   - apply_expr(ham.total, apply_expr(s_triple[i], psi))) * (-1j)
            applied = [(n, apply_expr(tr[i], psi)) for n, tr in terms]
            full = psi * 0.0
            for _, field in applied:
                full = full + field
            base = (lhs - full).norm()
            for name, _ in applied:
                reduced = psi * 0.0
                for other, field in applied:
                    if other != name:
                        reduced = reduced + field
                gain = (lhs - reduced).norm() - base
                want[name] = max(want.get(name, -np.inf), gain)
        assert list(report.removal_gains) == [n for n, _ in terms]
        for name, value in want.items():
            assert abs(report.removal_gains[name] - value) <= 1e-12 * abs(value)
        # the ranking reads state 0 only
        alone = verify(SpinKind.FW, ham, battery_1d[:1])
        assert alone.removal_gains == report.removal_gains

    def test_em_verification_classifies_reproducibly(self, params, battery_3d):
        model = UniformB(np.array([0.0, 0.0, 0.05]))
        ham = build_dirac_em(model, params)
        r1 = verify(SpinKind.PRYCE, ham, battery_3d[:1])
        r2 = verify(SpinKind.PRYCE, ham, battery_3d[:1])
        assert r1.residual == r2.residual
        assert r1.residual > HOLD_TOL  # a genuine printed-equation finding


def _expr_classes(cls=OperatorExpr):
    yield cls
    for sub in cls.__subclasses__():
        yield from _expr_classes(sub)


class TestZeroSkipEquivalence:
    """Skipping the subtrees known to vanish changes no result: with every
    ``_vanishes`` patched to False, the leaves filled from their producers
    unfolded and every term recorded live at the fill, each subtree and each
    term is applied, and the Hamiltonians and printed right-hand sides agree
    with the default apply."""

    MODELS = {
        "constant": UniformB([0.0, 0.0, 0.05]),
        "gaussian": UniformB([0.0, 0.0, 0.05], Envelope(
            shape="gaussian", amplitude=1.0, center=0.3, width=2.0)),
        "plane-wave": PlaneWavePulse(np.array([0.0, 0.1, 0.0]),
                                     np.array([0.5, 0.0, 0.0]), 0.5),
    }

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_every_subtree_applied_gives_the_same(self, params, monkeypatch,
                                                   model, space):
        grid = GridSpec(3, 8, 12.0)
        rng = np.random.default_rng(11)
        vals = rng.normal(size=(4, *grid.shape)) + 1j * rng.normal(size=(4, *grid.shape))
        psi = SpinorField(grid, vals).normalized().in_space(space)
        field = self.MODELS[model]

        def build():
            exprs = [build_hamiltonian(f, field, params).total
                     for f in ("dirac-em", "fw-direct", "fw-full")]
            if field.uniform_b:  # the printed equations assume a uniform B
                for kind in (SpinKind.FW, SpinKind.PRYCE):
                    for family in ("dirac-em", "fw-direct"):
                        terms, _ = rhs(kind, family, field, params)
                        exprs += [comp for _, triple in terms for comp in triple]
            return exprs

        # a loose guard: the patched apply also reaches the singular leaves
        # of vanishing subtrees
        want = [apply_expr(e, psi, 0.7, guard=1.0).values for e in build()]
        for cls in list(_expr_classes()):
            if "_vanishes" in vars(cls):
                monkeypatch.setattr(cls, "_vanishes", lambda self, grid, t: False)
        monkeypatch.setattr(_DiagLeaf, "_fill", lambda self, grid, t: tuple(
            np.asarray(fn(grid, t)) for fn, _ in self.terms))
        monkeypatch.setattr(relspin.expr, "_is_zero", lambda arr: False)
        # fresh trees, whose leaves fill under the patches
        for e, w in zip(build(), want):
            got = apply_expr(e, psi, 0.7, guard=1.0).values
            assert np.max(np.abs(got - w)) <= 1e-13 * max(np.max(np.abs(w)), 1e-300)


def _peak_bytes(fn):
    """The most memory ``fn()`` held at once beyond what was held before,
    by numpy's and Python's allocations (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """What the apply path holds at once, on a 16^3 grid: a field is 256 KiB
    and a row (one component) 64 KiB."""

    GRID = GridSpec(3, 16, 24.0)

    def _state(self, seed=17):
        # a folded momentum state, as verify's, with no k = 0 weight
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(4, *self.GRID.shape)) + 1j * rng.normal(size=(4, *self.GRID.shape))
        psi = SpinorField(self.GRID, vals).to_momentum()
        psi.data[(slice(None), *self.GRID.origin_index)] = 0.0
        return psi

    def test_kernel_holds_its_output_and_one_row(self, params):
        # S_Py_x has full-grid real scalars and entries other than 1: each
        # product goes into its row or the one accumulation row and is scaled
        # there, with no grid-size m * f temporary per entry (with one per
        # entry the peak was the output and four rows).  A real scalar times
        # the complex state also passes through numpy's cast buffer of
        # min(bufsize, points) complex values, a row at 16^3.
        leaf = spin_expr(SpinKind.PRYCE, params)[0]
        psi = self._state().data
        leaf._scalars(self.GRID, 0.0)
        row = psi[0].nbytes
        cast = 16 * min(np.getbufsize(), self.GRID.npoints)
        assert _peak_bytes(lambda: leaf._kernel(psi)) <= psi.nbytes + row + cast + 8192

    def _cell(self, params, gains):
        # a state-0 x cell of pryce / dirac-em under a uniform B against the
        # compiled printed total, with its leaves' caches filled: verify's,
        # each term applied for its norm and removal gain, with ``gains`` a
        # dict, else a refinement rung's, which applies no term on its own
        from relspin.dynamics import _verify_cell
        psi = self._state()
        ham = build_hamiltonian("dirac-em", UniformB([0.0, 0.0, 0.05]), params)
        terms, total = rhs(SpinKind.PRYCE, "dirac-em", ham.model, params)
        s_x = spin_expr(SpinKind.PRYCE, params)[0]
        h_psi = apply_expr(ham.total, psi, 0.0, 1.0)
        rhs_x = compiled(total[0], self.GRID)
        cell = lambda: _verify_cell(0, 0, s_x, ham.total, rhs_x, psi, h_psi,
                                    () if gains is None else terms, gains)
        cell()
        return cell, psi.data.nbytes

    def test_verify_cell_peak(self, params):
        # with removal gains: 4.27 fields (1.12 MB) measured, inside the apply
        # of the r-p-alpha-b term, which holds the difference already formed
        # and that apply's 3.26.  Each term's gain is taken against that
        # difference as the term is applied, so no term is kept.  It was 6.27
        # while the terms were kept for the gains and summed into a copy of
        # the first, and 8.27 while a summed term, and the previous child's
        # result inside r.p's sum, stayed bound during the next apply, and the
        # diagonal leaves r_j, p_j, 1/p^2 and B.p each made a new field
        cell, field = self._cell(params, {})
        assert _peak_bytes(cell) <= 4.5 * field

    def test_rung_cell_peak(self, params):
        # a refinement rung's cell keeps no term for the gains and forms
        # H (S psi) before S (H psi), so that S psi is not held with S (H psi).
        # Two stages tie at 3.52 fields measured.  In H (S psi): S psi, and
        # the dirac-em apply's 2.5 (the gauge leaf, applied first, holds the
        # copy diag_along transforms and its new output, with a row and numpy's
        # cast buffer, a row at 16^3; then each other child adds one field
        # into its result).  In the terms: the LHS, and the compiled total's
        # apply, 2.52 at its peak.  It was 4.26 while the gauge leaf ran after
        # the sum of the kinetic and mass terms existed (5.27 with S (H psi)
        # formed first, 8.27 with the dead references and new diagonal outputs)
        cell, field = self._cell(params, None)
        assert _peak_bytes(cell) <= 3.75 * field

    def test_sum_holds_its_accumulator_and_one_child(self):
        # r.p = sum_j r_j p_j from a momentum state: p_j's result, multiplied
        # in place by r_j between the transforms along axis j, and the
        # accumulator, beyond numpy's cast buffer (a row at 16^3, see above).
        # A child's result held while the next child applied, and r_j's new
        # output, made it 4.26 fields
        r, p = triple(R), triple(P)
        r_dot_p = Add([Mul(r[j], p[j]) for j in range(3)])
        psi = self._state()
        apply_expr(r_dot_p, psi)  # the leaves' caches fill
        cast = 16 * min(np.getbufsize(), self.GRID.npoints)
        assert _peak_bytes(lambda: apply_expr(r_dot_p, psi)) <= 2 * psi.data.nbytes + cast + 8192

    def test_sum_transforms_before_it_accumulates(self):
        # p_x, beta and a position leaf on x and y (alpha_y x - alpha_x y, the
        # shape of a uniform B's gauge coupling), listed in that order, from a
        # momentum state.  The position leaf applies first, while no sum
        # exists: the copy diag_along transforms along x and y and the leaf's
        # new output, with a row and numpy's cast buffer; then p_x and beta
        # each add one field into its result.  In the listed order it ran with
        # the sum of p_x and beta held: 3 fields, a row and the buffer
        gauge = PositionDiag([(lambda g, t: g.r[0], ALPHA[1]), (lambda g, t: -g.r[1], ALPHA[0])])
        add = Add([triple(P)[0], ConstMatrix(BETA), gauge])
        psi = self._state()
        parts = [apply_expr(child, psi).data for child in add.children]  # the caches fill
        got = apply_expr(add, psi).data
        row, cast = psi.data[0].nbytes, 16 * min(np.getbufsize(), self.GRID.npoints)
        assert _peak_bytes(lambda: apply_expr(add, psi)) <= 2 * psi.data.nbytes + row + cast + 8192
        # the listed-order sum: each order is within two roundings (2 u) of the
        # exact sum of each real component, u = eps / 2
        want = parts[0] + parts[1] + parts[2]
        bound = 2 * np.finfo(float).eps * sum(np.abs(p.view(float)) for p in parts)
        assert np.all(np.abs(got.view(float) - want.view(float)) <= bound)

    def test_rung_verify_peak(self, params):
        # a whole 32^3 rung of the shipped scenario's pryce check: beyond its
        # two states, h_psi, the trees' caches and the rung cell's two
        # tied stages, each 1 field and an apply's 2.31 (2 fields, a row and
        # numpy's cast buffer, 1/16 of a field at 32^3): 4.44 fields (of 2 MB)
        # measured.  It was 5.23 while the gauge leaf of H (S psi) ran after
        # the sum of the others existed (7.27 with the printed terms applied
        # one by one and S (H psi) formed first, 10.27 with the dead
        # references and new diagonal outputs)
        grid = GridSpec(3, 32, 48.0)
        states = standard_battery(grid, params)
        ham = build_hamiltonian("dirac-em", UniformB([0.0, 0.0, 0.05]), params)
        run = lambda: verify_residual(SpinKind.PRYCE, ham, states)
        run()
        assert _peak_bytes(run) <= 4.75 * states[0].data.nbytes

    def _lazy_rung(self, params):
        # a rung's residual of pryce / dirac-em on two 16^3 states, each made
        # as it is read
        ham = build_hamiltonian("dirac-em", UniformB([0.0, 0.0, 0.05]), params)
        return lambda: verify_residual(SpinKind.PRYCE, ham,
                                       (self._state(seed) for seed in (17, 18)))

    def test_rung_state_dead_at_the_next_states_first_cell(self, params, monkeypatch):
        lhs, refs, alive = relspin.dynamics._lhs, [], []

        def watched(s_i, h_total, psi, h_psi):
            if not refs or refs[-1]() is not psi.data:  # a state's first cell
                alive.append([ref() is not None for ref in refs])
                refs.append(weakref.ref(psi.data))
            return lhs(s_i, h_total, psi, h_psi)
        monkeypatch.setattr(relspin.dynamics, "_lhs", watched)
        self._lazy_rung(params)()
        assert alive == [[], [False]]

    def test_rung_state_and_its_h_psi_dead_when_the_battery_makes_the_next(self, params,
                                                                          monkeypatch):
        # the battery makes each state as it is read, and verify_residual
        # drops a state and its H psi before it reads the next one
        lhs, make = relspin.dynamics._lhs, relspin.dynamics._Battery.__getitem__
        refs, alive = [], []

        def watched_lhs(s_i, h_total, psi, h_psi):
            refs[:] = [weakref.ref(psi.data), weakref.ref(h_psi.data)]
            return lhs(s_i, h_total, psi, h_psi)

        def watched_make(battery, i):
            alive.append([ref() is not None for ref in refs])
            return make(battery, i)
        monkeypatch.setattr(relspin.dynamics, "_lhs", watched_lhs)
        monkeypatch.setattr(relspin.dynamics._Battery, "__getitem__", watched_make)
        ham = build_hamiltonian("dirac-em", UniformB([0.0, 0.0, 0.05]), params)
        verify_residual(SpinKind.PRYCE, ham, battery_states(GridSpec(3, 32, 48.0), params))
        # its two states, then the read past the end that ends the loop
        assert alive == [[], [False, False], [False, False]]

    def test_lazy_rung_verify_peak(self, params):
        # one state, its h_psi and the rung cell's 3.52 fields make 5.52
        # fields, and the leaf caches of the rung's own S and compiled RHS
        # trees, which a warmed cell does not count, 0.43 more (mostly the
        # (16, 16, 1) merged coefficients of each axis's k_j (Sigma x B)_i
        # alpha_j leaf, and the trees' Python objects): 5.95 measured.  It was 6.84
        # while the gauge leaf of H (S psi) ran after the sum of the others
        # existed (7.54 with the printed terms applied one by one).  The two
        # states held at once, as a list, give 7.10
        run = self._lazy_rung(params)
        run()
        field = self._state().data.nbytes
        assert _peak_bytes(run) <= 6.25 * field
