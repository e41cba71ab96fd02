import numpy as np
import pytest

from relspin.algebra import ID4
from relspin.dynamics import positive_energy_part
from relspin.errors import PreconditionError
from relspin.expr import (Add, Adjoint, ConstMatrix, Mul, Scale, apply_expr,
                          expectation)
from relspin.fields import Envelope, PlaneWavePulse, UniformB, ZeroField
from relspin.grid import GridSpec, SpinorField, gaussian_packet, suppress_zero_mode
from relspin.hamiltonians import (FAMILIES, ModelVector, P, build_dirac_em,
                                  build_free_dirac, build_fw_direct, build_fw_full,
                                  build_hamiltonian, const_triple, cross, dot,
                                  kinetic_triple, triple)
from relspin.operators import ALPHA, BETA, SIGMA, PhysParams


def random_states(grid, rng, n=3):
    out = []
    for _ in range(n):
        vals = rng.normal(size=(4, *grid.shape)) + 1j * rng.normal(size=(4, *grid.shape))
        out.append(SpinorField(grid, vals).normalized())
    return out


@pytest.fixture(scope="module")
def uniform_b():
    return UniformB(np.array([0.0, 0.0, 0.3]))


class TestFreeDirac:
    def test_energy_expectation_oracle(self, grid_1d, params):
        psi = positive_energy_part(gaussian_packet(grid_1d, 0.0, 16.0, 1.0, [1, 0, 0, 0]), params)
        ham = build_free_dirac(params)
        val = expectation(ham.total, psi)
        mom = psi.to_momentum()
        e_k = np.sqrt(grid_1d.k2 * params.c**2 + params.rest_energy**2)
        oracle = float(np.sum(np.abs(mom.values) ** 2 * e_k) * grid_1d.weight)
        assert abs(val.real - oracle) <= 1e-6
        assert abs(val.imag) <= 1e-10

    def test_hermiticity(self, grid_1d, params, rng, hermiticity_residual):
        ham = build_free_dirac(params)
        assert hermiticity_residual(ham.total, random_states(grid_1d, rng)) <= 1e-10

    def test_zero_mode_acts_as_rest_mass(self, params):
        g = GridSpec(1, 64, 16.0)
        vals = np.zeros((4, 64), dtype=complex)
        vals[0] = 1.0
        vals[2] = 0.5
        psi = SpinorField(g, vals).normalized()   # pure k = 0 content
        out = apply_expr(build_free_dirac(params).total, psi)
        expected = params.rest_energy * np.einsum("ab,b...->a...", BETA, psi.values)
        assert np.allclose(out.values, expected, atol=1e-13)


class TestDiracEM:
    def test_zero_model_equals_free(self, grid_1d, params, rng):
        free = build_free_dirac(params)
        em = build_dirac_em(ZeroField(), params)
        assert em.term_names() == ["kinetic-free", "gauge-coupling", "mass", "scalar"]
        for psi in random_states(grid_1d, rng):
            d = apply_expr(em.total, psi) - apply_expr(free.total, psi)
            assert d.norm() <= 1e-12

    def test_gauge_term_pointwise(self, params, uniform_b):
        g = GridSpec(3, 16, 16.0)
        ham = build_dirac_em(uniform_b, params)
        rng = np.random.default_rng(5)
        psi = random_states(g, rng, 1)[0]
        out = apply_expr(ham.term("gauge-coupling"), psi)
        # lattice point r = (1, 0, 0) -> indices (9, 8, 8); A = (0, B0/2, 0)
        b0 = uniform_b.b0[2]
        expected = -params.e * params.c * (b0 / 2) * ALPHA[1] @ psi.values[:, 9, 8, 8]
        assert np.allclose(out.values[:, 9, 8, 8], expected, atol=1e-13)

    def test_hermiticity_uniform_b(self, params, uniform_b, battery_3d):
        ham = build_dirac_em(uniform_b, params)
        for phi in battery_3d:
            for psi in battery_3d:
                lhs = phi.inner(apply_expr(ham.total, psi))
                rhs = apply_expr(ham.total, phi).inner(psi)
                assert abs(lhs - rhs) <= 1e-10


class TestFwFull:
    def test_vocabulary_and_default_mask(self, params, uniform_b):
        ham = build_hamiltonian("fw-full", uniform_b, params)
        assert tuple(ham.term_names()) == tuple(n for n in FAMILIES["fw-full"].terms
                                                if n != "rest-mass")
        full = build_hamiltonian("fw-full", uniform_b, params,
                                 terms=list(FAMILIES["fw-full"].terms))
        assert "rest-mass" in full.term_names()
        with pytest.raises(PreconditionError):
            build_hamiltonian("fw-full", uniform_b, params, terms=["bogus"])

    def test_kinetic_only_expectation_oracle(self, grid_1d, params):
        ham = build_hamiltonian("fw-full", ZeroField(), params, terms=["kinetic"])
        psi = gaussian_packet(grid_1d, 0.0, 16.0, 1.0, [1, 0, 0, 0])  # pure upper
        val = expectation(ham.total, psi)
        mom = psi.to_momentum()
        oracle = float(np.sum(np.abs(mom.values) ** 2 * grid_1d.k2)
                       * grid_1d.weight / (2 * params.m0))
        assert abs(val.real - oracle) <= 1e-8

    def test_zeeman_on_upper_polarized(self, grid_1d, params, uniform_b):
        ham = build_hamiltonian("fw-full", uniform_b, params, terms=["zeeman"])
        psi = gaussian_packet(grid_1d, 0.0, 16.0, 1.0, [1, 0, 0, 0])
        val = expectation(ham.total, psi)
        # upper z-polarized: <beta Sigma_z> = +1
        expected = -(params.e / (2 * params.m0)) * uniform_b.b0[2]
        assert abs(val.real - expected) <= 1e-12

    def test_total_is_sum_of_terms(self, grid_1d, params, uniform_b, rng):
        for builder in (lambda: build_fw_full(uniform_b, params),
                        lambda: build_fw_direct(uniform_b, params),
                        lambda: build_dirac_em(uniform_b, params)):
            ham = builder()
            for psi in random_states(grid_1d, rng, 2):
                total = apply_expr(ham.total, psi)
                parts = [apply_expr(expr, psi) for _, expr in ham.terms]
                acc = parts[0]
                for p in parts[1:]:
                    acc = acc + p
                assert (total - acc).norm() <= 1e-12 * max(total.norm(), 1)

    def test_gauge_kinetic_identity(self, params, uniform_b, battery_3d):
        # (p-eA)^2 == p^2 - e(p.A + A.p) + e^2 A^2 assembled from primitives
        g = battery_3d[0].grid
        e = params.e
        pi = kinetic_triple(ModelVector(uniform_b.a_mesh, "A"), e)
        pi2 = Add([Mul(pi[i], pi[i]) for i in range(3)])
        from relspin.expr import PositionDiag
        a_leaf = [PositionDiag([(lambda gg, t, i=i: uniform_b.a_mesh(gg.r, t)[i], ID4)],
                               time_dependent=True) for i in range(3)]
        p_leaf = triple(P)
        expanded = Add(
            [Mul(p_leaf[i], p_leaf[i]) for i in range(3)]
            + [Scale(-e, Add([Mul(p_leaf[i], a_leaf[i]), Mul(a_leaf[i], p_leaf[i])]))
               for i in range(3)]
            + [Scale(e**2, Mul(a_leaf[i], a_leaf[i])) for i in range(3)])
        for psi in battery_3d:
            d = apply_expr(pi2, psi) - apply_expr(expanded, psi)
            assert d.norm() <= 1e-10 * max(apply_expr(pi2, psi).norm(), 1)

    def test_relativistic_terms_scale_with_c(self, grid_1d):
        model = PlaneWavePulse(np.array([0.3, 0.2, 0.0]),
                               np.array([0.5, 0.0, 0.0]), omega=0.5,
                               env_width=20.0)
        psi = gaussian_packet(grid_1d, 0.0, 12.0, 1.0, [1, 0, 0, 0])
        expected = {"mass-correction": 2, "kinetic-zeeman-cross": 2,
                    "b-squared": 2, "darwin": 2, "spin-orbit": 2, "de-dt": 4}
        for term, power in expected.items():
            vals = []
            for c in (1.0, 2.0, 4.0):
                ham = build_fw_full(model, PhysParams(c=c))
                vals.append(apply_expr(ham.term(term), psi, 0.5).norm())
            for lo, hi in zip(vals[1:], vals[:-1]):
                measured = np.log2(hi / lo)
                assert abs(measured - power) <= 0.05 * power


class TestFwDirect:
    def test_vocabulary(self, params, uniform_b):
        ham = build_fw_direct(uniform_b, params)
        assert tuple(ham.term_names()) == FAMILIES["fw-direct"].terms

    def test_zero_model_is_kinetic_only(self, grid_1d, params, rng):
        ham = build_fw_direct(ZeroField(), params)
        p2_over_2m = Scale(1.0 / (2 * params.m0), Mul(
            ConstMatrix(BETA),
            Add([Mul(p, p) for p in triple(P)])))
        for psi in random_states(grid_1d, rng, 2):
            d = apply_expr(ham.total, psi) - apply_expr(p2_over_2m, psi)
            assert d.norm() <= 1e-12

    def test_static_field_hermitian(self, params, uniform_b, battery_3d, hermiticity_residual):
        ham = build_fw_direct(uniform_b, params)
        assert hermiticity_residual(ham.total, battery_3d) <= 1e-10

    def test_time_varying_anti_part_cancels(self, params):
        # The -i dB/dt piece is exactly the symmetrizer of 2 E x (p - eA) for
        # Faraday-consistent fields: the printed form stays Hermitian up to
        # boundary-margin discretization, orders of magnitude below the
        # dB/dt piece itself.
        g = GridSpec(3, 64, 48.0)
        psi = suppress_zero_mode(positive_energy_part(gaussian_packet(
            g, [0, 0, 0], 3.0, [1.2, 0, 0], [1, 0, 0, 0]), params))
        env = Envelope(shape="gaussian", amplitude=1.0, center=0.0, width=5.0)
        model = UniformB(np.array([0.0, 0.0, 0.2]), env)
        ham = build_fw_direct(model, params)
        t = 2.0
        anti = Scale(0.5, Add([ham.total, Scale(-1.0, Adjoint(ham.total))]))
        anti_norm = apply_expr(anti, psi, t).norm()
        bdot = model.dbdt_mesh(g.r, t)  # uniform: three scalars
        coeff = params.e / (8 * params.m0**2 * params.c**2)
        piece = Add([ConstMatrix(1j * coeff * bdot[j] * SIGMA[j]) for j in range(3)])
        piece_norm = apply_expr(piece, psi, t).norm()
        assert piece_norm > 1e-4          # the dB/dt piece itself is sizable
        assert anti_norm <= 1e-2 * piece_norm

    def test_hermitize_flag(self, params, battery_3d, hermiticity_residual):
        env = Envelope(shape="gaussian", amplitude=1.0, center=0.0, width=5.0)
        model = UniformB(np.array([0.0, 0.0, 0.2]), env)
        printed = build_hamiltonian("fw-direct", model, params, hermitize=False)
        sym = build_hamiltonian("fw-direct", model, params, hermitize=True)
        assert not printed.assume_hermitian and sym.assume_hermitian
        psi = battery_3d[0]
        t = 2.0
        # hermitized variant is Hermitian by construction ...
        assert hermiticity_residual(sym.total, [psi], t) <= 1e-10
        # ... and differs from the printed one only at the discretization level
        d = apply_expr(printed.total, psi, t) - apply_expr(sym.total, psi, t)
        assert d.norm() <= 1e-3

    def test_subset(self, params, uniform_b):
        ham = build_fw_direct(uniform_b, params)
        sub = ham.subset(["zeeman"])
        assert sub.term_names() == ["zeeman"]
        with pytest.raises(PreconditionError):
            ham.subset(["nope"])
        with pytest.raises(KeyError):
            ham.term("nope")


class TestVectorVocabulary:
    @pytest.mark.parametrize("mesh", ["e_mesh", "dedt_mesh"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["x-cross-pi", "pi-cross-x"])
    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_folded_cross_equals_generic_algebra(self, params, mesh, reverse, space,
                                                 apply_matrix):
        # dot(Sigma, X x pi) of the Hamiltonians (spin-orbit, de-dt,
        # field-derivative-soc) folds Sigma_i into the leaves at the left end
        # of (X x pi)_i; applied on its own, Sigma_i multiplies that component
        g = GridSpec(3, 16, 24.0)
        model = UniformB(np.array([0.0, 0.0, 0.05]),
                         Envelope(shape="gaussian", amplitude=1.0, center=0.3, width=2.0))
        pi = kinetic_triple(ModelVector(model.a_mesh, "A"), params.e)
        x = triple(ModelVector(getattr(model, mesh), "X"))
        comps = cross(pi, x) if reverse else cross(x, pi)
        folded = dot(const_triple(SIGMA), comps)
        psi = random_states(g, np.random.default_rng(11), 1)[0].in_space(space)
        want = sum(apply_matrix(SIGMA[i], apply_expr(comps[i], psi, 0.7).to_position().values)
                   for i in range(3))
        want = SpinorField(g, want).in_space(space)
        got = apply_expr(folded, psi, 0.7)
        assert want.norm() > 1e-3
        assert (got - want).norm() <= 1e-13 * want.norm()
