from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relspin.expr
from relspin.algebra import ID4
from relspin.errors import SingularMomentumError
from relspin.errors import PreconditionError
from relspin.expr import (Add, Adjoint, ConstMatrix, LeafStack, MomentumDiag, Mul,
                          PositionDiag, Scale, apply_expr, block_parity, expectation)
from relspin.grid import MOMENTUM, POSITION, GridSpec, SpinorField, gaussian_packet
from relspin.hamiltonians import P, R, triple
from relspin.operators import ALPHA, BETA, SIGMA
from relspin.dynamics import spin_expr
from relspin.operators import SpinKind


def random_field(grid, rng):
    vals = rng.normal(size=(4, *grid.shape)) + 1j * rng.normal(size=(4, *grid.shape))
    return SpinorField(grid, vals).normalized()


@pytest.fixture(scope="module")
def grid():
    return GridSpec(1, 256, 96.0)


class TestLeaves:
    def test_momentum_identity(self, grid, rng):
        psi = random_field(grid, rng)
        leaf = MomentumDiag([(lambda g, t: np.ones(()), ID4)])
        assert (apply_expr(leaf, psi) - psi).norm() <= 1e-13

    def test_const_matrix_no_transform(self, grid, rng):
        psi = random_field(grid, rng)
        out = apply_expr(ConstMatrix(ALPHA[1]), psi)
        manual = np.einsum("ab,b...->a...", ALPHA[1], psi.values)
        assert np.allclose(out.values, manual)

    def test_time_dependent_coefficients(self, grid, rng):
        psi = random_field(grid, rng)
        leaf = PositionDiag([(lambda g, t: 2.0 * t, SIGMA[2])], time_dependent=True)
        sigma_psi = apply_expr(ConstMatrix(SIGMA[2]), psi)
        assert (apply_expr(leaf, psi, t=3.0) - 6.0 * sigma_psi).norm() <= 1e-13
        assert (apply_expr(leaf, psi, t=0.5) - 1.0 * sigma_psi).norm() <= 1e-13

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_guard(self, grid, rng):
        psi = random_field(grid, rng)
        bad = MomentumDiag([(lambda g, t: np.full(g.shape, np.inf), ID4)])
        with pytest.raises(FloatingPointError):
            apply_expr(bad, psi)

    @given(st.sampled_from([[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]]),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 255), st.integers(0, 1)),
                    min_size=2, max_size=2, unique=True),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_nan_guard_finds_every_planted_value(self, grid, planted, spots, seed):
        # the guard reads one sum of the result's real and imaginary parts: a
        # NaN or an Inf in any component, point and part, or a +Inf/-Inf pair
        # (whose sum is NaN), makes it non-finite
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(4, *grid.shape)) + 1j * rng.normal(size=(4, *grid.shape))
        parts = values.view(float).reshape(4, *grid.shape, 2)
        for value, (component, point, part) in zip(planted, spots):
            parts[component, point, part] = value
        result = SpinorField(grid, values, folded=True)  # planted in the data the guard reads
        with mock.patch.object(relspin.expr, "_evaluate", lambda *args: result.copy()):
            with pytest.raises(FloatingPointError):
                apply_expr(ConstMatrix(ID4), result)


_KERNEL_GRIDS = [GridSpec(1, 16, 12.0), GridSpec(3, 8, 10.0)]
_NAMED_MATRICES = [ID4, BETA, ALPHA[0], SIGMA[1], 1j * BETA @ ALPHA[2],
                   (ID4 - BETA) @ SIGMA[0],
                   sum(SIGMA[j] @ ALPHA[j] for j in range(3))]


def _kernel_matrix(kind, rng):
    z = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "named":
        return _NAMED_MATRICES[rng.integers(len(_NAMED_MATRICES))] * z()
    if kind == "monomial":
        m = np.zeros((4, 4), dtype=complex)
        m[np.arange(4), rng.permutation(4)] = z(4)
        return m
    m = z(4, 4)
    if kind == "zero-rows":
        m[rng.choice(4, size=rng.integers(1, 4), replace=False)] = 0.0
    return m


def _kernel_producer(kind, grid, rng):
    z = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "scalar":
        value = np.asarray(z())
    elif kind == "mesh":
        shape = [1] * grid.dim
        axis = rng.integers(grid.dim)
        shape[axis] = grid.n[axis]
        value = z(*shape)
    else:
        value = z(*grid.shape)
    return lambda g, t: value


def _reference_leaf_apply(terms, grid, psi):
    """sum_j M_j (f_j psi), written out with einsum."""
    out = np.zeros_like(psi)
    for fn, m in terms:
        f = np.broadcast_to(np.asarray(fn(grid, 0.0), dtype=complex), grid.shape)
        out += np.einsum("ab,b...->a...", m, f * psi)
    return out


class TestLeafKernel:
    """The sparse leaf apply against the dense per-term reference."""

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(range(len(_KERNEL_GRIDS))),
           st.sampled_from([PositionDiag, MomentumDiag]),
           st.lists(st.tuples(
               st.sampled_from(["named", "monomial", "dense", "zero-rows"]),
               st.sampled_from(["scalar", "mesh", "full"])),
               min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, seed, grid_index, leaf_type, kinds):
        rng = np.random.default_rng(seed)
        grid = _KERNEL_GRIDS[grid_index]
        terms = [(_kernel_producer(pk, grid, rng), _kernel_matrix(mk, rng))
                 for mk, pk in kinds]
        psi = (rng.normal(size=(4, *grid.shape))
               + 1j * rng.normal(size=(4, *grid.shape)))
        field = SpinorField(grid, psi, leaf_type.space)
        out = apply_expr(leaf_type(terms), field)
        ref = _reference_leaf_apply(terms, grid, psi)
        assert np.max(np.abs(out.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_singular_leaf_refuses_zero_mode(self):
        grid = _KERNEL_GRIDS[1]
        vals = np.ones((4, *grid.shape), dtype=complex)  # all weight at k = 0
        psi = SpinorField(grid, vals, POSITION)
        leaf = MomentumDiag([(lambda g, t: g.k2, (ID4 - BETA) @ SIGMA[2])],
                            name="singular", singular_origin=True)
        with pytest.raises(SingularMomentumError):
            apply_expr(leaf, psi)

    def test_zero_leaf_does_no_transform(self, grid, rng, fft_count):
        psi = random_field(grid, rng)
        leaf = MomentumDiag([(lambda g, t: np.zeros(()), ALPHA[0]),
                             (lambda g, t: 0.0, SIGMA[1])])
        out = apply_expr(leaf, psi)
        assert fft_count.calls == 0
        assert out.space == POSITION
        assert not out.values.any()


class TestPartialTransform:
    """A leaf whose scalars vary on fewer axes than the grid has transforms only
    those axes; against the same leaf applied after a transform of every axis."""

    _GRID = GridSpec(3, (8, 16, 8), (10.0, 14.0, 9.0))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([PositionDiag, MomentumDiag]),
           st.booleans(), st.booleans(), st.booleans(),
           st.lists(st.tuples(
               st.sampled_from(["named", "monomial", "dense", "zero-rows"]),
               st.lists(st.sampled_from(range(3)), min_size=1, max_size=2, unique=True)),
               min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_transform(self, seed, leaf_type, folded, own, real, kinds):
        rng = np.random.default_rng(seed)
        grid = self._GRID

        def producer(axes):
            shape = [n if j in axes else 1 for j, n in enumerate(grid.n)]
            value = rng.normal(size=shape) + (0 if real else 1j) * rng.normal(size=shape)
            return lambda g, t: value

        terms = [(producer(axes), _kernel_matrix(mk, rng)) for mk, axes in kinds]
        leaf = leaf_type(terms)
        space = POSITION if leaf_type is MomentumDiag else MOMENTUM
        psi = random_field(grid, rng)
        psi = psi.in_space(space) if folded else SpinorField(grid, psi.values, space)
        values = psi.values.copy()
        out = leaf._apply(psi.copy() if own else psi, 0.0, 1.0, own=own)
        partial = len({j for _, axes in kinds for j in axes}) < grid.dim
        # a partial leaf's result stays in the input's space, a full one's is
        # in the leaf's
        assert out.space == (space if partial else leaf.space)
        assert not np.shares_memory(out.data, psi.data)
        assert np.array_equal(psi.values, values)
        moved = psi.in_space(leaf.space)
        want = moved.with_data(_reference_leaf_apply(terms, grid, moved.data)).values
        got = out.in_space(leaf.space).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_transforms_only_the_axes_read(self, rng, fft_count):
        grid = self._GRID
        psi = random_field(grid, rng)
        leaf = MomentumDiag([(lambda g, t: g.k[0], ALPHA[0]), (lambda g, t: g.k[2], BETA)])
        out = apply_expr(leaf, psi)
        # axes 1 and 3 there and back: two calls of two passes each
        assert (fft_count.calls, fft_count.passes) == (2, 4)
        want = apply_expr(leaf, psi.to_momentum()).to_position()
        assert (out - want).norm() <= 1e-13


class TestConstantLeaf:
    """A leaf whose scalars all have size 1 acts in the state's own space."""

    @pytest.mark.parametrize("leaf_type, state_space", [
        (PositionDiag, MOMENTUM), (MomentumDiag, POSITION)])
    def test_acts_in_state_space(self, rng, fft_count, apply_matrix, leaf_type, state_space):
        grid = _KERNEL_GRIDS[1]
        psi = random_field(grid, rng).in_space(state_space)
        leaf = leaf_type([(lambda g, t: 0.3, SIGMA[2]),
                          (lambda g, t: np.asarray(-1.1 + 0.2j), BETA @ ALPHA[0]),
                          (lambda g, t: np.zeros((1,) * g.dim), ALPHA[1])])
        fft_count.reset()
        out = apply_expr(leaf, psi)
        assert fft_count.calls == 0
        assert out.space == state_space
        want = apply_matrix(0.3 * SIGMA[2] + (-1.1 + 0.2j) * BETA @ ALPHA[0], psi.values)
        assert np.max(np.abs(out.values - want)) <= 1e-13

    def test_sum_skips_zero_constant_leaf(self, grid, rng, fft_count):
        psi = random_field(grid, rng)
        zero = PositionDiag([(lambda g, t: 0.0, SIGMA[0])])
        p_x = triple(P)[0]
        fft_count.reset()
        out = apply_expr(Add([p_x, zero]), psi)
        # p_x there and back; the zero leaf's position-space result would
        # otherwise be transformed into the momentum accumulator
        assert fft_count.calls == 2
        assert np.array_equal(out.values, apply_expr(p_x, psi).values)

    @pytest.mark.parametrize("zero", [
        ConstMatrix(np.zeros((4, 4))),
        PositionDiag([(lambda g, t: g.r[0], np.zeros((4, 4))),
                      (lambda g, t: 0.0, BETA)]),
    ], ids=["const-matrix", "mesh-scalar"])
    def test_sum_skips_leaf_with_zero_matrices(self, grid, rng, fft_count, zero):
        # every pair has a zero scalar or an all-zero matrix
        psi = random_field(grid, rng)
        p_x = triple(P)[0]
        fft_count.reset()
        out = apply_expr(Add([p_x, zero]), psi)
        assert fft_count.calls == 2
        assert np.array_equal(out.values, apply_expr(p_x, psi).values)


class TestScalarCache:
    def test_real_mesh_is_cached_without_a_complex_copy(self, rng):
        grid = _KERNEL_GRIDS[1]
        psi = random_field(grid, rng).to_momentum()
        m = (0.3 - 1.2j) * SIGMA[1] + BETA @ ALPHA[0]
        leaf = MomentumDiag([(lambda g, t: g.k2, m)])
        ref = MomentumDiag([(lambda g, t: g.k2.astype(complex), m)])
        out = apply_expr(leaf, psi)
        (cached,) = leaf._scalars(grid, 0.0)
        assert cached is grid.k2
        assert cached.dtype == np.float64
        assert np.array_equal(out.values, apply_expr(ref, psi).values)

    def test_one_entry_across_times(self):
        grid = _KERNEL_GRIDS[0]
        calls = []

        def producer(g, t):
            calls.append(t)
            return t * g.r[0]

        leaf = PositionDiag([(producer, SIGMA[2])], time_dependent=True)
        times = [0.1 * i for i in range(20)]
        for t in times:
            leaf._scalars(grid, t)
        leaf._scalars(grid, times[-1])  # the entry held
        assert len(calls) == 20
        leaf._scalars(grid, times[0])   # dropped when the next t filled
        assert len(calls) == 21

    def test_zeros_are_decided_at_the_fill(self, grid, rng, monkeypatch):
        # a leaf with a live mesh, an all-zero mesh, a zero constant and an
        # all-zero matrix: the fill decides once which terms are live, and
        # neither _vanishes nor an apply tests a scalar for zero again
        psi = random_field(grid, rng)
        want = apply_expr(PositionDiag([(lambda g, t: g.r[0], ALPHA[0])]), psi)
        calls = [0]
        is_zero = relspin.expr._is_zero

        def counted(arr):
            calls[0] += 1
            return is_zero(arr)

        monkeypatch.setattr(relspin.expr, "_is_zero", counted)
        leaf = PositionDiag([(lambda g, t: g.r[0], ALPHA[0]),
                             (lambda g, t: np.zeros(g.shape), SIGMA[1]),
                             (lambda g, t: 0.0, BETA),
                             (lambda g, t: g.r[0], np.zeros((4, 4)))])
        for _ in range(3):
            assert not leaf._vanishes(grid, 0.0)
            got = apply_expr(leaf, psi)
            assert np.array_equal(got.values, want.values)
        assert [entries for entries, _ in leaf._live] == [leaf._entries[0]]
        # the all-zero matrix term has no entries and is never tested
        assert calls[0] == 3


class TestExactZeros:
    """An all-zero mesh is held as a 0-d zero, and a product, scaling or sum
    over a vanishing part vanishes and is not applied."""

    def test_all_zero_mesh_is_cached_as_0d(self, grid, rng, fft_count):
        psi = random_field(grid, rng)
        leaf = MomentumDiag([(lambda g, t: np.zeros(g.shape), ALPHA[0]),
                             (lambda g, t: 0.0 * g.k[0], SIGMA[1])])
        assert all(a.shape == () and a == 0 for a in leaf._scalars(grid, 0.0))
        assert leaf._vanishes(grid, 0.0)
        out = apply_expr(leaf, psi)
        assert fft_count.calls == 0
        assert out.space == POSITION and not out.values.any()

    @pytest.mark.parametrize("build", [
        lambda p, z: Scale(0.0, p),
        lambda p, z: Mul(p, z),
        lambda p, z: Mul(z, p),
        lambda p, z: Add([Scale(2.0, Mul(z, p)), Scale(0.0, p)]),
    ], ids=["scale-0", "mul-zero-right", "mul-zero-left", "sum-of-zeros"])
    def test_vanishing_node_makes_no_transform(self, grid, rng, fft_count, build):
        psi = random_field(grid, rng)
        zero = PositionDiag([(lambda g, t: np.zeros(g.shape), BETA)])
        expr = build(triple(P)[0], zero)
        assert expr._vanishes(grid, 0.0)
        fft_count.reset()
        out = apply_expr(expr, psi)
        assert fft_count.calls == 0
        assert out.space == POSITION and not out.values.any()
        assert expectation(expr, psi) == 0
        assert fft_count.calls == 0

    def test_mesh_with_a_zero_entry_is_kept(self, grid):
        # r_x passes through 0 at the box centre
        leaf = triple(R)[0]
        (cached,) = leaf._scalars(grid, 0.0)
        assert cached is grid.r[0]
        assert not leaf._vanishes(grid, 0.0)


def _comm(a, b):
    return Add([Mul(a, b), Scale(-1.0, Mul(b, a))])


class TestCanonicalCommutator:
    def test_xp_commutator_on_resolved_packet(self):
        g = GridSpec(1, 256, 256.0)
        psi = gaussian_packet(g, 0.0, 12.0, 1.0, [1, 0, 0, 0])
        out = apply_expr(_comm(triple(R)[0], triple(P)[0]), psi)
        assert (out - 1j * psi).norm() <= 1e-8

    def test_spectral_refinement(self):
        # under-resolved packets converge at spectral rate as N doubles
        sigma = 1.5
        residuals = []
        for n in (64, 128, 256):
            g = GridSpec(1, n, 96.0)
            x = g.axis_positions(0)
            vals = np.zeros((4, n), dtype=complex)
            vals[0] = np.exp(-x**2 / (4 * sigma**2)) * np.exp(1j * 0.5 * x)
            psi = SpinorField(g, vals).normalized()
            out = apply_expr(_comm(triple(R)[0],
                                   triple(P)[0]), psi)
            residuals.append((out - 1j * psi).norm())
        for coarse, fine in zip(residuals, residuals[1:]):
            if coarse <= 1e-12:
                break  # roundoff floor reached
            assert fine <= coarse / 10.0


class TestAlgebraicLaws:
    def test_linearity(self, grid, rng):
        e = Add([Mul(triple(P)[0], triple(R)[0]),
                 ConstMatrix(BETA)])
        a, b = random_field(grid, rng), random_field(grid, rng)
        ca, cb = 0.3 - 0.7j, 1.1 + 0.2j
        lhs = apply_expr(e, ca * a + cb * b)
        rhs = ca * apply_expr(e, a) + cb * apply_expr(e, b)
        assert (lhs - rhs).norm() <= 1e-12 * max(lhs.norm(), 1)

    def test_composition_exact(self, grid, rng):
        psi = random_field(grid, rng)
        e1 = triple(R)[0]
        e2 = triple(P)[0]
        combined = apply_expr(Mul(e1, e2), psi)
        sequential = apply_expr(e1, apply_expr(e2, psi))
        assert np.array_equal(combined.values, sequential.values)

    def test_commutator_antisymmetry(self, grid, rng):
        # the two orderings settle in different spaces before alignment, so
        # equality holds to transform-roundtrip roundoff rather than bitwise
        psi = random_field(grid, rng)
        a, b = triple(R)[0], triple(P)[0]
        fwd = apply_expr(_comm(a, b), psi)
        bwd = apply_expr(_comm(b, a), psi)
        assert (fwd + bwd).norm() <= 1e-12 * fwd.norm()

    def test_adjoint_defining_property(self, grid, rng):
        # <adj(e) phi, psi> = <phi, e psi>
        e = Add([
            Mul(triple(R)[0], triple(P)[0]),
            Scale(0.4 - 0.2j, ConstMatrix(BETA @ ALPHA[1])),
        ])
        adj = Adjoint(e)
        for _ in range(5):
            phi, psi = random_field(grid, rng), random_field(grid, rng)
            lhs = apply_expr(adj, phi).inner(psi)
            rhs = phi.inner(apply_expr(e, psi))
            assert abs(lhs - rhs) <= 1e-10

    def test_adjoint_leaf_is_built_once(self):
        leaf = triple(R)[0]
        assert Adjoint(leaf) is Adjoint(leaf)
        assert Adjoint(Adjoint(leaf)) is leaf

    def test_double_adjoint(self, grid, rng):
        psi = random_field(grid, rng)
        e = Mul(triple(R)[0], triple(P)[1])
        assert (apply_expr(Adjoint(Adjoint(e)), psi)
                - apply_expr(e, psi)).norm() <= 1e-12


def _bump_r(g, t):
    return np.exp(-g.r[0] ** 2 / 200.0)


def _bump_k(g, t):
    return g.k[0] / (1.0 + g.k2)


_POS = PositionDiag([(_bump_r, ALPHA[0]), (lambda g, t: np.ones(()), 0.5 * BETA)])
_MOM = MomentumDiag([(_bump_k, SIGMA[2] @ ALPHA[1]), (_bump_k, ID4)])
_ZERO = PositionDiag([(lambda g, t: np.zeros(g.shape), ALPHA[2])])
# on a 3D grid _POS and _MOM_X vary along one axis, and so transform only it
_MOM_X = MomentumDiag([(lambda g, t: np.cos(0.3 * g.k[0]), SIGMA[1] @ ALPHA[0])])
# leaves whose rows each take one product, of their own component, so that
# an apply that owns its input multiplies in place: r_j and p_j (their
# scalars the grid's own meshes), and a position and a momentum leaf on
# diagonal matrices, the momentum one with zero rows
_R, _P = triple(R), triple(P)
_DIAG_POS = PositionDiag([(_bump_r, BETA)])
_DIAG_MOM = MomentumDiag([(_bump_k, (ID4 - BETA) @ SIGMA[2])])


def _alias_cases():
    """name -> (tree, the same operator from separate applies)."""
    a, b = ConstMatrix(ALPHA[1]), ConstMatrix(BETA)
    pos_h, mom_h = Adjoint(_POS), Adjoint(_MOM)
    return {
        "constants": (Add([a, Scale(-2.0, b)]),
                      lambda psi: apply_expr(a, psi) + apply_expr(b, psi) * -2.0),
        "vanishing-add": (Add([_ZERO, Scale(0.0, _MOM)]), lambda psi: psi * 0.0),
        "scaled-constant": (Scale(2 - 1j, b), lambda psi: apply_expr(b, psi) * (2 - 1j)),
        "cross-space-add": (Add([_POS, _MOM]),
                            lambda psi: apply_expr(_POS, psi) + apply_expr(_MOM, psi)),
        "position-after-momentum": (Mul(_POS, _MOM),
                                    lambda psi: apply_expr(_POS, apply_expr(_MOM, psi))),
        "sum-after-momentum": (Mul(Add([_POS, _MOM]), _MOM),
                               lambda psi: apply_expr(_POS, apply_expr(_MOM, psi))
                               + apply_expr(_MOM, apply_expr(_MOM, psi))),
        "partial-leaves": (Add([Mul(_MOM_X, _POS), _MOM_X, _MOM]),
                           lambda psi: apply_expr(_MOM_X, apply_expr(_POS, psi))
                           + apply_expr(_MOM_X, psi) + apply_expr(_MOM, psi)),
        "adjoint": (Adjoint(Add([Mul(_POS, _MOM), Scale(0.5j, _MOM)])),
                    lambda psi: apply_expr(mom_h, apply_expr(pos_h, psi))
                    + apply_expr(mom_h, psi) * -0.5j),
        "r-dot-p": (Add([Mul(_R[j], _P[j]) for j in range(3)]),
                    lambda psi: sum((apply_expr(_R[j], apply_expr(_P[j], psi))
                                     for j in (1, 2)), apply_expr(_R[0], apply_expr(_P[0], psi)))),
        "diagonal-chain": (Mul(_DIAG_POS, Scale(-2.0, Mul(_DIAG_MOM, Mul(_R[0], _DIAG_POS)))),
                           lambda psi: apply_expr(_DIAG_POS, apply_expr(_DIAG_MOM, apply_expr(
                               _R[0], apply_expr(_DIAG_POS, psi)))) * -2.0),
    }


_HOWS = ["position-true", "position-folded", "momentum-true", "momentum-folded"]


class TestNoAliasing:
    """A node writes only into results its children made for it: no apply
    writes into its input or into a leaf's cached scalars, and the result
    shares no memory with the input."""

    @staticmethod
    def _state(grid, rng, how):
        psi = random_field(grid, rng)
        if how == "position-folded":
            return psi.to_momentum().to_position()
        if how == "momentum-folded":
            return psi.to_momentum()
        if how == "momentum-true":
            return SpinorField(grid, psi.values, MOMENTUM)
        return psi

    @pytest.mark.parametrize("case", list(_alias_cases()))
    @pytest.mark.parametrize("how", _HOWS)
    def test_apply_writes_only_its_own_results(self, grid, rng, case, how):
        self._check(grid, rng, case, how)

    @pytest.mark.parametrize("case", list(_alias_cases()))
    @pytest.mark.parametrize("how", _HOWS)
    def test_3d_apply_writes_only_its_own_results(self, rng, case, how):
        # here _POS and _MOM_X transform one axis of three
        self._check(TestPartialTransform._GRID, rng, case, how)

    def _check(self, grid, rng, case, how):
        tree, separate = _alias_cases()[case]
        psi = self._state(grid, rng, how)
        data, values = psi.data.copy(), psi.values.copy()
        leaves = [_POS, _MOM, _MOM_X, Adjoint(_POS), Adjoint(_MOM), *_R, *_P, _DIAG_POS,
                  _DIAG_MOM]
        scalars = [[a.copy() for a in leaf._scalars(grid, 0.0)] for leaf in leaves]
        out = apply_expr(tree, psi)
        again = apply_expr(tree, psi)
        assert np.array_equal(psi.data, data) and np.array_equal(psi.values, values)
        for leaf, before in zip(leaves, scalars):
            assert all(np.array_equal(a, b) for a, b in zip(leaf._arrays, before))
        assert not np.shares_memory(out.data, psi.data)
        assert out.space == psi.space
        assert np.array_equal(out.values, again.values)
        want = separate(psi)
        assert np.array_equal(psi.data, data)
        assert (out - want).norm() <= 1e-13 * max(want.norm(), 1.0)
        if case == "vanishing-add":
            assert not np.any(out.values)


class _SmallBlocks(LeafStack):
    BLOCK_POINTS = 64  # the 8^3 kernel grid in eight blocks


class TestLeafStack:
    """The one-contraction expectations against ``expectation`` per leaf."""

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(range(len(_KERNEL_GRIDS))),
           st.sampled_from([PositionDiag, MomentumDiag]),
           st.sampled_from([POSITION, MOMENTUM]),
           st.sampled_from([LeafStack, _SmallBlocks]),
           st.booleans(),
           st.lists(st.lists(st.tuples(
               st.sampled_from(["named", "monomial", "dense", "zero-rows"]),
               st.sampled_from(["scalar", "mesh", "full"])),
               min_size=1, max_size=3), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_expectation(self, seed, grid_index, leaf_type, space,
                                 stack_type, real, leaf_kinds):
        rng = np.random.default_rng(seed)
        grid = _KERNEL_GRIDS[grid_index]

        def producer(kind):
            fn = _kernel_producer(kind, grid, rng)
            return (lambda g, t: fn(g, t).real) if real else fn

        leaves = [leaf_type([(producer(pk), _kernel_matrix(mk, rng)) for mk, pk in kinds])
                  for kinds in leaf_kinds]
        psi = random_field(grid, rng).in_space(space)
        got = stack_type(leaves, grid).expectations(psi)
        for leaf, value in zip(leaves, got):
            # |<psi, L psi>| <= |psi| |L psi| is the scale of the roundoff
            scale = psi.norm() * apply_expr(leaf, psi).norm()
            assert abs(value - expectation(leaf, psi)) <= 1e-13 * scale

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(range(len(_KERNEL_GRIDS))),
           st.sampled_from([PositionDiag, MomentumDiag]),
           st.sampled_from([LeafStack, _SmallBlocks]),
           st.booleans(),
           st.integers(min_value=1, max_value=5),
           st.lists(st.lists(st.tuples(
               st.sampled_from(["named", "monomial", "dense", "zero-rows"]),
               st.sampled_from(["scalar", "mesh", "full", "repeat"])),
               min_size=1, max_size=3), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_block_matches_expectation(self, seed, grid_index, leaf_type, stack_type, real,
                                       states, leaf_kinds):
        # a block of states' data against ``expectation`` per state
        # and leaf; "repeat" reuses an earlier scalar, so equal rows merge,
        # and the dense matrices are not Hermitian
        rng = np.random.default_rng(seed)
        grid = _KERNEL_GRIDS[grid_index]
        made = []

        def producer(kind):
            if kind == "repeat" and made:
                return made[rng.integers(len(made))]
            fn = _kernel_producer("full" if kind == "repeat" else kind, grid, rng)
            made.append((lambda g, t: fn(g, t).real) if real else fn)
            return made[-1]

        leaves = [leaf_type([(producer(pk), _kernel_matrix(mk, rng)) for mk, pk in kinds])
                  for kinds in leaf_kinds]
        other = POSITION if leaf_type.space == MOMENTUM else MOMENTUM
        block = [random_field(grid, rng) for _ in range(states)]
        block = [psi.in_space(other if rng.integers(2) else leaf_type.space).in_space(
            leaf_type.space) for psi in block]
        got, refusals = stack_type(leaves, grid).contract(np.stack([psi.data for psi in block]))
        assert got.shape == (states, len(leaves)) and refusals == [None] * states
        for psi, values in zip(block, got):
            for leaf, value in zip(leaves, values):
                scale = psi.norm() * apply_expr(leaf, psi).norm()
                assert abs(value - expectation(leaf, psi)) <= 1e-13 * scale

    def test_equal_rows_are_one_row(self):
        # k_x is read by every p_x and by two leaves of its own, and a complex
        # scalar is its real and imaginary rows: the ones row, k_x, and the
        # real and imaginary parts of (1 + 2i) k_x^2
        grid = _KERNEL_GRIDS[1]
        kx = lambda g, t: g.k[0]
        entries = [triple(P)[0], triple(P)[0], MomentumDiag([(kx, BETA), (kx, SIGMA[2])]),
                   MomentumDiag([(lambda g, t: (1 + 2j) * g.k[0] ** 2, ID4)])]
        stack = LeafStack(entries, grid)
        stack.expectations(random_field(grid, np.random.default_rng(3)))
        _, _, _, _, _, rows, _, _ = stack._plan
        assert len(rows) == 4

    def test_block_guard_per_state(self):
        # each state of a block has its own refusal, the middle one here
        grid = _KERNEL_GRIDS[1]
        rng = np.random.default_rng(4)
        leaf = MomentumDiag([(lambda g, t: g.k2, (ID4 - BETA) @ SIGMA[2])],
                            name="singular", singular_origin=True)
        ok = random_field(grid, rng).to_momentum()
        vals = ok.data.copy()
        vals[(slice(None), *grid.origin_index)] = 10.0
        block = np.stack([ok.data, vals, ok.data])
        _, refusals = LeafStack([triple(P)[0], leaf], grid).contract(block, guard=1e-3)
        assert refusals[0] is None and refusals[2] is None
        assert isinstance(refusals[1], SingularMomentumError)
        assert "operator singular is singular" in str(refusals[1])

    @pytest.mark.parametrize("stack_type", [LeafStack, _SmallBlocks])
    def test_sums_of_scaled_leaves(self, rng, stack_type):
        # an entry may be a sum of scaled leaves, constants of either space
        # included, or a product whose monomials each have one scalar; a
        # plain leaf and a trace row (f times the identity) too
        grid = _KERNEL_GRIDS[1]
        leaves = [MomentumDiag([(_kernel_producer(pk, grid, rng), _kernel_matrix(mk, rng))
                                for mk, pk in (("named", "mesh"), ("dense", "full"))])
                  for _ in range(2)]
        const = PositionDiag([(_kernel_producer("scalar", grid, rng),
                               _kernel_matrix("dense", rng))])
        entries = [Add([Scale(0.5 - 0.2j, leaves[0]), const, Scale(2.0, Add([leaves[1], const]))]),
                   Scale(-1.5, Add([leaves[1]])), leaves[0],
                   MomentumDiag([(lambda g, t: g.k2 == 0, ID4)]), Mul(leaves[1], const)]
        for space in (POSITION, MOMENTUM):
            psi = random_field(grid, rng).in_space(space)
            got = stack_type(entries, grid).expectations(psi)
            assert len(got) == len(entries)
            for expr, value in zip(entries, got):
                scale = psi.norm() * apply_expr(expr, psi).norm()
                assert abs(value - expectation(expr, psi)) <= 1e-13 * scale

    def test_admits(self, grid, rng):
        # an entry joins a stack of p_x (momentum) or r_x (position) where its
        # construction passes, and then has its expectation; else it refuses
        mom = MomentumDiag([(lambda g, t: g.k[0], BETA)])
        uniform = PositionDiag([(lambda g, t: np.asarray(0.3), SIGMA[2])])
        sawtooth = PositionDiag([(lambda g, t: g.r[0], ID4)])
        pulsed = MomentumDiag([(lambda g, t: t * g.k[0], ID4)], time_dependent=True)
        cases = [
            (MOMENTUM, Add([Scale(0.5, mom), Scale(2.0, uniform)]), None),
            (POSITION, Add([uniform, sawtooth]), None),
            # one momentum scalar times a constant matrix: one scalar per monomial
            (MOMENTUM, Mul(mom, uniform), None),
            (MOMENTUM, uniform, None),  # a constant joins either space
            (MOMENTUM, Add([mom, sawtooth]), "one space"),
            (POSITION, mom, "one space"),
            # scalars of two spaces in one monomial
            (MOMENTUM, Mul(mom, sawtooth), "at most one scalar"),
            (MOMENTUM, Add([mom, pulsed]), "time-independent"),
        ]
        psi = random_field(grid, rng)
        for space, expr, refusal in cases:
            first = triple(P if space == MOMENTUM else R)[0]
            if refusal is not None:
                with pytest.raises(PreconditionError, match=refusal):
                    LeafStack([first, expr], grid)
                continue
            value = LeafStack([first, expr], grid).expectations(psi)[1]
            scale = psi.norm() * apply_expr(expr, psi).norm()
            assert abs(value - expectation(expr, psi)) <= 1e-13 * scale

    def test_leaves_of_two_spaces_are_refused(self, grid):
        with pytest.raises(PreconditionError):
            LeafStack([triple(P)[0], triple(R)[0]], grid)

    def test_time_dependent_leaf_is_refused(self, grid):
        leaf = PositionDiag([(lambda g, t: t * g.r[0], ID4)], time_dependent=True)
        with pytest.raises(PreconditionError, match="time-independent"):
            LeafStack([triple(R)[0], leaf], grid)

    def test_singular_leaf_refuses_zero_mode(self):
        grid = _KERNEL_GRIDS[1]
        psi = SpinorField(grid, np.ones((4, *grid.shape), dtype=complex), POSITION)
        leaf = MomentumDiag([(lambda g, t: g.k2, (ID4 - BETA) @ SIGMA[2])],
                            name="singular", singular_origin=True)
        with pytest.raises(SingularMomentumError, match="singular"):
            LeafStack([triple(P)[0], leaf], grid).expectations(psi)


class TestExpectation:
    def test_identity(self, grid, rng):
        psi = random_field(grid, rng)
        assert expectation(ConstMatrix(ID4), psi) == pytest.approx(1.0)

    def test_momentum_mean(self):
        g = GridSpec(1, 512, 256.0)
        k0 = 1.25
        psi = gaussian_packet(g, 0.0, 16.0, k0, [1, 0, 0, 0])
        val = expectation(triple(P)[0], psi)
        assert abs(val.real - k0) <= 1e-6
        assert abs(val.imag) <= 1e-10

    def test_hermiticity_residual_builtin(self, grid, rng, hermiticity_residual):
        fields = [random_field(grid, rng) for _ in range(4)]
        herm = Add([triple(P)[0], ConstMatrix(BETA),
                    Scale(0.5, triple(R)[0])])
        assert hermiticity_residual(herm, fields) <= 1e-10


class TestSingularGuard:
    def test_pryce_on_zero_centered_packet(self, params):
        g = GridSpec(1, 512, 256.0)
        psi = gaussian_packet(g, 0.0, 16.0, 0.0, [1, 0, 0, 0])
        s = spin_expr(SpinKind.PRYCE, params)
        with pytest.raises(SingularMomentumError):
            apply_expr(s[0], psi)

    def test_guard_override(self, params):
        g = GridSpec(1, 512, 256.0)
        psi = gaussian_packet(g, 0.0, 16.0, 0.5, [1, 0, 0, 0])
        s = spin_expr(SpinKind.PRYCE, params)
        apply_expr(s[0], psi, guard=1e-6)  # passes with a looser guard too


class TestBlockParity:
    def test_leaf_parities(self, grid):
        assert block_parity(ConstMatrix(SIGMA[0]), grid) == "diagonal"
        assert block_parity(ConstMatrix(ALPHA[0]), grid) == "offdiagonal"
        assert block_parity(ConstMatrix(np.zeros((4, 4))), grid) == "zero"
        assert block_parity(ConstMatrix(SIGMA[0] + ALPHA[0]), grid) == "mixed"

    def test_products(self, grid):
        d = ConstMatrix(SIGMA[0])
        o = ConstMatrix(ALPHA[2])
        assert block_parity(Mul(o, o), grid) == "diagonal"
        assert block_parity(Mul(d, o), grid) == "offdiagonal"
        assert block_parity(Add([d, Mul(o, o)]), grid) == "diagonal"
        assert block_parity(Add([d, o]), grid) == "mixed"
        assert block_parity(_comm(d, o), grid) == "offdiagonal"


def _as_hamiltonian(expr, params):
    from relspin.fields import ZeroField
    from relspin.hamiltonians import NamedHamiltonian
    return NamedHamiltonian("tree", [("tree", expr)], params, ZeroField(), assume_hermitian=False)


class TestConstantMatrix:
    """A tree whose live leaves are constants at (grid, t) steps by the expm
    of its 4x4 matrix (``propagate``'s exact step), at every point in the
    state's own space."""

    def _step(self, expr, grid, params, dt=0.3):
        from relspin.propagate import _evolve
        psi = random_field(grid, np.random.default_rng(4))
        _, (_, got) = _evolve(_as_hamiltonian(expr, params), psi, dt, 1)
        return psi, got

    def test_constant_tree_is_its_dense_matrix(self, grid, params, apply_matrix):
        # a two-term leaf with uniform scalars, a sum and a scale step exactly;
        # with a product, whose left factor acts last, the tree is no sum of
        # leaves, and its Krylov step lands on the same exponential
        import scipy.linalg
        uniform = PositionDiag([(lambda g, t: np.asarray(0.3), SIGMA[2]),
                                (lambda g, t: np.ones((1,)) * (1 - 2j), BETA)])
        cases = [(Add([uniform, Scale(-0.7j, ConstMatrix(ALPHA[0]))]),
                  0.3 * SIGMA[2] + (1 - 2j) * BETA - 0.7j * ALPHA[0], 1e-15),
                 (Add([uniform, Scale(-0.7j, Mul(ConstMatrix(ALPHA[0]), ConstMatrix(SIGMA[1])))]),
                  0.3 * SIGMA[2] + (1 - 2j) * BETA - 0.7j * ALPHA[0] @ SIGMA[1], 1e-10)]
        for expr, want, tol in cases:
            psi, got = self._step(expr, grid, params)
            assert got.space == psi.space
            want = apply_matrix(scipy.linalg.expm(-0.3j * want), psi.values)
            assert np.max(np.abs(got.values - want)) <= tol * np.max(np.abs(want))
        assert not np.allclose(ALPHA[0] @ SIGMA[1], SIGMA[1] @ ALPHA[0])

    def test_one_live_nonconstant_leaf_gives_none(self, grid, params):
        # no constant matrix: a closed-form factor in the scalar's space, or
        # no exact step at all (a Krylov step) where a monomial has two scalars
        import scipy.linalg
        from relspin.fields import UniformB
        from relspin.hamiltonians import build_fw_direct
        from relspin.propagate import _plan
        ham = build_fw_direct(UniformB([0.0, 0.0, 0.2]), params)
        [(space, _)] = _plan(ham.subset(["zeeman"]), grid, 0.0, 0.3)
        assert space is None
        assert _plan(ham.subset(["kinetic", "zeeman"]), grid, 0.0, 0.3) is None
        assert _plan(_as_hamiltonian(Mul(triple(P)[0], triple(R)[0]), params),
                     grid, 0.0, 0.3) is None
        [(space, _)] = _plan(_as_hamiltonian(Add([ConstMatrix(BETA), triple(P)[0]]), params),
                             grid, 0.0, 0.3)
        assert space == MOMENTUM
        # beta p_x is one monomial, k_x times beta: at each k the dense expm
        beta_p = Mul(ConstMatrix(BETA), triple(P)[0])
        [(space, _)] = _plan(_as_hamiltonian(beta_p, params), grid, 0.0, 0.3)
        assert space == MOMENTUM
        psi, got = self._step(beta_p, grid, params)
        u = np.stack([scipy.linalg.expm(-0.3j * k * BETA) for k in grid.k[0]])
        want = np.einsum("kab,bk->ak", u, psi.to_momentum().values)
        assert np.max(np.abs(got.to_momentum().values - want)) <= 1e-14 * np.max(np.abs(want))

    def test_vanishing_child_is_ignored(self, grid, params, apply_matrix):
        import scipy.linalg
        zero_mesh = PositionDiag([(lambda g, t: np.zeros(g.shape), ALPHA[1])])
        psi, got = self._step(Add([ConstMatrix(BETA), zero_mesh, Mul(triple(P)[0], zero_mesh)]),
                              grid, params)
        want = apply_matrix(scipy.linalg.expm(-0.3j * BETA), psi.values)
        assert np.max(np.abs(got.values - want)) <= 1e-15 * np.max(np.abs(want))
        psi, got = self._step(Scale(0.0, triple(P)[0]), grid, params)
        assert np.array_equal(got.values, psi.values)
