"""A dense-matrix oracle: an operator tree on a small 1D grid as an explicit
4N x 4N matrix on ``psi.values.ravel()``, built from its leaves' producers and
matrices without ``apply_expr``.  A position leaf sum_j f_j(x) M_j is
block-diagonal, and a momentum leaf is sum_j M_j (x) F^H diag(f_j) F, with F
the unitary DFT F[m, n] = exp(-i k_m r_n) / sqrt(N) of the grid's
conventions.  Random trees mixing both spaces check the evaluator,
``block_parity``, ``Adjoint`` and the exact step against it, ``verify``'s
cells are checked against the dense commutator, and the propagators' steps
against ``scipy.linalg.expm`` of the dense Hamiltonian."""

from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from relspin.algebra import ID4
from relspin.dynamics import position_correction_expr, rhs, spin_expr, standard_battery, verify
from relspin.errors import PreconditionError
from relspin.expr import (Add, Adjoint, ConstMatrix, Mul, MomentumDiag, PositionDiag, Scale,
                          _DiagLeaf, _leaf as _monomial_leaf, _one, _monomials, apply_expr,
                          block_parity, compiled)
from relspin.fields import Envelope, UniformB, UniformE, ZeroField
from relspin.grid import MOMENTUM, POSITION, GridSpec, SpinorField
from relspin.hamiltonians import FAMILIES, NamedHamiltonian, P, R, build_hamiltonian, triple
from relspin.operators import ALPHA, BETA, SIGMA, PhysParams, SpinKind
from relspin.propagate import _plan, krylov_step, strang_step_dirac

GRIDS = [GridSpec(1, 16, 12.0), GridSpec(1, 32, 20.0)]

_MATRICES = [ID4, BETA, ALPHA[0], ALPHA[2], SIGMA[1], 1j * BETA @ ALPHA[1],
             SIGMA[0] @ ALPHA[0], (ID4 - BETA) @ SIGMA[2], np.zeros((4, 4))]


def _inf_norm(m):
    return np.abs(m).sum(axis=1).max()


def dense(expr, grid, t=0.0, memo=None):
    """``expr`` as a 4N x 4N matrix, and a bound on its infinity norm that
    adds and multiplies its pieces' norms: the scale of an evaluator's
    roundoff, also where a sum cancels.  ``memo`` holds each subtree's
    result by identity, so a subtree shared within ``expr``, or with other
    trees given the same ``memo``, is built once."""
    memo = {} if memo is None else memo
    if id(expr) not in memo:
        memo[id(expr)] = _dense(expr, grid, t, memo)
    return memo[id(expr)]


def _dense(expr, grid, t, memo):
    if isinstance(expr, _DiagLeaf):
        k, r = grid.axis_momenta(0), grid.axis_positions(0)
        f = np.exp(-1j * np.outer(k, r)) / np.sqrt(grid.n[0])
        out = 0
        for fn, m in expr.terms:
            diag = np.diag(np.broadcast_to(fn(grid, t), grid.shape).astype(complex))
            out = out + np.kron(m, diag if expr.space == POSITION else f.conj().T @ diag @ f)
        return out, _inf_norm(out)
    if isinstance(expr, Add):
        parts = [dense(child, grid, t, memo) for child in expr.children]
        return sum(m for m, _ in parts), sum(b for _, b in parts)
    (left, bl), (right, br) = dense(expr.left, grid, t, memo), dense(expr.right, grid, t, memo)
    return left @ right, bl * br


def _holds_constant(expr):
    """Whether ``expr`` is a product with a constant factor, a leaf of
    ``_one`` terms only."""
    return isinstance(expr, Mul) and any(
        isinstance(x, _DiagLeaf) and x.terms and all(fn is _one for fn, _ in x.terms)
        for x in (expr.left, expr.right))


def _nodes(expr):
    """Every node of the tree, depth first (a shared subtree once per use)."""
    yield expr
    if not isinstance(expr, _DiagLeaf):
        for child in expr.children if isinstance(expr, Add) else (expr.left, expr.right):
            yield from _nodes(child)


def _producer(kind, seed):
    if kind == "complex":
        return lambda g, t: (np.random.default_rng(seed).normal(size=g.shape)
                             + 1j * np.random.default_rng(seed + 1).normal(size=g.shape))
    if kind == "real":
        return lambda g, t: np.random.default_rng(seed).normal(size=g.shape)
    if kind == "constant":
        return lambda g, t: np.asarray(complex(seed % 7 - 3, 0.5))
    return lambda g, t: np.zeros(g.shape)


def _leaf(space, terms):
    return space([(_producer(kind, seed), _MATRICES[j]) for kind, seed, j in terms])


leaves = st.builds(_leaf, st.sampled_from([PositionDiag, MomentumDiag]), st.lists(st.tuples(
    st.sampled_from(["complex", "real", "constant", "zero"]), st.integers(0, 2**16),
    st.integers(0, len(_MATRICES) - 1)), min_size=1, max_size=3))

trees = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, min_size=1, max_size=3).map(Add),
    st.builds(Mul, inner, inner),
    st.builds(Scale, st.sampled_from([0.0, -1.0, 0.5 - 2j]), inner)), max_leaves=6)
# trees with no constant factor, whose dense matrix does not pass through a fold
unfolded_trees = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, min_size=1, max_size=3).map(Add), st.builds(Mul, inner, inner)),
    max_leaves=6)


def _blocks(m, n):
    """The largest |entry| of m's particle-particle/antiparticle-antiparticle
    blocks and of its off-diagonal blocks."""
    b = np.abs(m.reshape(4, n, 4, n))
    return (max(b[:2, :, :2].max(), b[2:, :, 2:].max()),
            max(b[:2, :, 2:].max(), b[2:, :, :2].max()))


_ALLOWED = {"zero": (False, False), "diagonal": (True, False),
            "offdiagonal": (False, True), "mixed": (True, True)}


@given(trees, st.sampled_from(GRIDS), st.sampled_from([POSITION, MOMENTUM]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tree_is_its_dense_matrix(expr, grid, space, seed):
    n = grid.n[0]
    m, bound = dense(expr, grid)
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    tol = 1e-13 * max(bound, 1.0)

    # the evaluator, from either space, and its adjoint tree
    adj, adj_bound = dense(Adjoint(expr), grid)
    assert np.max(np.abs(adj - m.conj().T)) <= tol
    for e, want_m, b in ((expr, m, bound), (Adjoint(expr), adj, adj_bound)):
        want = (want_m @ vals.ravel()).reshape(4, n)
        got = apply_expr(e, SpinorField(grid, vals).in_space(space)).in_space(POSITION).values
        scale = max(np.abs(want).max(), b * np.abs(vals).max())
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    # where the tree has an exact step, it is exp(-i dt V/2) exp(-i dt K)
    # exp(-i dt V/2) of its monomials of a position scalar, V, and the rest,
    # K, or the exponential of the one there is (a constant K the same 4x4
    # exponential at every point); dt is kept small, as a non-Hermitian
    # exponential may grow
    ham, dt = NamedHamiltonian("tree", [("tree", expr)], PhysParams(), ZeroField(), False), 0.05
    if _plan(ham, grid, 0.0, dt) is not None:
        v, k = [], []
        for c, chain in _monomials(expr, grid, dt / 2):
            (v if chain and chain[0][1] == POSITION else k).append(
                _monomial_leaf(grid, [(chain[0] if chain else None, c)]))
        want = vals.ravel()
        for group, share in ([(v, 0.5), (k, 1.0), (v, 0.5)] if v and k
                             else [(g, 1.0) for g in (v, k) if g]):
            want = scipy.linalg.expm(-1j * share * dt * dense(Add(group), grid)[0]) @ want
        got = strang_step_dirac(ham, SpinorField(grid, vals).in_space(space), 0.0, dt)
        scale = max(np.abs(want).max(), np.abs(vals).max())
        assert np.max(np.abs(got.in_space(POSITION).values.ravel() - want)) <= 1e-12 * scale

    # the measured block pattern lies within the claimed parity
    diag, off = _blocks(m, n)
    may_diag, may_off = _ALLOWED[block_parity(expr, grid)]
    assert (diag <= tol or may_diag) and (off <= tol or may_off)


@given(unfolded_trees, st.sampled_from(GRIDS), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_constant_factor_folds_into_its_product(expr, grid, seed):
    # Mul folds a constant matrix c or a number f into the other factor's
    # leaves; the reference is the dense matrix of the unfolded tree
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    f = complex(*rng.normal(size=2))
    m, bound = dense(expr, grid)
    lifted = np.kron(c, np.eye(grid.n[0]))
    vals = rng.normal(size=(4, grid.n[0])) + 1j * rng.normal(size=(4, grid.n[0]))
    for folded, want in ((Mul(ConstMatrix(c), expr), lifted @ m),
                         (Mul(expr, ConstMatrix(c)), m @ lifted), (Scale(f, expr), f * m)):
        assert not any(map(_holds_constant, _nodes(folded)))
        scale = max(bound, 1.0) * max(_inf_norm(c), abs(f), 1.0)
        assert np.max(np.abs(dense(folded, grid)[0] - want)) <= 1e-13 * scale
        got = apply_expr(folded, SpinorField(grid, vals)).values.ravel()
        assert np.max(np.abs(got - want @ vals.ravel())) <= 1e-13 * scale * np.abs(vals).max()


def _package_trees():
    """Every tree the package builds: each family's total, all its terms
    kept, with and without hermitize, every printed right-hand side, term by
    term and summed, and the spin and position-correction triples."""
    params, model = PhysParams(), UniformB(np.array([0.0, 0.0, 0.05]))
    for family, spec in FAMILIES.items():
        for hermitize in (False, True):
            yield family, [build_hamiltonian(family, model, params, spec.terms, hermitize).total]
    for kind in SpinKind:
        yield kind, spin_expr(kind, params) + position_correction_expr(kind, params)
        for family in ("free", "dirac-em", "fw-direct"):
            try:
                terms, total = rhs(kind, family, model, params)
            except PreconditionError:  # no printed equation for the pair
                continue
            yield (kind, family), total + [x for _, triple in terms for x in triple]


def test_no_product_holds_a_constant_factor():
    for where, trees in _package_trees():
        for tree in trees:
            assert not any(map(_holds_constant, _nodes(tree))), where


# leaves whose rows each take one product, of their own component: under an
# apply that owns its input (a Mul's left factor, or after a transform) they
# multiply in place
_OWN_ROW_MATRICES = [ID4, BETA, SIGMA[2], (ID4 - BETA) @ SIGMA[2]]
own_row_leaves = st.builds(
    lambda space, kind, seed, j: space([(_producer(kind, seed), _OWN_ROW_MATRICES[j])]),
    st.sampled_from([PositionDiag, MomentumDiag]), st.sampled_from(["complex", "real", "constant"]),
    st.integers(0, 2**16), st.integers(0, len(_OWN_ROW_MATRICES) - 1))
_R, _P = triple(R), triple(P)  # their scalars are the grid's own meshes




@given(st.one_of(trees,
                 st.lists(own_row_leaves, min_size=2, max_size=4).map(lambda ls: reduce(Mul, ls)),
                 st.builds(lambda a, b: Add([Mul(_R[0], _P[0]), Mul(a, Mul(_R[0], b))]),
                           own_row_leaves, own_row_leaves)),
       st.sampled_from(GRIDS), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_apply_writes_neither_its_input_nor_the_leaves(expr, grid, folded, seed):
    # a state in momentum space, after a transform or built from its values
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(4, grid.n[0])) + 1j * rng.normal(size=(4, grid.n[0]))
    psi = SpinorField(grid, vals).to_momentum() if folded else SpinorField(grid, vals, MOMENTUM)

    def cached():
        return [[a.tobytes() for a in leaf._scalars(grid, 0.0)] for leaf in _nodes(expr) if isinstance(leaf, _DiagLeaf)]

    data, scalars = psi.data.tobytes(), cached()
    got = apply_expr(expr, psi).in_space(POSITION).values
    assert psi.data.tobytes() == data
    assert cached() == scalars
    m, bound = dense(expr, grid)
    x = psi.in_space(POSITION).values
    want = (m @ x.ravel()).reshape(4, -1)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(np.abs(want).max(), bound * np.abs(x).max())


# the singular 1/p^2 leaf, and leaves whose arrays are the grid's own meshes,
# which subtrees of one tree then share
_INV_P2 = MomentumDiag([(lambda g, t: g.inv_k2, ID4)], name="1/p^2", singular_origin=True)
compiled_trees = st.recursive(
    st.one_of(leaves, st.sampled_from([_R[0], _P[0], _INV_P2, Mul(_R[0], _P[0])])),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(Add),
        st.builds(Mul, inner, inner),
        st.builds(Scale, st.sampled_from([0.0, -1.0, 0.5 - 2j]), inner)), max_leaves=8)


# non-commuting matrices on a shared r, a constant, a Scale and 1/p^2
_BETA_R = PositionDiag([(lambda g, t: g.r[0], BETA)])
_ALPHA_P = MomentumDiag([(lambda g, t: g.k[0], ALPHA[0]), (lambda g, t: np.asarray(0.5), SIGMA[1])])


@given(compiled_trees, st.sampled_from(GRIDS), st.sampled_from([POSITION, MOMENTUM]),
       st.integers(0, 2**32 - 1))
@example(Mul(_INV_P2, Add([Mul(_BETA_R, _ALPHA_P), Scale(0.5 - 2j, Mul(_ALPHA_P, _R[0])),
                           Mul(_P[0], _BETA_R)])), GRIDS[0], MOMENTUM, 3)
@settings(max_examples=60, deadline=None)
def test_compiled_tree_is_its_dense_matrix(expr, grid, space, seed):
    # as a matrix and applied from either space, with the guard off (a
    # compiled 1/p^2 guards the sum it acts on, not each share of it)
    m, bound = dense(expr, grid)
    tree = compiled(expr, grid)
    assert np.max(np.abs(dense(tree, grid)[0] - m)) <= 1e-13 * max(bound, 1.0)
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(4, grid.n[0])) + 1j * rng.normal(size=(4, grid.n[0]))
    want = (m @ vals.ravel()).reshape(4, -1)
    got = apply_expr(tree, SpinorField(grid, vals).in_space(space), guard=1.0)
    scale = max(np.abs(want).max(), bound * np.abs(vals).max())
    assert np.max(np.abs(got.in_space(POSITION).values - want)) <= 1e-13 * scale


def test_verify_is_the_dense_commutator():
    """Every cell of ``verify`` -- ||LHS||, ||RHS|| and the relative residual,
    with LHS = -i (S_i H - H S_i) psi -- for (pryce, fw) x (dirac-em,
    fw-direct) under a uniform B, from the dense S_i, H and printed terms,
    each built once per axis."""
    grid, params = GridSpec(1, 64, 48.0), PhysParams()
    model = UniformB(np.array([0.0, 0.0, 0.05]))
    states = standard_battery(grid, params, count=2)
    vectors = [psi.to_position().values.ravel() for psi in states]
    kinds = [SpinKind.PRYCE, SpinKind.FW]
    spins = {kind: [dense(s, grid)[0] for s in spin_expr(kind, params)] for kind in kinds}

    def norm(v):
        return np.sqrt(np.sum(np.abs(v) ** 2) * grid.weight)

    for family in ("dirac-em", "fw-direct"):
        ham = build_hamiltonian(family, model, params)
        h = dense(ham.total, grid)[0]
        for kind in kinds:
            cells = {(c.state, c.axis): c for c in verify(kind, ham, states).cells}
            terms, _ = rhs(kind, family, model, params)
            memo = {}  # the printed terms of the three axes share subtrees
            for axis, s in enumerate(spins[kind]):
                comm = -1j * (s @ h - h @ s)
                printed = sum(dense(triple[axis], grid, memo=memo)[0] for _, triple in terms)
                for si, v in enumerate(vectors):
                    lhs, rhs_v = comm @ v, printed @ v
                    scale, rhs_norm = norm(s @ (h @ v)) + norm(h @ (s @ v)), norm(rhs_v)
                    residual = norm(lhs - rhs_v) / max(scale, rhs_norm, 1e-14 * norm(v))
                    cell, where = cells[si, "xyz"[axis]], (kind, family, si, axis)
                    # a z cell under B along z cancels to roundoff of the scale
                    assert abs(cell.lhs_norm - norm(lhs)) <= 1e-13 * scale, where
                    assert abs(cell.rhs_norm - rhs_norm) <= 1e-13 * max(scale, rhs_norm), where
                    assert abs(cell.residual - residual) <= 1e-13, where


_PULSED_B = UniformB(np.array([0.0, 0.0, 0.2]),
                     Envelope(shape="gaussian", amplitude=1.0, center=0.3, width=2.0))
_OBLIQUE_B = UniformB(np.array([0.03, -0.02, 0.04]))  # Sigma_y: a complex Zeeman matrix


def _state(grid, seed=9):
    rng = np.random.default_rng(seed)
    return SpinorField(grid, rng.normal(size=(4, *grid.shape))
                       + 1j * rng.normal(size=(4, *grid.shape))).normalized()


def _relative(got, want):
    return np.linalg.norm(got.in_space(POSITION).values.ravel() - want) / np.linalg.norm(want)


@pytest.mark.parametrize("grid", GRIDS, ids=["n16", "n32"])
@pytest.mark.parametrize("family, model, terms, hermitize", [
    ("free", ZeroField(), None, False),                # one momentum factor
    ("dirac-em", ZeroField(), None, False),            # its potentials vanish
    ("fw-direct", _OBLIQUE_B, ["zeeman"], False),      # one constant factor
    ("fw-direct", _OBLIQUE_B, ["zeeman"], True),
    ("fw-direct", _PULSED_B, ["zeeman"], False),
    ("free", ZeroField(), None, True),                 # T and T^H summed into one term
], ids=["free", "dirac-em-zero", "zeeman", "zeeman-hermitized", "zeeman-pulsed",
        "free-hermitized"])
def test_one_factor_step_is_the_dense_exponential(grid, family, model, terms, hermitize):
    params, t, dt = PhysParams(), 0.1, 0.3
    ham = build_hamiltonian(family, model, params, terms=terms, hermitize=hermitize)
    assert len(_plan(ham, grid, t, dt)) == 1
    psi = _state(grid)
    want = scipy.linalg.expm(-1j * dt * dense(ham.total, grid, t + dt / 2)[0]) @ psi.values.ravel()
    assert _relative(strang_step_dirac(ham, psi, t, dt), want) <= 1e-12


@pytest.mark.parametrize("grid", GRIDS, ids=["n16", "n32"])
@pytest.mark.parametrize("model", [
    UniformB(np.array([0.0, 0.0, 0.2])), _PULSED_B, UniformE(np.array([0.05, 0.0, 0.0])),
], ids=["uniform-b", "pulsed-b", "uniform-e"])
def test_two_factor_step_is_the_dense_strang_product(grid, model):
    _check_strang_step(grid, model, hermitize=False)


@pytest.mark.parametrize("grid", GRIDS, ids=["n16", "n32"])
def test_hermitized_two_factor_step_is_the_dense_strang_product(grid):
    # T and T^H of each term are summed into one before the closed-form test
    _check_strang_step(grid, UniformB(np.array([0.0, 0.0, 0.2])), hermitize=True)


def _check_strang_step(grid, model, hermitize):
    # expm(-i dt V/2) expm(-i dt K) expm(-i dt V/2) with V = -ec alpha.A + e phi
    # and K = c alpha.p + beta m0 c^2, each dense at the midpoint
    params, t, dt = PhysParams(), 0.1, 0.3
    ham = build_hamiltonian("dirac-em", model, params, hermitize=hermitize)
    assert len(_plan(ham, grid, t, dt)) == 3
    v, k = (dense(ham.subset(names).total, grid, t + dt / 2)[0]
            for names in (["gauge-coupling", "scalar"], ["kinetic-free", "mass"]))
    half = scipy.linalg.expm(-0.5j * dt * v)
    psi = _state(grid)
    want = half @ scipy.linalg.expm(-1j * dt * k) @ half @ psi.values.ravel()
    assert _relative(strang_step_dirac(ham, psi, t, dt), want) <= 1e-12


@pytest.mark.parametrize("grid", GRIDS, ids=["n16", "n32"])
@pytest.mark.parametrize("family, model, terms, hermitize", [
    ("fw-direct", UniformB(np.array([0.0, 0.0, 0.2])), None, False),
    ("fw-direct", _PULSED_B, None, True),
], ids=["fw-direct", "fw-direct-pulsed-hermitized"])
def test_krylov_step_lands_within_its_tol(grid, family, model, terms, hermitize):
    params, t, dt, tol = PhysParams(), 0.1, 0.05, 1e-10
    ham = build_hamiltonian(family, model, params, terms=terms, hermitize=hermitize)
    assert _plan(ham, grid, t, dt) is None
    psi = _state(grid)
    want = scipy.linalg.expm(-1j * dt * dense(ham.total, grid, t + dt / 2)[0]) @ psi.values.ravel()
    assert _relative(krylov_step(ham, psi, t, dt, tol=tol), want) <= tol
