"""Composition language for grid operators.

An :class:`OperatorExpr` is a finite tree whose leaves are diagonal in either
position or momentum space and whose nodes are Add and Mul.  A leaf is
a sum of (scalar lattice function) x (constant 4x4 matrix) pairs -- every
operator appearing in the spin-dynamics equations has this shape -- so
applying a leaf never materializes per-point 4x4 matrices:

    (L psi)_a(x) = sum_j sum_b M_j[a, b] f_j(x) psi_b(x),

by ``grid.pointwise`` over the matrices' entries, found once per leaf.
When a leaf's cache fills, the entries that several terms put on one
(row, col) are summed into one coefficient where their scalars broadcast to
fewer points than the grid (``_merged``): c alpha.k on a 3D grid takes 8
products instead of 12, and -ec alpha.A of a uniform B along an axis 4
instead of 8.  A (row, col) that a full-grid scalar reaches keeps its
entries, so a coefficient never costs a grid field.

A leaf keeps its scalar arrays for one (grid, t) at a time, since every
caller finishes with one t before the next, in the dtype their producer
returns (a real mesh such as k^2 is held once, not as a complex copy).  A
leaf built ``time_dependent=False`` keys them on the grid alone, so it
fills once per grid.  An all-zero array is held as a 0-d zero.  Scalars
that several leaves read (a model's mesh, E_k, a spin coefficient) are
made once, in ``pooled``, so those leaves hold one array.  A leaf whose
live scalars all have size 1 is a constant: the same operator in both spaces,
which acts in the state's own space without a transform.  Uniform fields,
axes a 1D grid does not carry and switched-off envelopes all give constant
leaves, and :func:`ConstMatrix` is one too.  A constant factor, a leaf of
``_one`` terms only (a ``ConstMatrix``, or a number f, as ``Scale(f, x)``
is ``Mul(ConstMatrix(f 1), x)``), is never applied on its own: ``Mul``
folds it into the matrices of the other factor's leaves on its side, down
that spine and over every Add (``_folded``).

Where a leaf's result lands: a constant leaf's, and that of a leaf applied
to a state already in its space, is in the state's space.  Otherwise the
leaf reads the grid axes its live scalars vary on from their broadcast
shapes (at the fill).  A leaf that reads every axis, or is
``singular_origin``, transforms the state to its own space, where the
result stays.  One that reads fewer (r_j, or A = B x r / 2 of a uniform B
along an axis) commutes with the transforms along the others, so it
transforms just its axes, there and back (``SpinorField.diag_along``), and
its result is in the state's space.  A 1D grid has one axis, so there every
non-constant leaf reads all of them.

Exact zeros are decided here once.  When a leaf's cache fills, it also records
its live terms (the pairs with a nonzero matrix and a scalar that is not a 0-d
zero) and the axes they vary on (none for a constant); its ``_vanishes`` and
``_apply`` read those records until the next fill, so an apply loops over the
live terms only.  A leaf vanishes when no term is live (a folded 0 leaves
none), a Mul when either factor does and an Add when all its children do.  A
vanishing subtree is never applied: an Add skips it (adding its result into an
accumulator held in the other space would cost a transform) and ``apply_expr``
returns zeros for it.  An Add applies first the live leaves that transform its
input (those with axes, of the other space), so that their scratch is gone
before any sum exists, then the rest in their order.  It sums the results per
space, and then makes one cross-space move: the sum in the other space joins
the one in the input's space.

Mul(a, b) applies b first (left factor last), matching left-to-right operator
products as written in equations.

An ``_apply`` returns an array no one else holds (with ``own=True``, maybe its
input's), so a node writes into its children's results: Add accumulates into
the first live child's result in each space and drops the others once summed,
and a transform of a node's own result (Add's cross-space move, Mul's
hand-over from right to left, ``apply_expr``'s move back; ``own=True``)
overwrites it.  So does a leaf whose rows each take one product, of their own
component (``_own_rows``: r_j, p_j, 1/p^2), inside ``diag_along`` and on an
owned input.  The caller's state and the leaves' cached scalars are never
written.

One structural walk reads a tree without applying it.  ``_monomials``
flattens a tree at (grid, t) into monomials, its vanishing subtrees dropped:
the ordered product of the terms' 4x4 matrices, which commute with every
scalar, times a chain of scalars.  Read as static (t None), a time-dependent
leaf raises.  ``LeafStack`` reads it for static trees, ``block_parity`` at
t = 0, the exact step of ``propagate`` for a Hamiltonian at the step
midpoint, and ``compiled`` rewrites a tree for one (grid, t) into an equal
tree of the same nodes from it: adjacent scalars of one space multiplied
where that stays smaller than the grid, and those whose chains end in one
array share its leaf, from the end that costs fewer passes (``_trie``).  So
a Pryce total applies 1/p^2 once, and guards the sum of its terms' shares,
not each share.

Leaves flagged ``singular_origin`` (the longitudinal 1/p^2 projector and
friends) refuse to act on states whose k = 0 amplitude fraction exceeds the
zero-mode guard, and their scalar producers must return 0 in that bin (so a
constant singular leaf is zero and needs no guard).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError, SingularMomentumError
from .grid import (MOMENTUM, POSITION, GridSpec, SpinorField, matrix_entries, pointwise,
                   zero_mode_weight, zero_mode_weights)

__all__ = [
    "OperatorExpr", "PositionDiag", "MomentumDiag", "ConstMatrix",
    "Add", "Mul", "Scale", "Adjoint",
    "LeafStack", "apply_expr", "expectation", "block_parity",
    "compiled", "pooled", "release_pool", "DEFAULT_ZERO_MODE_GUARD",
]

DEFAULT_ZERO_MODE_GUARD = 1e-10

_POOL = {}  # the grid last asked about -> {key: (stamp, value)} on it
release_pool = _POOL.clear  # drops every pooled value, such as a refinement rung's


def pooled(key, grid, stamp, make):
    """The shared value ``make()`` of ``key``, one per key on the grid last
    asked about, made again when its stamp changes: a t, or the model, params
    or Hamiltonian behind it (numbers, and objects equal only to themselves)."""
    if grid not in _POOL:
        _POOL.clear()
    held = _POOL.setdefault(grid, {})
    if key not in held or held[key][0] != stamp:
        held.pop(key, None)  # the old value is not held while the new one is made
        held[key] = (stamp, make())
    return held[key][1]


def _is_zero(arr):
    return arr.size == 1 and complex(arr.reshape(())) == 0


def _reduced(arr):
    """``arr`` as an array, an all-zero mesh as a 0-d zero: its term vanishes."""
    arr = np.asarray(arr)
    return np.zeros(()) if arr.size > 1 and not arr.any() else arr


def _refusal(name, w0, guard):
    """The error refusing a state whose k = 0 weight w0 exceeds the guard of
    the singular operator ``name``, or None."""
    if w0 > guard:
        return SingularMomentumError(
            f"operator {name} is singular at k=0 but the state has zero-mode weight "
            f"{w0:.3e} > guard {guard:.1e}")


def _one(grid, t):
    """The scalar producer of a constant pair."""
    return np.ones(())


def _merged(live, npoints):
    """The live (entries, scalar) terms, merged as the module docstring says:
    alpha_x k_x + alpha_y k_y gives one (N, N, 1) coefficient k_x -+ i k_y
    per (row, col).  The coefficients come first; a leaf where nothing sums
    is returned as it is."""
    if sum(a.size < npoints for _, a in live) < 2:
        return live  # nothing to sum
    groups = {}
    for entries, a in live:
        for r, c, m in entries:
            groups.setdefault((r, c), []).append((m, a))
    coefs = {rc: sum(m * a for m, a in group) for rc, group in groups.items()
             if len(group) > 1 and all(a.size < npoints for _, a in group)
             and math.prod(np.broadcast_shapes(*(a.shape for _, a in group))) < npoints}
    if not coefs:
        return live
    kept = [([(r, c, m) for r, c, m in entries if (r, c) not in coefs], a) for entries, a in live]
    return [([(r, c, 1.0)], coef) for (r, c), coef in coefs.items()] + [t for t in kept if t[0]]


class OperatorExpr:
    """Base class; use the concrete leaves and combinators below."""


class _DiagLeaf(OperatorExpr):
    """Shared machinery of position- and momentum-diagonal leaves."""

    space = None

    def __init__(self, terms, name=None, time_dependent=False,
                 singular_origin=False):
        # terms: iterable of (producer, matrix); producer(grid, t) -> scalar
        # lattice array broadcastable to grid.shape
        self.terms = [(fn, np.asarray(m, dtype=complex)) for fn, m in terms]
        for _, m in self.terms:
            if m.shape != (4, 4):
                raise PreconditionError("leaf matrices must be 4x4")
        self.name = name
        self.time_dependent = bool(time_dependent)
        self.singular_origin = bool(singular_origin)
        self._key = self._arrays = self._live = self._axes = self._own_rows = self._adj = None
        self._entries = self._src = None  # entries at the first fill, _src by a fold

    def _fill(self, grid: GridSpec, t: float):
        """The producers' scalar arrays, ``_reduced``."""
        return tuple(_reduced(fn(grid, t)) for fn, _ in self.terms)

    def _scalars(self, grid: GridSpec, t):
        key = (grid, t if self.time_dependent else None)
        if self._key != key:
            if t is None and self.time_dependent:  # a static read (``_monomials``)
                raise PreconditionError(f"{self.name or 'a leaf'} is time-dependent; a static "
                                        "tree needs time-independent leaves")
            self._arrays = self._fill(grid, t)
            self._entries = self._entries or [matrix_entries(m) for _, m in self.terms]
            # the records every apply reads until the next fill
            live = [(entries, a) for entries, a in zip(self._entries, self._arrays)
                    if entries and not _is_zero(a)]
            # the array axes the live scalars vary on, from their broadcast shape
            shape = np.broadcast_shapes((1,) * grid.dim, *(a.shape for _, a in live))
            self._axes = tuple(j + 1 for j, n in enumerate(shape) if n > 1)
            self._live = _merged(live, grid.npoints)
            rc = [(r, c) for entries, _ in self._live for r, c, _ in entries]  # see _kernel
            self._own_rows = len({r for r, _ in rc}) == len(rc) and all(r == c for r, c in rc)
            self._key = key
        return self._arrays

    def _vanishes(self, grid, t):
        self._scalars(grid, t)
        return not self._live

    def _apply(self, field, t, guard, own=False):
        self._scalars(field.grid, t)
        # where the result lands: see the module docstring
        if self._axes and field.space != self.space:
            if len(self._axes) < field.grid.dim and not self.singular_origin:
                return field.diag_along(self.space, self._axes, self._kernel, consume=own)
            field, own = field.in_space(self.space, consume=own), True  # a new array
        if self._axes and self.singular_origin:
            refusal = _refusal(self.name or type(self).__name__, zero_mode_weight(field), guard)
            if refusal is not None:
                raise refusal
        return field.with_data(self._kernel(field.data, own))

    def _kernel(self, psi, own=True):
        """sum_j M_j f_j psi over the live terms: into psi if ``own`` gives it up
        and each row takes at most one product, of its own; else a new array."""
        return pointwise(psi, self._live, psi if own and self._own_rows else None)

    def _derived(self, matrices, name, conj=False):
        """A leaf of ``matrices`` on the cached scalars (conjugated, with ``conj``)
        of this leaf, or of the leaf it is a fold of; a ``_one`` pair stays one."""
        src, read = (self, np.conj) if conj else (self._src or self, np.asarray)
        terms = [(fn if fn is _one else (lambda grid, t, j=j: read(src._scalars(grid, t)[j])), m)
                 for j, ((fn, _), m) in enumerate(zip(self.terms, matrices))]
        leaf = type(self)(terms, name, self.time_dependent, self.singular_origin)
        leaf._src = None if conj else src
        return leaf

    def _adjoint(self):
        """The adjoint leaf, built once."""
        if self._adj is None:
            self._adj = self._derived([m.conj().T for _, m in self.terms], conj=True,
                                      name=None if self.name is None else self.name + "^H")
            self._adj._adj = self
        return self._adj


class PositionDiag(_DiagLeaf):
    space = POSITION


class MomentumDiag(_DiagLeaf):
    space = MOMENTUM


def ConstMatrix(matrix, name=None) -> PositionDiag:
    """A constant 4x4 matrix: a constant leaf, so it acts in the state's own
    space."""
    return PositionDiag([(_one, matrix)], name=name)


class Add(OperatorExpr):
    def __init__(self, children):
        self.children = list(children)
        if not self.children:
            raise PreconditionError("Add needs at least one child")

    def _vanishes(self, grid, t):
        return all(c._vanishes(grid, t) for c in self.children)

    def _apply(self, field, t, guard, own=False):
        acc = {}  # space -> the sum of the results that landed there
        # the live children, a leaf that transforms the input first (see the
        # module docstring)
        live = [c for c in self.children if not c._vanishes(field.grid, t)]
        for child in sorted(live, key=lambda c: not (isinstance(c, _DiagLeaf) and c._axes
                                                     and c.space != field.space)):
            out = child._apply(field, t, guard)
            if out.space in acc:
                np.add(acc[out.space].data, acc[out.space].data_of(out), out=acc[out.space].data)
            else:
                acc[out.space] = out
            del out  # summed: not held while the next child applies
        # one cross-space move, into the input's space
        out = acc.pop(field.space) if field.space in acc else acc.popitem()[1]
        for other in acc.values():
            np.add(out.data, out.data_of(other, consume=True), out=out.data)
        return out

    def _adjoint(self):
        return Add([c._adjoint() for c in self.children])


def _folded(expr, c, side):
    """``expr`` times the matrix c on its left (side 0) or right (1): c in the
    matrices of the leaves at that end of every product, over every Add."""
    if isinstance(expr, Add):
        return Add([_folded(child, c, side) for child in expr.children])
    if isinstance(expr, Mul):
        return (Mul(_folded(expr.left, c, side), expr.right) if side == 0
                else Mul(expr.left, _folded(expr.right, c, side)))
    return expr._derived([c @ m if side == 0 else m @ c for _, m in expr.terms], expr.name)


class Mul(OperatorExpr):
    """Operator composition; the left factor is applied last.  A constant factor
    (a leaf of ``_one`` terms only, not one of none) is folded into the other;
    no ``__init__``, which Python would rerun on a Mul that the fold returns."""

    def __new__(cls, left, right):
        for c, other, side in ((left, right, 0), (right, left, 1)):
            if isinstance(c, _DiagLeaf) and c.terms and all(fn is _one for fn, _ in c.terms):
                return _folded(other, sum(m for _, m in c.terms), side)
        self = super().__new__(cls)
        self.left, self.right = left, right
        return self

    def _vanishes(self, grid, t):
        return self.right._vanishes(grid, t) or self.left._vanishes(grid, t)

    def _apply(self, field, t, guard, own=False):
        return self.left._apply(self.right._apply(field, t, guard, own), t, guard, own=True)

    def _adjoint(self):
        return Mul(self.right._adjoint(), self.left._adjoint())


def Scale(factor, expr: OperatorExpr) -> OperatorExpr:
    """factor * expr, the number folded into ``expr``'s leaves (``Mul``)."""
    return Mul(ConstMatrix(complex(factor) * np.eye(4)), expr)


def Adjoint(expr: OperatorExpr) -> OperatorExpr:
    """The Hermitian adjoint tree: products reversed, everything conjugated."""
    return expr._adjoint()


def _evaluate(expr, field, t, guard):
    """E psi, or a zero field for an expression known to vanish."""
    if expr._vanishes(field.grid, t):
        return field.with_data(np.zeros_like(field.data))
    return expr._apply(field, t, guard)


def apply_expr(expr: OperatorExpr, field: SpinorField, t: float = 0.0,
               guard: float = DEFAULT_ZERO_MODE_GUARD) -> SpinorField:
    """Apply an operator expression; the result is returned in the input's
    space and storage.  Raises FloatingPointError on NaN/Inf in the output
    (upstream singularities), found as a non-finite sum of its real and
    imaginary parts, which needs no boolean field; a finite result whose sum
    overflows (entries near 1e308) raises too."""
    out = field.with_data(field.data_of(_evaluate(expr, field, t, guard), consume=True))
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the raise, not a warning
        finite = np.isfinite(np.sum(out.data.reshape(-1).view(float)))
    if not finite:
        raise FloatingPointError("operator application produced non-finite values")
    return out


def expectation(expr: OperatorExpr, field: SpinorField, t: float = 0.0,
                guard: float = DEFAULT_ZERO_MODE_GUARD) -> complex:
    """<psi | E | psi> with the dx^d-weighted inner product."""
    return field.inner(_evaluate(expr, field, t, guard).in_space(field.space, consume=True))


def _monomials(expr, grid, t):
    """``expr`` at (grid, t) as [(C, chain)]: C the product of the terms'
    matrices, numbers and size-1 scalars folded in, and chain the other
    scalars, first applied first, as (id, space, singular, array, name).
    With t None the tree is read as static: a time-dependent leaf raises."""
    if expr._vanishes(grid, t):
        return []
    if isinstance(expr, _DiagLeaf):
        name = expr.name or type(expr).__name__
        return [(m * complex(a.reshape(())), ()) if a.size == 1 else
                (m, ((id(a), expr.space, expr.singular_origin, a, name),))
                for (_, m), a in zip(expr.terms, expr._scalars(grid, t)) if not _is_zero(a)]
    if isinstance(expr, Add):
        return [m for child in expr.children for m in _monomials(child, grid, t)]
    return [(cl @ cr, right + left) for cr, right in _monomials(expr.right, grid, t)
            for cl, left in _monomials(expr.left, grid, t)]


def _fused(chain, npoints, memo):
    """``chain``, adjacent factors of one space multiplied where the product is
    smaller than the grid and neither is singular, one array per pair."""
    out = []
    for f in chain:
        p = out[-1] if out else None
        if (p and p[1] == f[1] and not (p[2] or f[2])
                and math.prod(np.broadcast_shapes(p[3].shape, f[3].shape)) < npoints):
            out.pop()  # the memo holds the operands, so that their ids stay theirs
            prod = memo.setdefault((p[0], f[0]), (p[3] * f[3], p, f))[0]
            f = (id(prod), f[1], False, prod, None)
        out.append(f)
    return tuple(out)


def _leaf(grid, pairs):
    """The leaf of (factor, matrix) pairs of one space, filled on ``grid``."""
    f = pairs[0][0]
    leaf = ConstMatrix(pairs[0][1]) if f is None else (
        MomentumDiag if f[1] == MOMENTUM else PositionDiag)(
        [(lambda g, t, a=x[3]: a, m) for x, m in pairs], name=f[4], singular_origin=f[2])
    leaf._scalars(grid, 0.0)
    return leaf


def _cost(expr):
    """(axis passes, kernel products) of an apply to a momentum state."""
    if isinstance(expr, _DiagLeaf):
        return 2 * len(expr._axes) * (expr.space == POSITION), sum(len(e) for e, _ in expr._live)
    kids = expr.children if isinstance(expr, Add) else (expr.left, expr.right)
    return tuple(map(sum, zip(*map(_cost, kids))))


def _trie(monos, grid, side=None):
    """Monomials of distinct chains as a tree, the cheaper (``_cost``) of two:
    those sharing their last-applied (side -1) or first-applied (0) factor
    share its leaf; one no other shares joins those of its space and rest."""
    if side is None:
        return min((_trie(monos, grid, side) for side in (-1, 0)), key=_cost)
    rest = lambda chain: chain[:-1] if side else chain[1:]
    join = lambda f, e: Mul(f, e) if side else Mul(e, f)
    groups, lone, nodes = {}, {}, []
    for c, chain in monos:
        groups.setdefault(chain[side][:3] if chain else None, []).append((c, chain))
    for key, group in groups.items():
        if key is None or len(group) == 1:
            (c, chain), = group
            lone.setdefault(key and (key[1:], tuple(f[:3] for f in rest(chain))), []).append(
                (chain[side] if chain else None, c, rest(chain)))
        else:
            nodes.append(join(_leaf(grid, [(group[0][1][side], np.eye(4))]),
                              _trie([(c, rest(chain)) for c, chain in group], grid)))
    for group in lone.values():
        tree = _leaf(grid, [(f, c) for f, c, _ in group])
        for f in group[0][2][::side or 1]:
            tree = join(tree, _leaf(grid, [(f, np.eye(4))]))
        nodes.append(tree)
    return nodes[0] if len(nodes) == 1 else Add(nodes)


def compiled(expr: OperatorExpr, grid: GridSpec, t: float = 0.0) -> OperatorExpr:
    """A tree equal to ``expr`` at (grid, t) that applies each shared factor
    once (see the module docstring)."""
    memo, monos = {}, {}
    for c, chain in _monomials(expr, grid, t):
        chain = _fused(chain, grid.npoints, memo)
        key = tuple(f[:3] for f in chain)
        monos[key] = (monos[key][0] + c if key in monos else c, chain)
    monos = [m for m in monos.values() if m[0].any()]
    return _trie(monos, grid) if monos else ConstMatrix(np.zeros((4, 4)))


class LeafStack:
    """<psi | E | psi> of several static expressions at once, for every state
    of a block on one grid, without applying any.

    An entry is a static tree whose monomials (``_monomials``) each have at
    most one scalar, every scalar of one space: a sum sum_j f_j M_j, constant
    f_j included.  With rho_ab = conj(psi_a) psi_b it has the expectation
    dx^d sum_j sum_ab M_j[a, b] sum_x f_j(x) rho_ab(x).  The rows of F are
    real and distinct: a row of ones, for every constant, and each scalar
    once by value, the matrices of equal rows summed.  A complex scalar
    f + i g is the row f with M and the row g with i M, so the entry f 1 is
    the trace of rho against a fixed row f (a norm, a mask's weight).  Real
    rows give X_ba = conj(X_ab) for X_ab = sum_x f(x) rho_ab(x), so only the
    a <= b densities are read:

        sum_ab M_ab X_ab = sum_{a<=b} (M_ab X_ab + [a < b] M_ba conj X_ab),

    exact, and complex where M is not Hermitian.  F contracts the rho_ab of
    every state of the block that some matrix reads in one matrix product
    per slab of at most ``BLOCK_POINTS`` points along the leading grid axis
    (one slab in 1D, so a 3D slab needs memory of the order of the state's).
    Construction refuses (PreconditionError) a time-dependent leaf, a
    monomial of more than one scalar and scalars of two spaces, before it
    gathers any row from the leaves' cached scalars.  F is stacked then too
    when the grid is one slab; several slabs are stacked per call, since
    holding all of them would cost more memory than the state.  A singular
    scalar keeps the zero-mode guard of an apply, read per state as every
    apply reads it (``zero_mode_weights``).
    """

    BLOCK_POINTS = 4096

    def __init__(self, entries, grid: GridSpec):
        monos = [_monomials(entry, grid, None) for entry in entries]  # refuses a t-dependent leaf
        if any(len(chain) > 1 for entry in monos for _, chain in entry):
            raise PreconditionError("a LeafStack entry needs monomials of at most one scalar")
        scalars = [chain[0] for entry in monos for _, chain in entry if chain]
        spaces = {f[1] for f in scalars}
        if len(spaces) > 1:
            raise PreconditionError("a LeafStack needs leaves of one space")
        self.grid, n = grid, len(entries)
        rows, mats, index = [np.ones(())], [np.zeros((n, 4, 4), complex)], {}
        for li, entry in enumerate(monos):
            for m, chain in entry:
                if not chain:
                    mats[0][li] += m
                    continue
                for part, unit in ((np.real(chain[0][3]), 1.0), (np.imag(chain[0][3]), 1j)):
                    part = np.asarray(part, dtype=float)
                    if not part.any():
                        continue
                    row = index.setdefault((part.shape, part.tobytes()), len(rows))
                    if row == len(rows):
                        rows.append(part)
                        mats.append(np.zeros((n, 4, 4), complex))
                    mats[row][li] += unit * m
        mats = np.stack(mats, axis=1) * grid.weight
        a, b = np.triu_indices(4)
        m_ab, m_ba = mats[..., a, b], mats[..., b, a]
        # the factors of Re X_ab and Im X_ab, a <= b
        coef = np.stack([np.where(a == b, m_ab, m_ab + m_ba),
                         1j * np.where(a == b, m_ab, m_ab - m_ba)], axis=-1)
        used = np.flatnonzero(coef.any(axis=(0, 1, 3)))  # the rho_ab some matrix reads,
        used = used[np.argsort(b[used], kind="stable")]  # those of one b side by side
        b_slices = [(j, np.searchsorted(b[used], j), np.searchsorted(b[used], j, "right"))
                    for j in np.unique(b[used])]
        kept = coef.any(axis=(0, 2, 3))
        kept[0] = True  # the row of ones, so F has a row
        rows = [np.broadcast_to(r, grid.shape) for r, k in zip(rows, kept) if k]
        # real factors, (entry, Re | Im) by (pair, row, Re | Im of X)
        coef = coef[:, kept][:, :, used].transpose(0, 2, 1, 3)
        coef = np.stack([coef.real, coef.imag], axis=1).reshape(2 * n, -1)
        step = max(1, self.BLOCK_POINTS * grid.shape[0] // grid.npoints)
        slabs = [slice(i0, i0 + step) for i0 in range(0, grid.shape[0], step)]
        self._plan = (spaces.pop() if spaces else None,
                      next((f[4] for f in scalars if f[2]), None),
                      a[used], b_slices, coef, rows, slabs,
                      np.stack(rows).reshape(len(rows), -1) if len(slabs) == 1 else None)

    def contract(self, data, guard: float = DEFAULT_ZERO_MODE_GUARD):
        """The complex expectation of every entry (columns) in every state
        (rows) of ``data``, (states, 4, *grid) fields' data in the stack's
        space; and per state the error of its zero-mode guard, None where it
        passes."""
        _, singular, a, b_slices, coef, rows, slabs, f_whole = self._plan
        n, dens = len(data), 0.0
        for sl in slabs:
            # (4, points, states), so that rho_ab is a contiguous (points, states) matrix
            psi = np.ascontiguousarray(data[:, :, sl].reshape(n, 4, -1).transpose(1, 2, 0))
            rho = psi[a]  # a copy, conjugated and multiplied in place
            np.conjugate(rho, out=rho)
            for b, lo, hi in b_slices:
                rho[lo:hi] *= psi[b]
            f = (f_whole if f_whole is not None
                 else np.stack([r[sl] for r in rows]).reshape(len(rows), -1))
            dens = dens + np.matmul(f, rho.view(float))  # (pairs, rows, states x Re | Im)
        dens = dens.reshape(len(a), len(rows), n, 2).transpose(2, 0, 1, 3).reshape(n, -1)
        # the last sum is no BLAS call: with OpenBLAS's default threads, a gemv
        # here made the Krylov steps' expm, and so the default Larmor sweep,
        # several times slower
        values = np.einsum("lq,sq->sl", coef, dens, order="C").view(complex)
        if singular is None:
            return values, [None] * n
        return values, [_refusal(singular, w, guard) for w in zero_mode_weights(data, self.grid)]

    def expectations(self, field: SpinorField,
                     guard: float = DEFAULT_ZERO_MODE_GUARD) -> np.ndarray:
        """The complex expectation of every entry, in the order given: the
        ``contract`` of a block of one."""
        field = field.in_space(self._plan[0] or field.space)
        (values,), (refusal,) = self.contract(field.data[None], guard)
        if refusal is not None:
            raise refusal
        return values


# -- block parity ----------------------------------------------------------------

def block_parity(expr: OperatorExpr, grid: GridSpec) -> str:
    """Classify an expression's particle-antiparticle block structure on
    ``grid`` at t = 0 as 'diagonal', 'offdiagonal', 'zero', or 'mixed': the
    blocks where the matrix of some monomial (``_monomials``) is nonzero.  A
    term that vanishes there, or whose products are exactly zero, is 'zero'."""
    nonzero = sum((m != 0 for m, _ in _monomials(expr, grid, 0.0)), np.zeros((4, 4), bool))
    diag = nonzero[:2, :2].any() or nonzero[2:, 2:].any()
    off = nonzero[:2, 2:].any() or nonzero[2:, :2].any()
    return ("zero", "offdiagonal", "diagonal", "mixed")[2 * diag + off]
