"""Time evolution of spinor fields and trajectory observables.

Two steps:

* ``strang_step_dirac`` -- the exact step, built from the Hamiltonian's
  monomials at the step midpoint (``expr._monomials``; for the Dirac
  Hamiltonian, the FFT split step of Mocken & Keitel, Comput. Phys. Commun.
  178, 868 (2008)).  Those of a position scalar are the position group, the
  rest (momentum scalars and constants, such as beta m0 c^2) the momentum
  group, and each group X becomes one pointwise factor exp(-i tau X), its
  terms of equal matrix summed first (the T and T^H of a hermitized H make
  one term).  A
  constant X is the expm of its 4x4 matrix, applied in the state's own
  space without a transform.  Otherwise X = phi 1 + Y, and where Y's
  scalars are real and its matrices anticommute pairwise and square to
  positive multiples of 1, Y^2 = s^2 at every point and the factor is
  exp(-i tau phi) (cos(tau s) - i sin(tau s)/s Y) in the group's space:
  c alpha.k + beta m0 c^2 with s = E_k, or -ec alpha.A with s = |ec A|
  times the phase of e phi.  One factor is an exact step; two make a
  Strang step V/2 K V/2 (V the position group), second order with roundoff
  norm drift.  Where a monomial has two scalars or a group has no closed
  form, the step is a Krylov step.  The factors are pooled per
  (grid, dt) for one H, and per midpoint under a time-dependent model.
* ``krylov_step`` -- Arnoldi projection of exp(-i H dt), time-dependent
  coefficients sampled at the midpoint, keeping second order.  The basis is
  kept as the rows of one array that grows as rows are needed, and the step
  is one product of the projected solution with it.

``propagator="krylov"`` forces Krylov steps, and no other value than None is
accepted; a step size must be finite and nonzero.  One time loop,
``_evolve``, yields the state at t0, every ``stride`` steps and after the
last: ``run`` records a row at each, and ``ehrenfest_residual`` reads it at
stride 1.  Under a static model a one-factor exact step takes the n steps
between two yields as one of n dt, as exp(-i n dt H) = exp(-i dt H)^n, and
any other step is taken n times.

Trajectories record the three spin expectations, norm, energy, <r>, <p> and a
boundary-flux diagnostic at a configurable stride; the run aborts when flux
into the margin shell exceeds the documented limit.  ``run`` measures its
rows in blocks of at most ``LeafStack.BLOCK_POINTS`` row-points, in time
order (``_Observables``).  A block is written in the space of its newest
row (a row in the other space is transformed once), moves to the other
space in one transform, and each space's columns, the norm and the flux of
all its rows are one contraction of their densities (``expr.LeafStack``);
so is the energy where H is a sum of static leaves, each momentum-diagonal
or constant, and any other H is applied per row.  A run decides which once,
at its start.  A row's guard refusal, a flux abort and a step's error are
raised in the order the rows and steps were made.  CSV column order is
frozen (see ``Trajectory.CSV_COLUMNS``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg

from .errors import BoundaryFluxError, KrylovConvergenceError, PreconditionError
from .algebra import ID4
from .expr import ConstMatrix, LeafStack, PositionDiag, _monomials, apply_expr, expectation, pooled
from .grid import (MOMENTUM, POSITION, SpinorField, _bare_fft, _spatial_axes, matrix_entries,
                   pointwise)
from .hamiltonians import NamedHamiltonian, P, R, triple
from .operators import SpinKind
from .dynamics import spin_expr

__all__ = [
    "strang_step_dirac", "krylov_step", "run", "ehrenfest_residual", "Trajectory",
]


#: the Krylov residual tolerance of ``run``, ``ehrenfest_residual`` and ``krylov_step``
KRYLOV_TOL = 1e-10


def _factor(monos, tau, hermitian):
    """exp(-i tau X) of the group X = sum of the one-scalar monomials
    ``monos`` as the space it acts in (None: the state's own) and
    ``pointwise`` terms; None where it has no closed form."""
    terms = []  # terms of equal matrix summed: T and T^H of a hermitized H share theirs
    for m, y in ((m, chain[0][3] if chain else 1.0) for m, chain in monos):
        same = next((i for i, (n, _) in enumerate(terms) if np.array_equal(m, n)), None)
        if same is None:
            terms.append((m, y))
        else:
            terms[same] = (terms[same][0], terms[same][1] + y)
    spaces = [chain[0][1] for _, chain in monos if chain]
    if not spaces:
        u = _exp_minus_idt(sum(m * y for m, y in terms), tau, hermitian)
        return None, [(matrix_entries(u), 1.0)]
    phase = [m[0, 0] * y for m, y in terms if np.array_equal(m, m[0, 0] * ID4)]
    y_terms = [(m, y) for m, y in terms if not np.array_equal(m, m[0, 0] * ID4)]
    squares = [(m @ m)[0, 0].real for m, _ in y_terms]
    if (any(np.iscomplexobj(y) and np.any(y.imag) for _, y in y_terms)
            or any(not (q > 0 and np.array_equal(m @ m, q * ID4))
                   for q, (m, _) in zip(squares, y_terms))
            or any(np.any(a @ b + b @ a) for (a, _), (b, _) in itertools.combinations(y_terms, 2))):
        return None
    y_terms = [(m, np.real(y)) for m, y in y_terms]
    s = np.sqrt(sum(q * y**2 for q, (_, y) in zip(squares, y_terms)))
    # number-valued terms (beta m0 c^2) first: a summation order the step's bits depend on
    y_terms.sort(key=lambda term: np.size(term[1]) > 1)
    small = s < 1e-14  # sin(tau s)/s is tau there
    sinc = np.where(small, tau, np.sin(tau * s) / np.where(small, 1.0, s))
    out = [(matrix_entries(ID4), np.cos(tau * s))] + [(matrix_entries(m), -1j * y * sinc)
                                                      for m, y in y_terms]
    if phase:
        phase = np.exp(-1j * tau * sum(phase))
        out = [(entries, f * phase) for entries, f in out]
    return spaces[0], out


def _factors(total, hermitian, tm, grid, dt):
    """The factors of the exact step of H = ``total`` over dt with midpoint
    ``tm`` (None for a static model, whose leaves do not change with t), in
    the order they act: the position group V and the momentum group K as
    V/2 K V/2, or the one there is; None where it is a Krylov step."""
    monos = [(m, chain) for m, chain in _monomials(total, grid, 0.0 if tm is None else tm)
             if m.any()]
    if any(len(chain) > 1 for _, chain in monos):
        return None
    pos = [(m, chain) for m, chain in monos if chain and chain[0][1] == POSITION]
    mom = [(m, chain) for m, chain in monos if not chain or chain[0][1] == MOMENTUM]
    if pos and mom:
        half = _factor(pos, dt / 2.0, hermitian)
        factors = [half, _factor(mom, dt, hermitian), half]
    else:
        factors = [_factor(group, dt, hermitian) for group in (pos, mom) if group]
    return None if None in factors else factors


def _plan(hamiltonian, grid, t, dt):
    """``_factors`` of the step over [t, t + dt], pooled per dt and stamped
    with H, its trusted Hermiticity and the midpoint (None when static)."""
    tm = t + dt / 2.0 if hamiltonian.model.time_dependent else None
    stamp = (hamiltonian.total, hamiltonian.assume_hermitian, tm)
    return pooled(("exact step", dt), grid, stamp, lambda: _factors(*stamp, grid, dt))


def strang_step_dirac(hamiltonian: NamedHamiltonian, field: SpinorField, t: float,
                      dt: float) -> SpinorField:
    """One exact step of H over [t, t + dt] (see the module docstring): one
    factor, or the Strang product of two.  Every factor is an exact unitary
    for a Hermitian H, so norm drift is roundoff.  The result is in the space
    of the last non-constant factor, else in the field's own."""
    factors = _plan(hamiltonian, field.grid, t, dt)
    if factors is None:
        raise PreconditionError(f"{hamiltonian.family} has no exact step here; "
                                "it takes Krylov steps")
    for space, terms in factors:
        field = field.in_space(space or field.space)
        field = field.with_data(pointwise(field.data, terms))
    if not np.isfinite(field.data).all():
        raise FloatingPointError("exact step produced non-finite values")
    return field


def _norm(v):
    return np.sqrt(np.einsum("i,i->", v.view(float), v.view(float)))


def _exp_minus_idt(h: np.ndarray, dt: float, hermitian: bool) -> np.ndarray:
    """exp(-i dt h), h symmetrized first when trusted to be ``hermitian``."""
    if hermitian:
        h = 0.5 * (h + h.conj().T)
    return scipy.linalg.expm(-1j * dt * h)


def krylov_step(hamiltonian: NamedHamiltonian, field: SpinorField, t: float,
                dt: float, m: int = 40, tol: float = KRYLOV_TOL) -> SpinorField:
    """Approximate exp(-i H(t + dt/2) dt) psi in an m-dimensional Krylov space.

    Builds the basis by the Arnoldi recursion; for a trusted-Hermitian
    Hamiltonian the projected matrix is symmetrized, so the step is exactly
    unitary.  The basis vectors are the rows of one array, as in Expokit
    (Sidje, ACM TOMS 24, 1998).  It doubles its rows when full, so a step
    that converges early never holds the m rows a capped one may need, and
    the result is one product of the projected solution with those rows.
    Its products and norms are einsums, which call no BLAS: under a BLAS's
    default thread count they made the step several times slower.
    Raises :class:`KrylovConvergenceError` with a suggested smaller step
    when the subspace cap is hit before the residual estimate reaches
    ``tol``.
    """
    if m < 8:
        raise PreconditionError("krylov subspace must allow m >= 8")
    grid = field.grid
    tm = t + dt / 2.0

    def matvec(flat):
        f = field.with_data(flat.reshape(4, *grid.shape))
        return apply_expr(hamiltonian.total, f, tm).data.ravel()

    v0 = field.data.ravel()
    beta0 = _norm(v0)
    if beta0 == 0:
        return field.copy()
    basis = np.empty((1, v0.size), dtype=complex)
    np.divide(v0, beta0, out=basis[0])
    hess = np.zeros((m + 1, m), dtype=complex)

    y = None
    used = 0
    for j in range(m):
        w = matvec(basis[j])
        for i in range(j + 1):
            h = hess[i, j] = np.einsum("i,i->", basis[i].conj(), w)
            w -= h * basis[i]
        nrm = _norm(w)
        hess[j + 1, j] = nrm
        used = j + 1
        happy = nrm <= 1e-14 * beta0
        if happy or used >= 8 or used == m:
            y = _exp_minus_idt(hess[:used, :used], dt, hamiltonian.assume_hermitian)[:, 0]
            est = 0.0 if happy else abs(dt) * nrm * abs(y[-1])
            if happy or est <= tol:
                break
        if used == m:
            raise KrylovConvergenceError(
                f"Krylov propagation did not reach tol={tol:.1e} with m={m} "
                f"(estimate {est:.3e}); retry with a smaller step",
                suggested_dt=dt / 2.0)
        if used == len(basis):
            grown = np.empty((min(2 * used, m), v0.size), dtype=complex)
            grown[:used] = basis
            basis = grown
        np.divide(w, nrm, out=basis[used])

    out = beta0 * np.einsum("j,ji->i", y, basis[:used])
    result = field.with_data(out.reshape(4, *grid.shape))
    if not np.isfinite(result.data).all():
        raise FloatingPointError("Krylov step produced non-finite values")
    return result


def _evolve(hamiltonian, state, dt, steps, stride=1, t0=0.0, propagator=None,
            krylov_tol=KRYLOV_TOL):
    """The one time loop (see the module docstring): (t, psi) at t0, every
    ``stride`` steps and after the last.  Step s starts at t0 + s dt; it is a
    Krylov step where ``propagator`` is "krylov" or H has no exact step."""
    if steps < 0 or stride < 1:
        raise PreconditionError("steps must be >= 0 and stride >= 1")
    if propagator not in (None, "krylov"):
        raise PreconditionError(f"propagator must be None or 'krylov', got {propagator!r}")
    if not (np.isfinite(dt) and dt != 0):
        raise PreconditionError(f"dt must be finite and nonzero, got {dt!r}")
    exact = propagator is None
    static = not hamiltonian.model.time_dependent
    psi = state
    yield t0, psi
    for done in range(0, steps, stride):
        last = min(done + stride, steps)
        t, whole = t0 + done * dt, (last - done) * dt
        factors = _plan(hamiltonian, psi.grid, t, whole) if exact and static else None
        if factors is not None and len(factors) <= 1:
            psi = strang_step_dirac(hamiltonian, psi, t, whole)
        else:
            for t in (t0 + s * dt for s in range(done, last)):
                psi = (strang_step_dirac(hamiltonian, psi, t, dt)
                       if exact and _plan(hamiltonian, psi.grid, t, dt) is not None
                       else krylov_step(hamiltonian, psi, t, dt, tol=krylov_tol))
        yield t0 + last * dt, psi


@dataclass
class Trajectory:
    """Observable time series; one row per sampled step."""

    CSV_COLUMNS = ("t", "norm", "energy",
                   "S_D_x", "S_D_y", "S_D_z",
                   "S_FW_x", "S_FW_y", "S_FW_z",
                   "S_Py_x", "S_Py_y", "S_Py_z",
                   "r_x", "r_y", "r_z", "p_x", "p_y", "p_z", "flux")

    rows: list = dc_field(default_factory=list)

    def append(self, **kwargs):
        self.rows.append([kwargs[c] for c in self.CSV_COLUMNS])

    def column(self, name):
        idx = self.CSV_COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])

    def to_csv(self) -> str:
        lines = [",".join(self.CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join("%.17g" % v for v in row))
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())


#: Fields evolving in electromagnetic pulses acquire genuinely physical k = 0
#: amplitude (momentum-transfer sidebands), so trajectory observables apply
#: singular operators under the zeroed-bin convention up to this weight; the
#: recorded Pryce expectations then carry an ambiguity bounded by that weight.
OBSERVABLE_GUARD = 1e-3
FLUX_ABORT = 1e-6  # ``run`` aborts where the margin-shell norm fraction exceeds this


class _Observables:
    """The rows of a run, measured in blocks of at most
    ``LeafStack.BLOCK_POINTS`` row-points (one row per block where a state
    has more).  ``add`` writes each state's data into one block buffer, in
    its own space.  ``rows`` transforms each row in the other space to the
    newest row's, contracts the block with that space's stack, moves the
    whole block to the other space in one transform and contracts it with
    the other stack.  The momentum copy gives the spins, p and the energy,
    the position copy r, the norm and the flux.  An energy that the momentum
    stack refuses (``LeafStack``: a time-dependent H, or scalars of both
    spaces) is an apply of H to each row's momentum copy (no Hamiltonian has
    a singular leaf, so that apply refuses no row).  A row's guard refusal
    is raised when ``rows`` reaches that row, after the rows before it."""

    def __init__(self, hamiltonian, grid):
        self.grid = grid
        self.spin = {k: spin_expr(k, hamiltonian.params) for k in SpinKind}
        self.r, self.p = triple(R), triple(P)
        # every column but the energy is one diagonal leaf named by its column;
        # "norm" and "flux" first hold the squared norm and the boundary-shell weight
        mom = [s for k in SpinKind for s in self.spin[k]] + self.p
        names = [leaf.name for leaf in mom]
        try:  # the energy: a stack entry where the stack takes it, else H is applied per row
            stack = LeafStack(mom + [hamiltonian.total], grid)
            names, self.energy = names + ["energy"], None
        except PreconditionError:
            stack, self.energy = LeafStack(mom, grid), hamiltonian.total
        pos = self.r + [ConstMatrix(ID4, name="norm"), PositionDiag(
            [(lambda g, t: g.boundary_shell_mask, ID4)], name="flux")]
        self.stacks = [(names, stack), ([leaf.name for leaf in pos], LeafStack(pos, grid))]
        self.block = np.empty((max(1, LeafStack.BLOCK_POINTS // grid.npoints), 4, *grid.shape),
                              dtype=complex)
        self.pending = []  # (t, space) of each row written into the block

    def add(self, t, psi):
        """Write the row of ``psi`` at ``t`` into the block; True when it is full."""
        self.block[len(self.pending)] = psi.data
        self.pending.append((t, psi.space))
        return len(self.pending) == len(self.block)

    def rows(self):
        """The rows of the block as dicts, in time order; the block is
        emptied when the first is taken."""
        pending, self.pending = self.pending, []
        if not pending:
            return
        times, axes = [t for t, _ in pending], _spatial_axes(self.grid.dim)
        block, space = self.block[:len(pending)], pending[-1][1]
        for row, (_, own) in zip(block, pending):
            if own != space:
                row[...] = _bare_fft(row, space, axes)
        found = {}
        for here in (space, POSITION if space == MOMENTUM else MOMENTUM):
            if here != space:  # the whole block to the other space
                block = _bare_fft(block, here, tuple(a + 1 for a in axes))
            names, stack = self.stacks[here == POSITION]
            values, refusals = stack.contract(block, OBSERVABLE_GUARD)
            found[here] = names, values.real.tolist(), refusals
            if here == MOMENTUM and self.energy is not None:
                energies = [float(np.real(expectation(
                    self.energy, SpinorField(self.grid, data, MOMENTUM, folded=True), t,
                    guard=OBSERVABLE_GUARD))) for data, t in zip(block, times)]
        (names, mom, refusals), (pos_names, pos, _) = found[MOMENTUM], found[POSITION]
        for i, t in enumerate(times):
            if refusals[i] is not None:
                raise refusals[i]
            row = dict(zip(names, mom[i]), t=t)
            if self.energy is not None:
                row["energy"] = energies[i]
            row.update(zip(pos_names, pos[i]))
            total = row["norm"]
            row.update(norm=np.sqrt(total), flux=row["flux"] / total if total > 0 else 0.0)
            yield row

    def measure(self, psi, t):
        """The row of ``psi`` at ``t``: a block of one."""
        self.add(t, psi)
        return next(self.rows())


def run(hamiltonian: NamedHamiltonian, state: SpinorField, dt: float,
        steps: int, stride: int = 1, t0: float = 0.0,
        propagator: str | None = None, krylov_tol: float = KRYLOV_TOL) -> Trajectory:
    """Propagate and record observables at t0, every ``stride`` steps and
    after the last: one row per state that ``_evolve`` yields, measured in
    blocks (``_Observables``) and recorded in time order.

    Aborts with :class:`BoundaryFluxError` when the margin-shell norm
    fraction of a row after the first exceeds ``FLUX_ABORT``.  Where a
    step raises, the rows before it are recorded first, so a flux abort
    among them is what the run reports.
    """
    obs = _Observables(hamiltonian, state.grid)
    traj = Trajectory()

    def record():
        for row in obs.rows():
            if traj.rows and row["flux"] > FLUX_ABORT:
                raise BoundaryFluxError(
                    f"boundary flux {row['flux']:.3e} exceeded {FLUX_ABORT:.1e} "
                    f"at t={row['t']:.6g}; enlarge the box or shorten the run")
            traj.append(**row)

    try:
        for t, psi in _evolve(hamiltonian, state, dt, steps, stride, t0, propagator, krylov_tol):
            if obs.add(t, psi):
                record()
    finally:
        record()
    return traj


def ehrenfest_residual(kind: SpinKind, hamiltonian: NamedHamiltonian,
                       state: SpinorField, dt: float, steps: int,
                       t0: float = 0.0, propagator: str | None = None,
                       krylov_tol: float = KRYLOV_TOL):
    """|centered-difference d<S>/dt - <(1/i)[S, H]>| per component, sampled
    at every interior step of ``run``'s time loop at stride 1 (``_evolve``).

    <(1/i)[S, H]> is read as 2 Im <S psi, H psi>: for a Hermitian S this is
    d<S>/dt under i dpsi/dt = H psi whether H is Hermitian or not, so the
    identity closes for the printed non-Hermitian forms too.
    """
    s_triple = spin_expr(kind, hamiltonian.params)
    times, svals, gvals = [], [], []
    for t, psi in _evolve(hamiltonian, state, dt, steps, 1, t0, propagator, krylov_tol):
        h_psi = apply_expr(hamiltonian.total, psi, t, OBSERVABLE_GUARD)
        s_psi = [apply_expr(s, psi, t, OBSERVABLE_GUARD) for s in s_triple]
        svals.append([float(np.real(psi.inner(sp))) for sp in s_psi])
        gvals.append([2.0 * float(np.imag(sp.inner(h_psi))) for sp in s_psi])
        times.append(t)

    times = np.array(times)
    svals = np.array(svals)
    gvals = np.array(gvals)
    deriv = (svals[2:] - svals[:-2]) / (2 * dt)
    residual = np.abs(deriv - gvals[1:-1])
    return {"t": times[1:-1], "residual": residual,
            "spin": svals, "commutator": gvals}
