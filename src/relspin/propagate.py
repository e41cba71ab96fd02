"""Time evolution of spinor fields and trajectory observables.

Three steps:

* ``strang_step_dirac`` -- exact-factor Strang splitting for the minimally
  coupled Dirac Hamiltonian.  Each factor is exp(-i tau X) for an X with
  X^2 = s^2 at every point, so one closed form, cos(tau s) - i sin(tau s)/s X
  as ``grid.pointwise`` terms, serves both: X = c alpha.k + beta m0 c^2 with
  s = E_k, and X = -ec alpha.A with s = |ec A| (times the phase of e phi).
  Each step is a product of unitaries; global observable error is O(dt^2).
  Without potentials a step is the kinetic factor alone, in momentum space.
* ``krylov_step`` -- Arnoldi projection of exp(-i H dt) for Hamiltonians
  that mix position and momentum factors and admit no exact split.
  Time-dependent coefficients are sampled at the midpoint, keeping second
  order.  The basis is kept as the rows of one array that grows as rows are
  needed, and the step is one product of the projected solution with it.
* the exact step of a constant Hamiltonian -- when H at the midpoint is one
  4x4 matrix M (``expr.constant_matrix``), exp(-i dt M) applied pointwise in
  the state's own space, over its nonzero entries (four for a diagonal one):
  no transform, and no Krylov space of at most 4 rows.

By default a split family (``hamiltonians.FAMILIES``) takes Strang steps and
any other the constant step where it applies, a Krylov step else;
``propagator="krylov"`` forces Krylov steps, and no other value is accepted.

A run makes one stepper call per row after the first.  An exact step (Strang
without potentials, the constant step under a static model) takes the n steps
since the last row as one of n dt, as exp(-i n dt H) = exp(-i dt H)^n.

Trajectories record the three spin expectations, norm, energy, <r>, <p> and a
boundary-flux diagnostic at a configurable stride; the run aborts when flux
into the margin shell exceeds the documented limit.  A row costs one
transform of the state, and each space's columns, the norm, the flux and
the Pryce zero-mode guard are one contraction of its density
(``expr.LeafStack``); so is the energy where H is a sum of static leaves,
each momentum-diagonal or constant, and any other H is applied.  CSV
column order is frozen (see ``Trajectory.CSV_COLUMNS``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg

from .errors import BoundaryFluxError, KrylovConvergenceError, PreconditionError
from .algebra import ID4
from .expr import ConstMatrix, LeafStack, PositionDiag, apply_expr, constant_matrix, expectation
from .fields import FieldModel
from .grid import (_ALPHA_ENTRIES, _ID_ENTRIES, MOMENTUM, GridSpec, SpinorField,
                   free_dirac_terms, matrix_entries, pointwise)
from .hamiltonians import FAMILIES, P, R, NamedHamiltonian, triple
from .operators import PhysParams, SpinKind, energy_k2
from .dynamics import spin_expr

__all__ = [
    "strang_step_dirac", "krylov_step", "run", "ehrenfest_residual",
    "Trajectory", "choose_propagator",
]


def _exp_factors(tau, s):
    """cos(tau s) and sin(tau s)/s, the latter tau where s -> 0."""
    small = s < 1e-14
    return np.cos(tau * s), np.where(small, tau, np.sin(tau * s) / np.where(small, 1.0, s))


def _exp_terms(cos, sinc, x_terms):
    """exp(-i tau X) = cos(tau s) - i sin(tau s)/s X as ``pointwise`` terms, for
    X = sum_j M_j f_j (the terms ``x_terms``) with X^2 = s^2 at every point,
    from cos(tau s) and sin(tau s)/s (``_exp_factors``)."""
    return [(_ID_ENTRIES, cos)] + [(entries, -1j * f * sinc) for entries, f in x_terms]


def _position_half_step(model: FieldModel, params: PhysParams, grid: GridSpec,
                        tau: float, t: float):
    """exp(-i tau (-ec alpha.A(r,t) + e phi(r,t))), as a function that applies
    it pointwise to a field; both half steps of a Strang step use one.  With
    u = -ec A it is exp(-i tau alpha.u) (X = alpha.u, s = |u|) times the phase
    exp(-i tau e phi), every factor kept at its mesh's broadcast shape."""
    u = [np.asarray(-params.e * params.c * a, dtype=float) for a in model.a_mesh(grid.r, t)]
    live = [(entries, ui) for entries, ui in zip(_ALPHA_ENTRIES, u) if np.any(ui)]
    terms = _exp_terms(*_exp_factors(tau, np.sqrt(sum(ui**2 for _, ui in live))), live)
    if model.has_scalar_potential:
        phase = np.exp(-1j * tau * params.e * np.asarray(model.phi_mesh(grid.r, t)))
        terms = [(entries, f * phase) for entries, f in terms]

    def half_step(field: SpinorField) -> SpinorField:
        pos = field.to_position()
        return pos.with_data(pointwise(pos.data, terms))
    return half_step


@functools.lru_cache(maxsize=4)
def _kinetic_factors(grid: GridSpec, params: PhysParams, dt: float):
    """The kinetic factor's ``_exp_factors``, s = E_k: two real arrays."""
    return _exp_factors(dt, energy_k2(grid.k2, params))


def strang_step_dirac(field: SpinorField, model: FieldModel, params: PhysParams,
                      t: float, dt: float) -> SpinorField:
    """One second-order split step for c alpha.(p-eA) + beta m0 c^2 + e phi.

    Potentials are sampled at the interval midpoint; every factor is an exact
    unitary, so norm drift is pure roundoff.  Without potentials the identity
    position factor is skipped, and the result stays in momentum space.
    """
    if not dt > 0 and not dt < 0:
        raise PreconditionError("dt must be nonzero")
    tm = t + dt / 2.0
    potentials = model.has_vector_potential or model.has_scalar_potential
    if potentials:
        half_step = _position_half_step(model, params, field.grid, dt / 2.0, tm)
        field = half_step(field)
    grid, mom = field.grid, field.to_momentum()
    out = mom.with_data(pointwise(mom.data, _exp_terms(*_kinetic_factors(grid, params, dt),
                                                       free_dirac_terms(grid, params))))
    if potentials:
        out = half_step(out)
    if not np.isfinite(out.data).all():
        raise FloatingPointError("Strang step produced non-finite values")
    return out


def _norm(v):
    return np.sqrt(np.vdot(v, v).real)


def _exp_minus_idt(h: np.ndarray, dt: float, hermitian: bool) -> np.ndarray:
    """exp(-i dt h), h symmetrized first when trusted to be ``hermitian``."""
    if hermitian:
        h = 0.5 * (h + h.conj().T)
    return scipy.linalg.expm(-1j * dt * h)


def krylov_step(hamiltonian: NamedHamiltonian, field: SpinorField, t: float,
                dt: float, m: int = 40, tol: float = 1e-10) -> SpinorField:
    """Approximate exp(-i H(t + dt/2) dt) psi in an m-dimensional Krylov space.

    Builds the basis by the Arnoldi recursion; for a trusted-Hermitian
    Hamiltonian the projected matrix is symmetrized, so the step is exactly
    unitary.  The basis vectors are the rows of one array, as in Expokit
    (Sidje, ACM TOMS 24, 1998).  It doubles its rows when full, so a step
    that converges early never holds the m rows a capped one may need, and
    the result is one product of the projected solution with those rows.
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
            h = hess[i, j] = np.vdot(basis[i], w)
            w -= h * basis[i]
        nrm = _norm(w)
        hess[j + 1, j] = nrm
        used = j + 1
        happy = nrm <= 1e-14 * beta0
        if happy or used >= 8 or used == m:
            e1 = np.zeros(used, dtype=complex)
            e1[0] = 1.0
            y = _exp_minus_idt(hess[:used, :used], dt, hamiltonian.assume_hermitian) @ e1
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

    out = beta0 * (y @ basis[:used])
    result = field.with_data(out.reshape(4, *grid.shape))
    if not np.isfinite(result.data).all():
        raise FloatingPointError("Krylov step produced non-finite values")
    return result


def choose_propagator(hamiltonian: NamedHamiltonian) -> str:
    """Strang for a family that it splits exactly, Krylov else."""
    return "strang" if FAMILIES[hamiltonian.family].split else "krylov"


def _stepper(hamiltonian, propagator, krylov_tol):
    """``step(psi, t0, dt, steps=range(1))``: psi advanced over the steps
    numbered ``steps`` (a nonempty range), step s from t0 + s dt, by Krylov
    steps where ``propagator`` is "krylov", by the default ones where it is
    None; an exact step takes the whole range as one step of n dt (see the
    module docstring), any other runs n times.

    By default a split family takes Strang steps, and any other takes the
    exact step where its Hamiltonian at the midpoint is one constant matrix,
    a Krylov step else; U, or the finding that there is none, is kept per
    (grid, step size), and per midpoint under a time-dependent model.
    """
    if propagator not in (None, "krylov"):
        raise PreconditionError(f"propagator must be None or 'krylov', got {propagator!r}")
    model = hamiltonian.model
    strang = propagator is None and choose_propagator(hamiltonian) == "strang"
    slot = [None, None]  # the key and value of the one kept U

    def exp_constant(grid, t, dt):
        key = (grid, dt, t + dt / 2.0 if model.time_dependent else None)
        if slot[0] != key:
            m = constant_matrix(hamiltonian.total, grid, t + dt / 2.0)
            slot[:] = key, m if m is None else matrix_entries(
                _exp_minus_idt(m, dt, hamiltonian.assume_hermitian))
        return slot[1]

    def one(psi, t, dt):
        if strang:
            return strang_step_dirac(psi, model, hamiltonian.params, t, dt)
        if propagator == "krylov" or exp_constant(psi.grid, t, dt) is None:
            return krylov_step(hamiltonian, psi, t, dt, tol=krylov_tol)
        out = psi.with_data(pointwise(psi.data, [(slot[1], 1.0)]))
        if not np.isfinite(out.data).all():
            raise FloatingPointError("constant-Hamiltonian step produced non-finite values")
        return out

    def exact(grid, t, dt):
        if strang:
            return not (model.has_vector_potential or model.has_scalar_potential)
        return (propagator != "krylov" and not model.time_dependent
                and exp_constant(grid, t, dt) is not None)

    def step(psi, t0, dt, steps=range(1)):
        if exact(psi.grid, t0 + steps[0] * dt, len(steps) * dt):
            return one(psi, t0 + steps[0] * dt, len(steps) * dt)
        for s in steps:
            psi = one(psi, t0 + s * dt, dt)
        return psi
    return step


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
    def __init__(self, params):
        self.spin = {k: spin_expr(k, params) for k in SpinKind}
        self.r, self.p = triple(R), triple(P)
        # every column but the energy is one diagonal leaf; "norm" and "flux"
        # first hold the squared norm and the weight in the boundary shell
        labels = {SpinKind.DIRAC: "S_D", SpinKind.FW: "S_FW", SpinKind.PRYCE: "S_Py"}
        mom = [(f"{labels[k]}_{ax}", s) for k in SpinKind for ax, s in zip("xyz", self.spin[k])]
        mom += [(f"p_{ax}", p) for ax, p in zip("xyz", self.p)]
        pos = [(f"r_{ax}", r) for ax, r in zip("xyz", self.r)] + [
            ("norm", ConstMatrix(ID4)),
            ("flux", PositionDiag([(lambda g, t: g.boundary_shell_mask, ID4)]))]
        self._mom = [leaf for _, leaf in mom]
        self.stacks = [([n for n, _ in obs], LeafStack(leaf for _, leaf in obs))
                       for obs in (mom, pos)]
        self._energy = (None, None, None)  # H, grid and the momentum stack with H

    def measure(self, hamiltonian, psi, t):
        """One row: one density contraction per space (``LeafStack``), the
        position copy of psi for r, the norm and the flux, the momentum copy
        for the rest, the energy too where H admits it, else an apply of H."""
        pos, mom = psi.to_position(), psi.to_momentum()
        (names, stack), (pos_names, pos_stack) = self.stacks
        if self._energy[0] is not hamiltonian or self._energy[1] != psi.grid:
            joins = LeafStack.admits(hamiltonian.total, MOMENTUM, psi.grid)
            self._energy = (hamiltonian, psi.grid,
                            LeafStack(self._mom + [hamiltonian.total]) if joins else None)
        values = (self._energy[2] or stack).expectations(mom, OBSERVABLE_GUARD).real.tolist()
        out = dict(zip(names + ["energy"], values), t=t)
        if self._energy[2] is None:
            out["energy"] = float(np.real(expectation(hamiltonian.total, mom, t,
                                                      guard=OBSERVABLE_GUARD)))
        out.update(zip(pos_names, pos_stack.expectations(pos).real.tolist()))
        total = out["norm"]
        out.update(norm=np.sqrt(total), flux=out["flux"] / total if total > 0 else 0.0)
        return out


def run(hamiltonian: NamedHamiltonian, state: SpinorField, dt: float,
        steps: int, stride: int = 1, t0: float = 0.0,
        propagator: str | None = None, krylov_tol: float = 1e-10) -> Trajectory:
    """Propagate and record observables every ``stride`` steps, and after
    the last; the steps between two rows are one call to the stepper.

    Aborts with :class:`BoundaryFluxError` when the margin-shell norm
    fraction exceeds ``FLUX_ABORT``.
    """
    if steps < 0 or stride < 1:
        raise PreconditionError("steps must be >= 0 and stride >= 1")
    step_fn = _stepper(hamiltonian, propagator, krylov_tol)
    obs = _Observables(hamiltonian.params)
    traj = Trajectory()
    psi = state
    traj.append(**obs.measure(hamiltonian, psi, t0))
    for done in range(0, steps, stride):
        last = min(done + stride, steps)
        psi = step_fn(psi, t0, dt, range(done, last))
        t = t0 + last * dt
        row = obs.measure(hamiltonian, psi, t)
        if row["flux"] > FLUX_ABORT:
            raise BoundaryFluxError(
                f"boundary flux {row['flux']:.3e} exceeded {FLUX_ABORT:.1e} "
                f"at t={t:.6g}; enlarge the box or shorten the run")
        traj.append(**row)
    return traj


def ehrenfest_residual(kind: SpinKind, hamiltonian: NamedHamiltonian,
                       state: SpinorField, dt: float, steps: int,
                       t0: float = 0.0, propagator: str | None = None,
                       krylov_tol: float = 1e-12):
    """|centered-difference d<S>/dt - <(1/i)[S, H]>| per component, sampled
    at every interior step.

    <(1/i)[S, H]> is read as 2 Im <S psi, H psi>: for a Hermitian S this is
    d<S>/dt under i dpsi/dt = H psi whether H is Hermitian or not, so the
    identity closes for the printed non-Hermitian forms too.
    """
    step_fn = _stepper(hamiltonian, propagator, krylov_tol)
    s_triple = spin_expr(kind, hamiltonian.params)
    times, svals, gvals = [], [], []
    psi = state
    t = t0
    for step in range(steps + 1):
        h_psi = apply_expr(hamiltonian.total, psi, t, OBSERVABLE_GUARD)
        s_psi = [apply_expr(s, psi, t, OBSERVABLE_GUARD) for s in s_triple]
        svals.append([float(np.real(psi.inner(sp))) for sp in s_psi])
        gvals.append([2.0 * float(np.imag(sp.inner(h_psi))) for sp in s_psi])
        times.append(t)
        if step == steps:
            break
        psi = step_fn(psi, t, dt)
        t = t0 + (step + 1) * dt

    times = np.array(times)
    svals = np.array(svals)
    gvals = np.array(gvals)
    deriv = (svals[2:] - svals[:-2]) / (2 * dt)
    residual = np.abs(deriv - gvals[1:-1])
    return {"t": times[1:-1], "residual": residual,
            "spin": svals, "commutator": gvals}
