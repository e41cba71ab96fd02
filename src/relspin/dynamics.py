"""Spin-dynamics verification: printed equations vs. commutator ground truth.

For each spin kind S and Hamiltonian H the left-hand side is always computed
as (1/i)[S_i, H] applied to test states -- never from any published
right-hand side -- so a failed comparison indicts the printed equation, not
the harness.  The right-hand sides are transcribed term-for-term with
operator products ordered exactly as written (no symmetrization, no repair),
in the vector vocabulary of ``hamiltonians`` (``triple``, ``cross``, ``dot``,
``prefix``, ``vec_leaf`` ...), and this module builds no leaf of its own
beyond the S and R tables and its momentum scalars (1/E, 1/EW, 1/p^2, p^2).
E_k, each distinct S and R coefficient and each model mesh are pooled
(``expr.pooled``): every leaf that reads one holds one array.

Checks classify as:

* ``holds``            residual at or below the identity tolerance,
* ``converging``       residual decreases under grid refinement,
* ``non-converging``   residual stalls at a finite value: a documented
                       finding about the printed equation.

Residuals are relative to the pre-cancellation commutator scale
(|S H psi| + |H S psi|); normalizing by the cancelled result itself would
make every exactly-zero identity read as O(1) roundoff noise.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .algebra import ID4, levi_civita_pairs
from .errors import PreconditionError
from .expr import (Add, ConstMatrix, MomentumDiag, Mul, Scale, _one, _reduced, apply_expr,
                   block_parity, compiled, pooled)
from .fields import FieldModel
from .grid import POLARIZATIONS, GridSpec, SpinorField, gaussian_packet, suppress_zero_mode
from .hamiltonians import (P, R, ModelVector, NamedHamiltonian, add, build_free_dirac,
                           const_triple, cross, dot, kinetic_triple, prefix, scale,
                           triple, vec_leaf)
from .operators import (ALPHA, BETA, SIGMA, PhysParams, SpinKind, _inv_ew, energy_k2,
                        position_terms, spin_terms)

__all__ = [
    "spin_expr", "position_correction_expr", "rhs", "verify", "verify_residual",
    "total_j_identity", "positive_energy_part", "standard_battery", "battery_states",
    "ResidualReport", "classify_residual_series",
    "HOLD_TOL", "VERIFY_GUARD",
]

HOLD_TOL = 1e-8
_EPS_FLOOR = 1e-14

_ZERO44 = np.zeros((4, 4), dtype=complex)
_AXES = "xyz"


# ---------------------------------------------------------------------------
# momentum-space scalar producers
# ---------------------------------------------------------------------------

def _energy(grid, params):
    """E_k, pooled: one mesh for every FW leaf of one (grid, params)."""
    return pooled("E_k", grid, params, lambda: energy_k2(grid.k2, params))


def _mom_scalar(fn, name=None, singular=False):
    return MomentumDiag([(fn, ID4)], name=name, singular_origin=singular)


# ---------------------------------------------------------------------------
# spin operators and position corrections as momentum-diagonal expressions
# ---------------------------------------------------------------------------

_LABELS = {SpinKind.DIRAC: "D", SpinKind.FW: "FW", SpinKind.PRYCE: "Py"}


def _grid_leaves(table, kind, params, label):
    """Wrap an ``operators`` S or R table in grid leaves.  A component whose
    pairs are all constant is a constant leaf, which acts without a
    transform in either space.  Each coefficient is pooled under itself (one
    object per distinct coefficient of a table), so it is one array, an
    all-zero one (a k_y or k_z coefficient on a 1D grid) a 0-d zero."""
    singular = kind is SpinKind.PRYCE
    # the kind's derived scalar (see operators); Dirac reads none
    x = (lambda g: g.inv_k2) if singular else (lambda g: _energy(g, params))
    out = []
    for axis, pairs in zip(_AXES, table):
        leaf = [(_one if coeff is None else (lambda g, t, f=coeff: pooled(
            f, g, None, lambda: _reduced(f(g.k, g.k2, x(g))))), m) for coeff, m in pairs]
        out.append(MomentumDiag(leaf, name=f"{label}_{axis}", singular_origin=singular))
    return out


def spin_expr(kind: SpinKind, params: PhysParams):
    """The spin operator as a triple of momentum-diagonal expressions,
    componentwise equal to ``operators.spin_operator`` at every lattice k."""
    return _grid_leaves(spin_terms(kind, params), kind, params, f"S_{_LABELS[kind]}")


def position_correction_expr(kind: SpinKind, params: PhysParams):
    """Momentum-diagonal correction R(p) with r_kind = r + R(p), fixed by the
    exact identity R x p + S_kind = Sigma/2."""
    return _grid_leaves(position_terms(kind, params), kind, params, f"R_{_LABELS[kind]}")


# ---------------------------------------------------------------------------
# printed right-hand sides
# ---------------------------------------------------------------------------

def _require_uniform_gauge(model):
    if not model.uniform_b:
        raise PreconditionError(
            "the printed dynamics equations assume a uniform (slowly varying) "
            "magnetic field in the symmetric gauge; got a non-uniform model")
    if model.has_scalar_potential:
        raise PreconditionError(
            "the printed dynamics equations assume a vanishing scalar potential")


def rhs(kind: SpinKind, family: str, model: FieldModel, params: PhysParams):
    """Printed dynamics right-hand side for d<S>/dt under the given
    Hamiltonian family.  Returns ``(terms, total)`` where ``terms`` is a list
    of (name, component-triple) mirroring the printed equation term-for-term
    and ``total`` is their sum (a zero triple for constants of motion).
    """
    if family == "free":
        if kind is SpinKind.DIRAC:
            # -c (alpha x p)_i
            out = [vec_leaf(P, [(k, -params.c * e * ALPHA[j])
                                for j, k, e in levi_civita_pairs(i)], name=f"dSD_{_AXES[i]}")
                   for i in range(3)]
            terms = [("alpha-cross-momentum", out)]
            return terms, out
        # FW and Pryce spin operators are constants of the free motion
        return [], const_triple([_ZERO44] * 3)

    _require_uniform_gauge(model)
    if kind is SpinKind.DIRAC:
        raise PreconditionError(
            "no printed Dirac-spin dynamics equation exists for this family")

    if family == "dirac-em":
        return _rhs_em(kind, model, params)
    if family == "fw-direct":
        return _rhs_direct(kind, model, params)
    raise PreconditionError(f"no printed dynamics equation for family {family!r}")


def _rhs_em(kind, model, params):
    c, e = params.c, params.e
    p_t = triple(P)
    r_t = triple(R)
    alpha_t = const_triple(ALPHA)
    sigma_t = const_triple(SIGMA)
    b = ModelVector(model.b_mesh, "B")
    b_t = triple(b)

    # factors of the two gradient terms both kinds print
    alpha_dot_r = vec_leaf(R, enumerate(ALPHA), name="alpha.r")
    b_dot_p = dot(b_t, p_t)
    r_dot_p = dot(r_t, p_t)
    alpha_dot_b = vec_leaf(b, enumerate(ALPHA), name="alpha.B")

    if kind is SpinKind.FW:
        pi_t = kinetic_triple(ModelVector(model.a_mesh, "A"), e)
        inv_ew = _mom_scalar(lambda g, t: _inv_ew(_energy(g, params), params), name="1/EW")
        p2_over_ew = _mom_scalar(lambda g, t: g.k2 * _inv_ew(_energy(g, params), params),
                                 name="p^2/EW")
        terms = [("alpha-cross-kinetic", scale(-c, cross(alpha_t, pi_t)))]
        terms.append(("beta-p-cross-kinetic",
                      prefix([ConstMatrix(BETA), _mom_scalar(
                          lambda g, t: c / _energy(g, params), name="c/E")],
                          cross(p_t, pi_t))))
        terms.append(("longitudinal-alpha-cross",
                      scale(c, prefix([p2_over_ew], cross(alpha_t, pi_t)))))
        terms.append(("alpha-r-gradient", scale(
            c * e, prefix([inv_ew, Scale(0.5, alpha_dot_r), b_dot_p], p_t))))
        terms.append(("alpha-b-gradient", scale(
            -c * e, prefix([inv_ew, Scale(0.5, r_dot_p), alpha_dot_b], p_t))))

        quarter = 0.25 * c * e
        b_cross_p = cross(b_t, p_t)
        sigma_dot_alpha = ConstMatrix(sum(SIGMA[j] @ ALPHA[j] for j in range(3)))
        alpha_dot_bxp = dot(alpha_t, b_cross_p)
        sigma_dot_pxalpha = dot(sigma_t, cross(p_t, alpha_t))
        sigma_dot_b = vec_leaf(b, enumerate(SIGMA), name="Sigma.B")
        terms.append(("sigma-alpha-field-cross", scale(
            quarter, prefix([inv_ew], [Mul(s, alpha_dot_bxp) for s in sigma_t]))))
        terms.append(("sigma-dot-alpha-cross", scale(
            quarter, prefix([inv_ew, sigma_dot_alpha], b_cross_p))))
        terms.append(("sigma-p-alpha-b", scale(
            -quarter, prefix([inv_ew], [Mul(sigma_dot_pxalpha, b_t[i])
                                        for i in range(3)]))))
        terms.append(("sigma-b-p-alpha", scale(
            -quarter, prefix([inv_ew, sigma_dot_b], cross(p_t, alpha_t)))))
        return terms, add([t for _, t in terms])

    # Pryce with the minimally coupled Dirac Hamiltonian
    inv_p2 = _mom_scalar(lambda g, t: g.inv_k2, name="1/p^2", singular=True)
    alpha_dot_p = vec_leaf(P, enumerate(ALPHA), name="alpha.p")
    sxb = cross(sigma_t, b_t)
    terms = [("sigma-cross-b-alpha-p", scale(
        0.25 * e * c, prefix([inv_p2], [Mul(sxb[i], alpha_dot_p) for i in range(3)])))]
    terms.append(("alpha-r-gradient", scale(
        0.5 * e * c, prefix([inv_p2, alpha_dot_r, b_dot_p], p_t))))
    terms.append(("r-p-alpha-b", scale(
        -0.5 * e * c, prefix([inv_p2, r_dot_p, alpha_dot_b], p_t))))
    return terms, add([t for _, t in terms])


def _rhs_direct(kind, model, params):
    c, e, m0 = params.c, params.e, params.m0
    p_t = triple(P)
    l_t = cross(triple(R), p_t)
    alpha_t = const_triple(ALPHA)
    sigma_t = const_triple(SIGMA)
    beta_c = ConstMatrix(BETA)
    bdot = ModelVector(model.dbdt_mesh, "dB/dt")
    b_t, bdot_t = triple(ModelVector(model.b_mesh, "B")), triple(bdot)
    bddot_t = triple(ModelVector(model.d2bdt2_mesh, "d2B/dt2"))
    e_t = triple(ModelVector(model.e_mesh, "E"))

    pref_soc = e / (4 * m0**2 * c**2)
    pref_bdot = e / (8 * m0**2 * c**2)
    pref_nut = e / (16 * m0**3 * c**4)

    if kind is SpinKind.FW:
        inv_e = _mom_scalar(lambda g, t: 1.0 / _energy(g, params), name="1/E")
        inv_ew = _mom_scalar(lambda g, t: _inv_ew(_energy(g, params), params), name="1/EW")
        sigma_dot_alpha = ConstMatrix(sum(SIGMA[j] @ ALPHA[j] for j in range(3)))
        pxalpha_t = cross(p_t, alpha_t)
        exp_t = cross(e_t, p_t)
        terms = [("zeeman-precession", scale(e / (2 * m0), prefix([beta_c], cross(sigma_t, b_t))))]

        p2_leaf = _mom_scalar(lambda g, t: np.array(g.k2, dtype=float), name="p^2")
        kin_scalar = Add([p2_leaf, Scale(-e, dot(b_t, l_t))])
        terms.append(("kinetic-coupling", prefix(
            [inv_e], scale(1.0 / (2 * m0),
                           [Mul(pxalpha_t[i], kin_scalar) for i in range(3)]))))
        terms.append(("sigma-alpha-zeeman", prefix(
            [inv_e], scale(e / (6 * m0), prefix([sigma_dot_alpha], cross(b_t, p_t))))))
        terms.append(("zeeman-projection", scale(
            -e / (4 * m0),
            prefix([beta_c, inv_ew], cross(p_t, cross(cross(sigma_t, b_t), p_t))))))

        terms.append(("soc-precession", scale(
            pref_soc, cross(sigma_t, exp_t))))
        terms.append(("soc-offdiag", scale(
            pref_soc * 1j, prefix([inv_e], cross(pxalpha_t, exp_t)))))
        terms.append(("soc-projection", scale(
            -pref_soc, prefix([inv_ew], cross(p_t, cross(cross(sigma_t, exp_t), p_t))))))

        terms.append(("bdot-precession", scale(
            -1j * pref_bdot, cross(sigma_t, bdot_t))))
        terms.append(("bdot-offdiag", scale(
            -1j * pref_bdot * 1j, prefix([inv_e], cross(pxalpha_t, bdot_t)))))
        terms.append(("bdot-alpha-cross", scale(
            1j * pref_bdot * 0.5, prefix([inv_e], cross(alpha_t, cross(bdot_t, cross(sigma_t, p_t)))))))
        terms.append(("bdot-projection", scale(
            -1j * pref_bdot, prefix([inv_ew], cross(p_t, cross(cross(sigma_t, bdot_t), p_t))))))

        terms.append(("nutation-precession", scale(
            -pref_nut, prefix([beta_c], cross(sigma_t, bddot_t)))))
        terms.append(("nutation-offdiag", scale(
            -pref_nut / 3.0, prefix([inv_e, sigma_dot_alpha], cross(bddot_t, p_t)))))
        terms.append(("nutation-projection", scale(
            -pref_nut, prefix([beta_c, inv_ew], cross(p_t, cross(cross(sigma_t, bddot_t), p_t))))))
        return terms, add([t for _, t in terms])

    # Pryce with the direct spin-field Hamiltonian
    lower = ID4 - BETA
    beta_lower = ConstMatrix(BETA @ lower)
    lower_c = ConstMatrix(lower)
    inv_p2 = _mom_scalar(lambda g, t: g.inv_k2, name="1/p^2", singular=True)
    sxbdot_t = cross(sigma_t, bdot_t)
    sxbddot_t = cross(sigma_t, bddot_t)
    sigma_dot_p = vec_leaf(P, enumerate(SIGMA), name="Sigma.p")

    terms = [("zeeman-precession", scale(e / (2 * m0), cross(sigma_t, b_t)))]
    terms.append(("zeeman-projection", scale(
        e / (4 * m0), prefix([beta_lower, inv_p2],
                             cross(sigma_t, cross(p_t, cross(b_t, p_t)))))))
    terms.append(("soc-precession", scale(
        pref_soc, prefix([beta_c], cross(sigma_t, cross(e_t, p_t))))))

    sigma_dot_bdot = vec_leaf(bdot, enumerate(SIGMA), name="Sigma.dB/dt")
    bdot_dot_p = dot(bdot_t, p_t)

    terms.append(("bdot-spin-spin", scale(
        pref_bdot, prefix([lower_c, inv_p2, sigma_dot_p, sigma_dot_bdot], p_t))))
    terms.append(("bdot-spin-orbital", scale(
        -pref_bdot, prefix([lower_c, inv_p2, sigma_dot_p, dot(bdot_t, l_t)], p_t))))
    sym = [Scale(0.5, Add([Scale(3.0, p), Mul(sigma_dot_p, s)])) for p, s in zip(p_t, sigma_t)]
    terms.append(("bdot-symmetrized", scale(
        -pref_bdot, prefix([lower_c, inv_p2], [Mul(sym[i], bdot_dot_p)
                                               for i in range(3)]))))

    terms.append(("bdot-precession", scale(
        -1j * pref_bdot, prefix([beta_c], sxbdot_t))))
    sxbdot_dot_p = dot(sxbdot_t, p_t)
    terms.append(("bdot-projection", scale(
        -1j * pref_bdot, prefix([beta_c, beta_lower, inv_p2],
                                [Mul(sxbdot_dot_p, p) for p in p_t]))))

    terms.append(("nutation-precession", scale(-pref_nut, sxbddot_t)))
    sxbddot_dot_p = dot(sxbddot_t, p_t)
    terms.append(("nutation-projection", scale(
        -pref_nut, prefix([beta_lower, inv_p2], [Mul(sxbddot_dot_p, p) for p in p_t]))))
    return terms, add([t for _, t in terms])


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------

@dataclass
class VerifyCell:
    state: int
    axis: str
    residual: float
    lhs_norm: float
    rhs_norm: float
    scale: float
    term_norms: dict


@dataclass
class ResidualReport:
    """Everything the verifier measured for one (kind, Hamiltonian) pair."""

    kind: str
    family: str
    grid: dict
    params: dict
    model: dict
    time: float
    cells: list
    residual: float
    term_names: list
    classification: str | None = None
    refinement: list = dc_field(default_factory=list)
    term_classification: dict = dc_field(default_factory=dict)
    offending_term: str | None = None
    block_structure: dict = dc_field(default_factory=dict)
    #: term name -> largest removal gain ||diff + T|| - ||diff|| over the axes
    #: of state 0, with diff = LHS - RHS; not part of the serialised report
    removal_gains: dict = dc_field(default_factory=dict)

    def to_dict(self):
        doc = asdict(self)
        del doc["removal_gains"]
        doc["refinement"] = [{"n": n, "residual": r} for n, r in self.refinement]
        return dict(doc, schema="relspin-residual-report/1")

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, **kwargs)

    def table(self):
        lines = [f"check kind={self.kind} H={self.family}  residual={self.residual:.3e}"
                 f"  classification={self.classification or 'n/a'}"]
        for c in self.cells:
            lines.append(f"  state {c.state} {c.axis}: residual={c.residual:.3e} "
                         f"lhs={c.lhs_norm:.3e} rhs={c.rhs_norm:.3e}")
        if self.refinement:
            lines.append("  refinement: " + ", ".join(
                f"N={n}: {r:.3e}" for n, r in self.refinement))
        return "\n".join(lines)


#: The zero-mode guard of ``verify`` and ``total_j_identity``, looser than the
#: packet-level default on purpose: position factors (the sawtooth r) put
#: O(1e-6) of genuinely physical weight into the k = 0 bin of intermediate
#: fields, which the printed equations then route through their own
#: longitudinal 1/p^2 prefactors.  The zeroed-bin convention drops that
#: content consistently on every term, so the paired gradient terms still
#: cancel; the guard only needs to catch states whose zero-mode weight is
#: structural rather than leakage.
VERIFY_GUARD = 1e-4


def _lhs(s_i, h_total, psi, h_psi):
    """A cell's LHS (1/i)[S_i, H] psi, in S(H psi)'s field, and its scale
    ||S H psi|| + ||H S psi||; S psi dies before S H psi is made."""
    h_s = apply_expr(h_total, apply_expr(s_i, psi, guard=VERIFY_GUARD), guard=VERIFY_GUARD)
    s_h = apply_expr(s_i, h_psi, guard=VERIFY_GUARD)
    scale = s_h.norm() + h_s.norm()
    np.subtract(s_h.data, s_h.data_of(h_s), out=s_h.data)
    s_h.data *= -1j
    return s_h, scale


def _verify_cell(si, axis, s_i, h_total, rhs_i, psi, h_psi, terms, gains):
    """The (state ``si``, ``axis``) cell against ``rhs_i``, the compiled
    printed total, then each printed (name, triple) of ``terms`` applied once
    for its norm and, into a dict ``gains``, its largest removal gain.  A
    function of its own so that its fields die before the next cell's."""
    lhs, scale = _lhs(s_i, h_total, psi, h_psi)
    lhs_norm = lhs.norm()
    rhs_field = apply_expr(rhs_i, psi, guard=VERIFY_GUARD)
    rhs_norm = rhs_field.norm()
    np.subtract(lhs.data, lhs.data_of(rhs_field, consume=True), out=lhs.data)  # diff, in place
    del rhs_field
    base, term_norms = lhs.norm(), {}
    for name, triple in terms:
        term = apply_expr(triple[axis], psi, guard=VERIFY_GUARD)
        term_norms[name] = term.norm()
        if gains is not None:
            np.add(term.data, term.data_of(lhs), out=term.data)  # diff + term
            gains[name] = max(gains.get(name, -np.inf), term.norm() - base)
        del term  # not held while the next term applies
    residual = base / max(scale, rhs_norm, _EPS_FLOOR * psi.norm())
    return VerifyCell(si, _AXES[axis], residual, lhs_norm, rhs_norm, scale, term_norms)


def _cells(kind, hamiltonian, states, total, terms=(), gains=None):
    """(grid, ``_verify_cell``) of every state and axis, the states read once
    and in order: ``total``, the printed triple, is compiled on the first
    state's grid, where the printed tree dies, and ``gains`` are state 0's.
    A state and its H psi die before the next is read, so ``battery_states``
    are held one at a time.  A cell with a non-finite residual or norm (fields
    beyond the float range) raises PreconditionError: no report holds it."""
    s_triple, si = spin_expr(kind, hamiltonian.params), 0
    for psi in states:  # no enumerate: its result tuple holds a state while the next is made
        psi = psi.to_momentum()
        if si == 0:
            total = [compiled(r_i, psi.grid) for r_i in total]
        h_psi = apply_expr(hamiltonian.total, psi, guard=VERIFY_GUARD)
        for axis in range(3):
            cell = _verify_cell(si, axis, s_triple[axis], hamiltonian.total, total[axis],
                                psi, h_psi, terms, gains if si == 0 else None)
            if not np.isfinite([cell.residual, cell.lhs_norm, cell.rhs_norm, cell.scale,
                                *cell.term_norms.values()]).all():
                raise PreconditionError(
                    f"{kind.value}/{hamiltonian.family}: state {si} axis {cell.axis} has a "
                    f"non-finite residual or norm (residual {cell.residual}): the fields "
                    "overflow the float range")
            yield psi.grid, cell
        del psi, h_psi
        si += 1
    if si == 0:
        raise PreconditionError("no states to verify: the battery is empty")


def verify(kind: SpinKind, hamiltonian: NamedHamiltonian, states) -> ResidualReport:
    """Measure ||(1/i)[S_i, H] psi - RHS_i psi|| per component and state, at
    t = 0 and under ``VERIFY_GUARD``, RHS_i the printed total compiled on the
    states' grid (``expr.compiled``: its 1/p^2 guards the terms' sum).

    The residual is relative: ||LHS - RHS|| / max(scale, ||RHS||, eps) with
    scale = ||S(H psi)|| + ||H(S psi)|| and eps = 1e-14 ||psi||.

    Each printed term T is then applied once per cell for its norm, and for
    state 0 ranked by its removal gain ||diff + T|| - ||diff|| (diff = LHS -
    RHS), the largest over the axes, in ``removal_gains``: the term whose
    removal shrinks the defect the most has the largest gain.  A refinement
    rung needs only the residual, which ``verify_residual`` gives.

    Each state is moved to momentum space once, before any apply, so the
    momentum-diagonal leaves (S, p_i, alpha.p, 1/p^2) act without a
    transform and only the position leaves pay for one.  Every reported
    value is a norm of a field or of a difference of fields, and the
    transform is unitary with the dx^d weight in both spaces, so the report
    does not depend on the space the states arrive in beyond roundoff.

    ``states`` may be any nonempty iterable (such as ``battery_states``):
    they are read once, in order, and the report's grid is that of the states.
    """
    params = hamiltonian.params
    terms, total = rhs(kind, hamiltonian.family, hamiltonian.model, params)
    gains, cells = {}, []
    for grid, cell in _cells(kind, hamiltonian, states, total, terms, gains):
        cells.append(cell)
    worst = max(c.residual for c in cells)
    report = ResidualReport(
        kind=kind.value, family=hamiltonian.family,
        grid={"dim": grid.dim, "n": list(grid.n), "lengths": list(grid.lengths)},
        params={"m0": params.m0, "c": params.c, "e": params.e},
        model=hamiltonian.model.describe(),
        time=0.0, cells=cells, residual=worst,
        term_names=[n for n, _ in terms],
        block_structure={name: block_parity(Add(list(triple)), grid) for name, triple in terms},
        removal_gains=gains,
    )
    if worst <= HOLD_TOL:
        report.classification = "holds"
        report.term_classification = {n: "holds" for n, _ in terms}
    return report


def verify_residual(kind: SpinKind, hamiltonian: NamedHamiltonian, states) -> float:
    """``verify``'s residual, for a refinement rung: the largest residual of
    the same cells, with no printed term applied on its own."""
    return max(cell.residual for _, cell in _cells(kind, hamiltonian, states, rhs(
        kind, hamiltonian.family, hamiltonian.model, hamiltonian.params)[1]))


def classify_residual_series(residuals) -> str:
    """Classify a coarse-to-fine residual series."""
    if not residuals:
        return "non-converging"
    finest = residuals[-1]
    if finest <= HOLD_TOL:
        return "holds"
    if len(residuals) >= 2 and finest <= 0.5 * residuals[0]:
        return "converging"
    return "non-converging"


def total_j_identity(kind: SpinKind, states, params: PhysParams):
    """Per-component residual of (r_kind x p + S_kind) psi = (r x p + Sigma/2) psi,
    normalized by ||psi||, maximized over the given states, at t = 0.  The
    zero-mode guard is ``verify``'s, so any state ``verify`` accepts is
    accepted here.

    With r_kind = r + R, r x p is on both sides: the residual is that of
    (R x p + S_kind - Sigma/2) psi, whose leaves act on the states in momentum
    space without a transform, and a norm, so the states' space matters only to roundoff."""
    r_corr_x_p = cross(position_correction_expr(kind, params), triple(P))
    defect = [Add([r_corr_x_p[i], s_i, ConstMatrix(-0.5 * SIGMA[i])])
              for i, s_i in enumerate(spin_expr(kind, params))]
    states = [psi.to_momentum() for psi in states]
    if not states:
        raise PreconditionError("no states to check: the battery is empty")
    return [max(apply_expr(d, psi, guard=VERIFY_GUARD).norm() / psi.norm() for psi in states)
            for d in defect]


# ---------------------------------------------------------------------------
# standard verification battery
# ---------------------------------------------------------------------------

def positive_energy_part(field: SpinorField, params: PhysParams) -> SpinorField:
    """(psi + H_free psi / E_k)/2 renormalized, in momentum space: the positive-energy
    part of ``field`` (Foldy & Wouthuysen, Phys. Rev. 78, 29 (1950)), H_free being
    the ``free`` family's leaf, which acts there without a transform."""
    mom = field.to_momentum()
    out = apply_expr(build_free_dirac(params).total, mom)
    out.data /= energy_k2(mom.grid.k2, params)  # a temporary: no E_k mesh outlives the call
    out.data += mom.data
    out.data *= 0.5
    return out.normalized()


class _Battery:
    """Battery states made from their specs as they are read: a sequence (so
    a caller may index it, as perfbench's tracer does) that holds none."""

    def __init__(self, specs):
        self.specs = specs

    def __getitem__(self, i):  # the packet dies with the call
        grid, params, sigma, k0, pol = self.specs[i]
        packet = gaussian_packet(grid, np.zeros(3), sigma, k0, pol)
        return suppress_zero_mode(positive_energy_part(packet, params))


def battery_states(grid: GridSpec, params: PhysParams, count: int | None = None):
    """``standard_battery``'s states as a ``_Battery``, every check run before
    any state is made: sigma >= 4 dx and each state's Nyquist bound."""
    if count is not None and count < 1:
        raise PreconditionError(f"a battery needs at least one state, got count={count}")
    mc = params.m0 * params.c
    sigma = grid.lengths[0] / (16.0 if grid.dim == 1 else 8.0)
    if sigma < 4.0 * max(grid.dx):
        raise PreconditionError(
            f"grid too coarse for the standard battery: sigma={sigma} "
            f"needs >= 4 dx = {4.0 * max(grid.dx)}")
    if grid.dim == 1:
        mags = [max(0.5 * mc, 6.5 / sigma), 1.0 * mc, 2.0 * mc]
        dirs = [np.array([1.0, 0.0, 0.0])] * 3
    else:
        mags = [max(1.0 * mc, 6.5 / sigma), 1.25 * mc]
        dirs = [np.array([1.0, 0.0, 0.0]),
                np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)]
    kmax = min(np.pi / dx for dx in grid.dx)
    pols = [POLARIZATIONS["up_z"], POLARIZATIONS["up_x"]]
    specs = []
    for i in range(count if count is not None else 6 if grid.dim == 1 else 2):
        pol, k0 = pols[i % 2], mags[i % len(mags)] * dirs[i % len(dirs)]
        if np.linalg.norm(k0) + 6.0 / (2 * sigma) > 0.85 * kmax:
            raise PreconditionError(
                "battery momentum too close to the lattice Nyquist bound; "
                "increase the grid resolution")
        specs.append((grid, params, sigma, k0, pol))
    return _Battery(specs)


def standard_battery(grid: GridSpec, params: PhysParams, count: int | None = None):
    """Deterministic battery of energy-projected Gaussian packets, as a list
    (``battery_states`` makes them one at a time): two polarizations times
    three mean momenta (one near m0 c).

    The width is tied to the box, not the lattice (L/16 in 1D with its large
    margins, L/8 in 3D where resolution is scarcer), so every rung of a
    refinement ladder sees the same physical states.  Packets get their k = 0
    bin stripped so operators with a momentum-origin singularity apply
    without guard violations.  The battery is fully deterministic.

    The states are returned in momentum space, where the stripping happens,
    with the k = 0 bin exactly zero.
    """
    return list(battery_states(grid, params, count))
