"""Assemble the three working Hamiltonians as named-term operator expressions.

Families and their term vocabularies (stable report strings):

``free``       single term ``free-dirac`` = c alpha.k + beta m0 c^2.
``dirac-em``   minimal coupling: ``kinetic-free`` (c alpha.p),
               ``gauge-coupling`` (-e c alpha.A), ``mass`` (beta m0 c^2),
               ``scalar`` (e phi).
``fw-full``    the expanded block-diagonalized Hamiltonian:
               ``rest-mass``             beta m0 c^2 (excluded by default)
               ``kinetic``               beta (p - eA)^2 / 2m0
               ``zeeman``                -(e/2m0) beta Sigma.B
               ``mass-correction``       -beta (p - eA)^4 / 8 m0^3 c^2
               ``kinetic-zeeman-cross``  +(e/8 m0^3 c^2) beta {(p-eA)^2, Sigma.B}
               ``b-squared``             -(e^2/8 m0^3 c^2) beta B^2
               ``darwin``                -(e/8 m0^2 c^2) div E
               ``spin-orbit``            +(e/8 m0^2 c^2) Sigma.[(p-eA) x E - E x (p-eA)]
               ``de-dt``                 -(i e/16 m0^3 c^4) beta Sigma.[(p-eA) x dE/dt + dE/dt x (p-eA)]
``fw-direct``  the direct spin-field restriction:
               ``kinetic``               beta (p - eA)^2 / 2m0
               ``zeeman``                -(e/2m0) beta Sigma.B
               ``field-derivative-soc``  -(e/8 m0^2 c^2) Sigma.[2 E x (p-eA) - i dB/dt]
               ``nutation``              +(e/16 m0^3 c^4) beta Sigma.d2B/dt2

Operator products are ordered exactly as written (left factor applied last).
With ``hermitize=True`` every term is replaced by its Hermitian part
(T + T^H)/2.  Note that for field models satisfying Faraday's law the
printed ``field-derivative-soc`` term is already Hermitian: the anti-Hermitian
part of Sigma.(E x (p-eA)) is (i/2) Sigma.dB/dt and cancels the explicit
-i dB/dt piece exactly, so hermitization is a numerical no-op here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import ID4, levi_civita_pairs
from .errors import PreconditionError
from .expr import (Add, Adjoint, ConstMatrix, MomentumDiag, Mul, OperatorExpr, PositionDiag,
                   Scale, _one)
from .fields import FieldModel
from .grid import GridSpec
from .operators import ALPHA, BETA, SIGMA, PhysParams

__all__ = [
    "NamedHamiltonian", "build_free_dirac", "build_dirac_em",
    "build_fw_full", "build_fw_direct",
    "momentum_component", "position_component", "kinetic_momentum", "field_dot",
]

FW_FULL_TERMS = ("rest-mass", "kinetic", "zeeman", "mass-correction",
                 "kinetic-zeeman-cross", "b-squared", "darwin",
                 "spin-orbit", "de-dt")
FW_DIRECT_TERMS = ("kinetic", "zeeman", "field-derivative-soc", "nutation")


@dataclass
class NamedHamiltonian:
    """A Hamiltonian split into named sub-terms; ``total`` is their sum."""

    family: str
    terms: list                     # [(name, OperatorExpr)]
    params: PhysParams
    model: FieldModel
    grid: GridSpec
    hermitized: bool = False
    #: the Krylov step symmetrizes its projected matrix when this is set
    assume_hermitian: bool = True

    @cached_property
    def total(self) -> OperatorExpr:
        return Add([expr for _, expr in self.terms])

    def term(self, name: str) -> OperatorExpr:
        for n, expr in self.terms:
            if n == name:
                return expr
        raise KeyError(f"{self.family} has no term {name!r}; "
                       f"available: {[n for n, _ in self.terms]}")

    def term_names(self):
        return [n for n, _ in self.terms]

    def subset(self, names) -> "NamedHamiltonian":
        """A new Hamiltonian keeping only the named terms (order preserved)."""
        names = list(names)
        unknown = set(names) - set(self.term_names())
        if unknown:
            raise PreconditionError(f"unknown term names {sorted(unknown)}")
        kept = [(n, e) for n, e in self.terms if n in names]
        return NamedHamiltonian(self.family, kept, self.params, self.model,
                                self.grid, self.hermitized, self.assume_hermitian)


# -- small expression builders -------------------------------------------------

def momentum_component(i: int) -> MomentumDiag:
    """k_i."""
    return MomentumDiag([(lambda g, t, i=i: g.k[i], ID4)], name=f"p_{'xyz'[i]}")


def position_component(i: int) -> PositionDiag:
    """r_i."""
    return PositionDiag([(lambda g, t, i=i: g.r[i], ID4)], name=f"r_{'xyz'[i]}")


def kinetic_momentum(model: FieldModel, params: PhysParams, i: int) -> OperatorExpr:
    """(p - eA)_i; a vanishing A_i is skipped when the sum is applied."""
    a_i = PositionDiag([(lambda g, t: model.a_mesh(g.r, t)[i], ID4)],
                       name=f"A_{'xyz'[i]}", time_dependent=model.time_dependent)
    return Add([momentum_component(i), Scale(-params.e, a_i)])


def _mesh_vec_leaf(mesh_fn, i, matrix):
    """matrix X_i, a position leaf for component i of a model mesh vector X."""
    return PositionDiag([(lambda g, t, i=i: mesh_fn(g.r, t)[i], matrix)],
                        time_dependent=mesh_fn.__self__.time_dependent)


def field_dot(mesh_fn, mats, prefactor=1.0, name=None) -> PositionDiag:
    """sum_j prefactor X_j mats[j] for a model mesh vector X such as B or
    dB/dt; a constant leaf when X is uniform.  ``mesh_fn`` is a bound
    ``*_mesh`` method, and the leaf refills at every t only when its model
    is time-dependent."""
    return PositionDiag(
        [(lambda g, t, j=j: prefactor * np.asarray(mesh_fn(g.r, t)[j]), mats[j])
         for j in range(3)],
        name=name, time_dependent=mesh_fn.__self__.time_dependent)


def _sigma_dot(mesh_fn, prefactor, beta_weighted: bool):
    """prefactor Sigma.X, or prefactor beta Sigma.X, for a mesh vector X."""
    return field_dot(mesh_fn, [BETA @ s if beta_weighted else s for s in SIGMA],
                     prefactor)


def _kinetic_triple(model, params):
    """The three (p - eA)_i, built once per Hamiltonian and shared by every
    term, so each A_i leaf fills once per t."""
    return [kinetic_momentum(model, params, i) for i in range(3)]


def _kinetic_squared(pi):
    """(p - eA)^2 = sum_i (p - eA)_i (p - eA)_i."""
    return Add([Mul(c, c) for c in pi])


def _cross_dot_sigma(pi, vec_mesh, reverse: bool = False):
    """Sigma.[X x (p-eA)] (reverse=False) or Sigma.[(p-eA) x X] (reverse=True)
    for a model mesh vector X, with products ordered exactly as written
    (the right factor acts first)."""
    out = []
    for i in range(3):
        for j, k, e in levi_civita_pairs(i):
            if reverse:
                left, right = pi[j], _mesh_vec_leaf(vec_mesh, k, e * SIGMA[i])
            else:
                left, right = _mesh_vec_leaf(vec_mesh, j, e * SIGMA[i]), pi[k]
            out.append(Mul(left, right))
    return Add(out)


def _hermitize(expr):
    return Scale(0.5, Add([expr, Adjoint(expr)]))


# -- builders ------------------------------------------------------------------

def build_free_dirac(params: PhysParams, grid: GridSpec) -> NamedHamiltonian:
    """Single momentum-diagonal leaf  k -> c alpha.k + beta m0 c^2."""
    pairs = [(lambda g, t, i=i: g.k[i], params.c * ALPHA[i]) for i in range(3)]
    pairs.append((_one, params.rest_energy * BETA))
    leaf = MomentumDiag(pairs, name="free-dirac")
    return NamedHamiltonian("free", [("free-dirac", leaf)], params,
                            _zero_model(), grid)


def _zero_model():
    from .fields import ZeroField
    return ZeroField()


def build_dirac_em(model: FieldModel, params: PhysParams,
                   grid: GridSpec) -> NamedHamiltonian:
    """Minimal-coupling Dirac Hamiltonian c alpha.(p-eA) + beta m0 c^2 + e phi."""
    kin = MomentumDiag([(lambda g, t, i=i: g.k[i], params.c * ALPHA[i])
                        for i in range(3)], name="kinetic-free")
    gauge = PositionDiag(
        [(lambda g, t, i=i: model.a_mesh(g.r, t)[i], -params.e * params.c * ALPHA[i])
         for i in range(3)],
        name="gauge-coupling", time_dependent=model.time_dependent)
    mass = ConstMatrix(params.rest_energy * BETA, name="mass")
    scalar = PositionDiag([(lambda g, t: model.phi_mesh(g.r, t), params.e * ID4)],
                          name="scalar", time_dependent=model.time_dependent)
    terms = [("kinetic-free", kin), ("gauge-coupling", gauge),
             ("mass", mass), ("scalar", scalar)]
    return NamedHamiltonian("dirac-em", terms, params, model, grid)


def build_fw_full(model: FieldModel, params: PhysParams, grid: GridSpec,
                  term_mask=None, hermitize: bool = False) -> NamedHamiltonian:
    """The expanded even Hamiltonian; ``term_mask`` selects a subset of
    FW_FULL_TERMS (default: everything except ``rest-mass``)."""
    m0, c, e = params.m0, params.c, params.e
    pi = _kinetic_triple(model, params)
    sq = _kinetic_squared(pi)
    beta_c = ConstMatrix(BETA, name="beta")

    terms = {}
    terms["rest-mass"] = ConstMatrix(params.rest_energy * BETA, name="rest-mass")
    terms["kinetic"] = Scale(1.0 / (2 * m0), Mul(beta_c, sq))
    terms["zeeman"] = _sigma_dot(model.b_mesh, -e / (2 * m0), True)
    terms["mass-correction"] = Scale(-1.0 / (8 * m0**3 * c**2),
                                     Mul(beta_c, Mul(sq, sq)))
    szb = _sigma_dot(model.b_mesh, 1.0, True)
    terms["kinetic-zeeman-cross"] = Scale(
        e / (8 * m0**3 * c**2), Add([Mul(sq, szb), Mul(szb, sq)]))

    terms["b-squared"] = PositionDiag(
        [(lambda g, t: -e**2 / (8 * m0**3 * c**2)
          * sum(np.asarray(b) ** 2 for b in model.b_mesh(g.r, t)), BETA)],
        name="b-squared", time_dependent=model.time_dependent)

    terms["darwin"] = PositionDiag(
        [(lambda g, t: -e / (8 * m0**2 * c**2) * np.asarray(model.dive_mesh(g.r, t)),
          ID4)], name="darwin", time_dependent=model.time_dependent)

    so = Add([
        _cross_dot_sigma(pi, model.e_mesh, reverse=True),
        Scale(-1.0, _cross_dot_sigma(pi, model.e_mesh, reverse=False)),
    ])
    terms["spin-orbit"] = Scale(e / (8 * m0**2 * c**2), so)

    dedt = Add([
        _cross_dot_sigma(pi, model.dedt_mesh, reverse=True),
        _cross_dot_sigma(pi, model.dedt_mesh, reverse=False),
    ])
    terms["de-dt"] = Scale(-1j * e / (16 * m0**3 * c**4), Mul(beta_c, dedt))

    if term_mask is None:
        selected = [n for n in FW_FULL_TERMS if n != "rest-mass"]
    else:
        selected = list(term_mask)
        unknown = set(selected) - set(FW_FULL_TERMS)
        if unknown:
            raise PreconditionError(f"unknown fw-full terms {sorted(unknown)}")
    ordered = [(n, terms[n]) for n in FW_FULL_TERMS if n in selected]
    if hermitize:
        ordered = [(n, _hermitize(x)) for n, x in ordered]
    return NamedHamiltonian("fw-full", ordered, params, model, grid,
                            hermitized=hermitize, assume_hermitian=hermitize)


def build_fw_direct(model: FieldModel, params: PhysParams, grid: GridSpec,
                    hermitize: bool = False) -> NamedHamiltonian:
    """The direct spin-field Hamiltonian, exactly as printed.

    The -i dB/dt piece rides inside ``field-derivative-soc``; see the module
    docstring for why the printed form is Hermitian for internally consistent
    field models.  With ``hermitize`` every term is replaced by (T + T^H)/2
    and propagators are told to trust Hermiticity.
    """
    m0, c, e = params.m0, params.c, params.e
    beta_c = ConstMatrix(BETA, name="beta")
    pi = _kinetic_triple(model, params)
    sq = _kinetic_squared(pi)

    kinetic = Scale(1.0 / (2 * m0), Mul(beta_c, sq))
    zeeman = _sigma_dot(model.b_mesh, -e / (2 * m0), True)

    exp_cross = _cross_dot_sigma(pi, model.e_mesh, reverse=False)
    dbdt_piece = _sigma_dot(model.dbdt_mesh, 1.0, False)
    soc = Scale(-e / (8 * m0**2 * c**2),
                Add([Scale(2.0, exp_cross), Scale(-1j, dbdt_piece)]))

    nutation = _sigma_dot(model.d2bdt2_mesh, e / (16 * m0**3 * c**4), True)

    ordered = [("kinetic", kinetic), ("zeeman", zeeman),
               ("field-derivative-soc", soc), ("nutation", nutation)]
    if hermitize:
        ordered = [(n, _hermitize(x)) for n, x in ordered]
    return NamedHamiltonian("fw-direct", ordered, params, model, grid,
                            hermitized=hermitize, assume_hermitian=hermitize)
