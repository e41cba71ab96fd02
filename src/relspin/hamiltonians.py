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

Every vector operator here and in ``dynamics``' printed right-hand sides is
built from one vocabulary: a triple is a list of three expressions; a
``Vector`` is ``P`` or ``R`` or, made by ``ModelVector``, a model's mesh
vector (A, E, dE/dt, B, dB/dt, d2B/dt2); ``vec_leaf`` is sum_j x_j M_j as
one leaf, ``triple`` the three x_j, and ``kinetic_triple`` the (p - eA)_i;
``cross``, ``dot``, ``prefix``, ``scale``, ``add`` and ``const_triple``
combine triples.  A model's mesh is pooled, so each mesh method is called
once per (grid, t), or once per grid for a static model, however many
leaves and trees read it.  A number (``Scale``) or constant matrix that
multiplies a tree is folded into its leaves (``expr.Mul``), so Sigma_i of
Sigma.(E x pi) acts inside the leaves of (E x pi)_i.

``FAMILIES`` holds each family's terms and its builder, which builds them
all.  These trees are the one transcription of each Hamiltonian: the
propagators read them too, the exact step of ``propagate`` from their live
leaves.  ``build_hamiltonian`` keeps the default terms or a chosen subset
and, with ``hermitize``, replaces each term by (T + T^H)/2: a numerical
no-op for field models that obey Faraday's law, where the anti-Hermitian
part of Sigma.(E x (p-eA)), (i/2) Sigma.dB/dt, cancels the explicit -i dB/dt
piece of ``field-derivative-soc`` exactly.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import Callable, NamedTuple

import numpy as np

from .algebra import ID4, levi_civita_pairs
from .errors import PreconditionError
from .expr import (Add, Adjoint, ConstMatrix, MomentumDiag, Mul, OperatorExpr, PositionDiag,
                   Scale, _one, pooled)
from .fields import FieldModel, ZeroField
from .grid import MOMENTUM, POSITION
from .operators import ALPHA, BETA, SIGMA, PhysParams

__all__ = [
    "FAMILIES", "build_hamiltonian", "NamedHamiltonian", "build_free_dirac", "build_dirac_em",
    "build_fw_full", "build_fw_direct",
    "P", "R", "Vector", "ModelVector", "vec_leaf", "triple", "const_triple",
    "kinetic_triple", "cross", "dot", "prefix", "scale", "add", "hermitian_part",
]


class Family(NamedTuple):
    """A family's terms in order, ``build(model, params)`` of them all, and
    the terms left off by default."""

    terms: tuple
    build: Callable
    off: tuple = ()

    @property
    def default(self) -> tuple:
        return tuple(n for n in self.terms if n not in self.off)


# a builder is called by its module-level name, so a wrapper bound there sees every build
FAMILIES = {
    "free": Family(("free-dirac",), lambda model, params: build_free_dirac(params)),
    "dirac-em": Family(("kinetic-free", "gauge-coupling", "mass", "scalar"),
                       lambda *args: build_dirac_em(*args)),
    "fw-full": Family(("rest-mass", "kinetic", "zeeman", "mass-correction",
                       "kinetic-zeeman-cross", "b-squared", "darwin", "spin-orbit", "de-dt"),
                      lambda *args: build_fw_full(*args), off=("rest-mass",)),
    "fw-direct": Family(("kinetic", "zeeman", "field-derivative-soc", "nutation"),
                        lambda *args: build_fw_direct(*args)),
}


@dataclass
class NamedHamiltonian:
    """A Hamiltonian split into named sub-terms; ``total`` is their sum."""

    family: str
    terms: list                     # [(name, OperatorExpr)]
    params: PhysParams
    model: FieldModel
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
        if unknown or not names:
            raise PreconditionError(f"{self.family} takes a non-empty subset of "
                                    f"{self.term_names()}, got {names}")
        kept = [(n, e) for n, e in self.terms if n in names]
        return NamedHamiltonian(self.family, kept, self.params, self.model,
                                self.assume_hermitian)


# -- the vector vocabulary -----------------------------------------------------
# A triple is a list of three expressions, one per Cartesian component.  A
# Vector is diagonal in its ``space``, and ``read(grid, t)`` gives its three
# components: k (``P``) or r (``R``) of the grid, the same at every t, or a
# model's mesh vector (``ModelVector``), which may be ``time_dependent``.
Vector = namedtuple("Vector", "name space time_dependent read")
P = Vector("p", MOMENTUM, False, lambda grid, t: grid.k)
R = Vector("r", POSITION, False, lambda grid, t: grid.r)


def ModelVector(mesh_fn, name) -> Vector:
    """The model mesh vector (A, E, dE/dt, B, dB/dt or d2B/dt2) of the bound
    ``*_mesh`` method ``mesh_fn``, pooled under the method's function and
    stamped with the method and t (no t when static): every leaf on it, in
    any tree, reads one mesh per (grid, t), and a new model's replaces it."""
    dynamic = mesh_fn.__self__.time_dependent
    return Vector(name, POSITION, dynamic, lambda grid, t: pooled(
        mesh_fn.__func__, grid, (mesh_fn, t if dynamic else None), lambda: mesh_fn(grid.r, t)))


def vec_leaf(x, pairs, name=None):
    """sum x_j M over the (j, M) in ``pairs``, M alone where j is None, as one
    leaf diagonal in x's space: c alpha.p + beta m0 c^2, -ec alpha.A,
    alpha.r, Sigma.B.  A uniform x gives a constant leaf."""
    terms = [(_one if j is None else (lambda g, t, j=j: x.read(g, t)[j]), m) for j, m in pairs]
    leaf = MomentumDiag if x.space == MOMENTUM else PositionDiag
    return leaf(terms, name=name, time_dependent=x.time_dependent)


def triple(x):
    """The components x_x, x_y, x_z as three leaves."""
    return [vec_leaf(x, [(j, ID4)], name=f"{x.name}_{'xyz'[j]}") for j in range(3)]


def const_triple(mats):
    return [ConstMatrix(m) for m in mats]


def kinetic_triple(a, e):
    """The three (p - eA)_i for the model vector ``a`` of A; a vanishing A_i
    is skipped when the sum is applied."""
    return add([triple(P), scale(-e, triple(a))])


def cross(a, b):
    """(a x b)_i; right factor acts first."""
    return [Add([Mul(a[j], b[k]) if e > 0 else Scale(-1.0, Mul(a[j], b[k]))
                 for j, k, e in levi_civita_pairs(i)]) for i in range(3)]


def dot(a, b):
    """sum_j a_j b_j; right factor acts first."""
    return Add([Mul(a[j], b[j]) for j in range(3)])


def prefix(factors, comps):
    """Left-multiply every component by the given prefactor chain."""
    return [reduce(lambda expr, f: Mul(f, expr), reversed(factors), comp) for comp in comps]


def scale(s, comps):
    return [Scale(s, comp) for comp in comps]


def add(triples):
    return [Add([tr[i] for tr in triples]) for i in range(3)]


def hermitian_part(expr):
    """(T + T^H)/2."""
    return Scale(0.5, Add([expr, Adjoint(expr)]))


# -- builders ------------------------------------------------------------------

def build_free_dirac(params: PhysParams) -> NamedHamiltonian:
    """Single momentum-diagonal leaf  k -> c alpha.k + beta m0 c^2."""
    leaf = vec_leaf(P, [(i, params.c * ALPHA[i]) for i in range(3)]
                    + [(None, params.rest_energy * BETA)], name="free-dirac")
    return NamedHamiltonian("free", [("free-dirac", leaf)], params, ZeroField())


def build_dirac_em(model: FieldModel, params: PhysParams) -> NamedHamiltonian:
    """Minimal-coupling Dirac Hamiltonian c alpha.(p-eA) + beta m0 c^2 + e phi."""
    kin = vec_leaf(P, [(i, params.c * ALPHA[i]) for i in range(3)], name="kinetic-free")
    gauge = vec_leaf(ModelVector(model.a_mesh, "A"),
                     [(i, -params.e * params.c * ALPHA[i]) for i in range(3)],
                     name="gauge-coupling")
    mass = ConstMatrix(params.rest_energy * BETA, name="mass")
    scalar = PositionDiag([(lambda g, t: model.phi_mesh(g.r, t), params.e * ID4)],
                          name="scalar", time_dependent=model.time_dependent)
    terms = [("kinetic-free", kin), ("gauge-coupling", gauge),
             ("mass", mass), ("scalar", scalar)]
    return NamedHamiltonian("dirac-em", terms, params, model)


def build_fw_full(model: FieldModel, params: PhysParams) -> NamedHamiltonian:
    """The expanded even Hamiltonian, ``rest-mass`` included."""
    m0, c, e = params.m0, params.c, params.e
    b, e_t = ModelVector(model.b_mesh, "B"), triple(ModelVector(model.e_mesh, "E"))
    dedt_t = triple(ModelVector(model.dedt_mesh, "dE/dt"))
    sigma_t = const_triple(SIGMA)
    pi = kinetic_triple(ModelVector(model.a_mesh, "A"), e)
    sq = dot(pi, pi)
    beta_c = ConstMatrix(BETA)

    terms = {}
    terms["rest-mass"] = ConstMatrix(params.rest_energy * BETA, name="rest-mass")
    terms["kinetic"] = Scale(1.0 / (2 * m0), Mul(beta_c, sq))
    szb = Mul(beta_c, vec_leaf(b, enumerate(SIGMA)))
    terms["zeeman"] = Scale(-e / (2 * m0), szb)
    terms["mass-correction"] = Scale(-1.0 / (8 * m0**3 * c**2), Mul(beta_c, Mul(sq, sq)))
    terms["kinetic-zeeman-cross"] = Scale(
        e / (8 * m0**3 * c**2), Add([Mul(sq, szb), Mul(szb, sq)]))

    terms["b-squared"] = PositionDiag(
        [(lambda g, t: -e**2 / (8 * m0**3 * c**2)
          * sum(np.asarray(bj) ** 2 for bj in b.read(g, t)), BETA)],
        name="b-squared", time_dependent=model.time_dependent)

    terms["darwin"] = PositionDiag(
        [(lambda g, t: -e / (8 * m0**2 * c**2) * np.asarray(model.dive_mesh(g.r, t)),
          ID4)], name="darwin", time_dependent=model.time_dependent)

    so = Add([dot(sigma_t, cross(pi, e_t)), Scale(-1.0, dot(sigma_t, cross(e_t, pi)))])
    terms["spin-orbit"] = Scale(e / (8 * m0**2 * c**2), so)

    dedt = Add([dot(sigma_t, cross(pi, dedt_t)), dot(sigma_t, cross(dedt_t, pi))])
    terms["de-dt"] = Scale(-1j * e / (16 * m0**3 * c**4), Mul(beta_c, dedt))

    ordered = [(n, terms[n]) for n in FAMILIES["fw-full"].terms]
    return NamedHamiltonian("fw-full", ordered, params, model, assume_hermitian=False)


def build_fw_direct(model: FieldModel, params: PhysParams) -> NamedHamiltonian:
    """The direct spin-field Hamiltonian, exactly as printed.

    The -i dB/dt piece rides inside ``field-derivative-soc``; see the module
    docstring for why the printed form is Hermitian for internally consistent
    field models.
    """
    m0, c, e = params.m0, params.c, params.e
    beta_c = ConstMatrix(BETA)
    pi = kinetic_triple(ModelVector(model.a_mesh, "A"), e)
    sq = dot(pi, pi)

    kinetic = Scale(1.0 / (2 * m0), Mul(beta_c, sq))
    zeeman = Scale(-e / (2 * m0),
                   Mul(beta_c, vec_leaf(ModelVector(model.b_mesh, "B"), enumerate(SIGMA))))

    exp_cross = dot(const_triple(SIGMA), cross(triple(ModelVector(model.e_mesh, "E")), pi))
    dbdt_piece = vec_leaf(ModelVector(model.dbdt_mesh, "dB/dt"), enumerate(SIGMA))
    soc = Scale(-e / (8 * m0**2 * c**2),
                Add([Scale(2.0, exp_cross), Scale(-1j, dbdt_piece)]))

    nutation = Scale(e / (16 * m0**3 * c**4), Mul(
        beta_c, vec_leaf(ModelVector(model.d2bdt2_mesh, "d2B/dt2"), enumerate(SIGMA))))

    ordered = [("kinetic", kinetic), ("zeeman", zeeman),
               ("field-derivative-soc", soc), ("nutation", nutation)]
    return NamedHamiltonian("fw-direct", ordered, params, model, assume_hermitian=False)


def build_hamiltonian(family: str, model: FieldModel, params: PhysParams, terms=None,
                      hermitize: bool = False) -> NamedHamiltonian:
    """The family's Hamiltonian: its default terms, or the non-empty subset
    ``terms`` of its terms, each replaced by (T + T^H)/2 with ``hermitize``,
    which also lets propagators trust Hermiticity.  Propagation reads only
    the terms kept (``propagate``)."""
    if family not in FAMILIES:
        raise PreconditionError(f"unknown Hamiltonian family {family!r}; "
                                f"expected one of {list(FAMILIES)}")
    spec = FAMILIES[family]
    ham = spec.build(model, params)
    if hermitize:
        ham = replace(ham, terms=[(n, hermitian_part(x)) for n, x in ham.terms],
                      assume_hermitian=True)
    return ham.subset(spec.default if terms is None else terms)
