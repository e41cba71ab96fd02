"""Fixed-momentum spin operators and the proper-spin-operator condition checks.

Three candidate spin operators are supported:

* ``DIRAC``:  S = Sigma/2, momentum independent.
* ``FW``:     the mean-spin operator obtained by conjugating Sigma/2 with the
  free block-diagonalizing transformation,

      S_FW = Sigma/2 + i c beta (p x alpha) / (2 E_p)
             - c^2 p x (Sigma x p) / (2 E_p (E_p + m0 c^2)).

  Note the explicit factors of c: they are required for [S_FW, H_free] = 0 to
  hold at every momentum when c != 1 (the widely quoted c=1 form is recovered
  by dropping them).
* ``PRYCE``:  S_Py = beta Sigma/2 + (1 - beta)(Sigma.p)p / (2 p^2), singular
  at p = 0 where the longitudinal projector has no limit.

Each kind's position operator is r + R(p), with R fixed by the exact identity
R(p) x p + S_kind(p) = Sigma/2.

``spin_terms`` and ``position_terms`` are the single source of S and R: per
component, a list of (coefficient of k, k^2 and 1/k^2, constant 4x4 matrix)
pairs.  ``spin_operator`` and ``position_correction`` evaluate them at
momenta shaped ``(..., 3)`` (one momentum is a batch with no leading axes);
``dynamics.spin_expr`` and ``dynamics.position_correction_expr`` wrap the
same pairs in momentum-diagonal grid leaves.

The condition checks quantify, at each fixed momentum of a batch: (i)
commutation with the free Dirac Hamiltonian, (ii) the SU(2) algebra
[S_i, S_j] = i eps_ijk S_k, (iii) the +-1/2 eigenvalue spectrum of every
component.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .algebra import ID4, commutator, dirac_matrices, herm_eigvals, levi_civita_pairs
from .errors import PreconditionError, SingularMomentumError

__all__ = [
    "PhysParams", "SpinKind", "energy_k2", "energy_ep", "free_dirac_matrix",
    "spin_terms", "position_terms", "spin_operator", "position_correction",
    "condition_checks", "ConditionReport",
]

ALPHA, BETA, SIGMA = dirac_matrices()
P_FLOOR_SCALE = 1e-12  # |p| <= P_FLOOR_SCALE * m0 * c refuses Pryce (``PhysParams.p_floor``)


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of a run.  hbar is identically 1 and not a knob."""

    m0: float = 1.0
    c: float = 1.0
    e: float = -1.0

    def __post_init__(self):
        for name, value in (("m0", self.m0), ("c", self.c), ("e", self.e)):
            if not np.isfinite(value):
                raise PreconditionError(f"{name} must be finite, got {value}")
        if not self.m0 > 0:
            raise PreconditionError(f"rest mass must be positive, got {self.m0}")
        if not self.c > 0:
            raise PreconditionError(f"speed of light must be positive, got {self.c}")
        c2 = float(self.c) * float(self.c)  # a float product overflows to inf; ** raises
        e0 = float(self.m0) * c2
        if not all(0 < x < np.inf for x in (c2, e0, e0 * e0)):
            raise PreconditionError(f"m0 = {self.m0} and c = {self.c} put c^2, m0 c^2 or "
                                    "(m0 c^2)^2 outside the float range")

    @property
    def rest_energy(self) -> float:
        return self.m0 * self.c**2

    @property
    def p_floor(self) -> float:
        return P_FLOOR_SCALE * self.m0 * self.c


class SpinKind(enum.Enum):
    DIRAC = "dirac"
    FW = "fw"
    PRYCE = "pryce"


def energy_k2(k2, params: PhysParams):
    """E_k = sqrt(k^2 c^2 + m0^2 c^4) of a squared momentum: a float, or the
    grid's k^2 array for one energy per lattice mode."""
    return np.sqrt(k2 * params.c**2 + params.rest_energy**2)


def energy_ep(p, params: PhysParams) -> float:
    """Relativistic energy sqrt(p^2 c^2 + m0^2 c^4) of momentum p."""
    p = np.asarray(p, dtype=float)
    return float(energy_k2(np.dot(p, p), params))


def free_dirac_matrix(p, params: PhysParams) -> np.ndarray:
    """c alpha.p + beta m0 c^2 as an exact 4x4 matrix per momentum."""
    p = np.asarray(p, dtype=float)
    h = params.rest_energy * BETA
    for i in range(3):
        h = h + params.c * p[..., i, None, None] * ALPHA[i]
    return h


# ---------------------------------------------------------------------------
# the operator table: the one transcription of S(p) and R(p)
# ---------------------------------------------------------------------------
#
# Component i of S or R is a list of (coefficient, M) pairs standing for
# sum coefficient(k, k2, x) M.  The coefficients take the momentum triple,
# k^2 and the kind's one derived scalar x -- 1/k^2 for Pryce, E_k for FW,
# unused by Dirac -- either as floats at one momentum (spin_operator,
# position_correction) or as the grid's broadcast meshes
# (dynamics.spin_expr, dynamics.position_correction_expr); the caller
# evaluates x once for every pair.  ``None`` is the constant coefficient 1.
# Each table is built once per (kind, params) and shared, so it is all tuples.
# A coefficient several pairs read (k_i k_m and k_m k_i too) is one object.

_I_BETA_ALPHA = tuple(1j * BETA @ a for a in ALPHA)
_LOWER_SIGMA = tuple((ID4 - BETA) @ s for s in SIGMA)  # (1 - beta) Sigma


def _inv_ew(e, params, power=1):
    """1 / (E^power (E + m0 c^2)) of an energy E."""
    return 1.0 / (e**power * (e + params.rest_energy))


def _frozen(table):
    return tuple(tuple(pairs) for pairs in table)


def _pairs(fn):
    """fn(k, k2, x, i, m) per unordered pair {i, m}: (i, m) and (m, i) get one object."""
    one = {(i, m): lambda k, k2, x, i=i, m=m: fn(k, k2, x, i, m)
           for i in range(3) for m in range(i, 3)}
    return {(i, m): one[min(i, m), max(i, m)] for i in range(3) for m in range(3)}


@functools.cache
def spin_terms(kind: SpinKind, params: PhysParams):
    """S_kind as three tuples of (coefficient, matrix) pairs (see above)."""
    c = params.c
    if kind is SpinKind.DIRAC:
        return _frozen([(None, 0.5 * SIGMA[i])] for i in range(3))
    if kind is SpinKind.FW:
        # Sigma/2 + i c beta (p x alpha)/(2E) - c^2 p x (Sigma x p)/(2EW),
        # with p x (Sigma x p) = Sigma p^2 - p (Sigma.p)
        k_e = [lambda k, k2, e_k, j=j: c * k[j] / (2.0 * e_k) for j in range(3)]
        k2_ew = lambda k, k2, e_k: -0.5 * c**2 * k2 * _inv_ew(e_k, params)
        kk_ew = _pairs(lambda k, k2, e_k, i, m: 0.5 * c**2 * (k[i] * k[m]) * _inv_ew(e_k, params))
        return _frozen(
            [(None, 0.5 * SIGMA[i])]
            + [(k_e[j], e * _I_BETA_ALPHA[kk]) for j, kk, e in levi_civita_pairs(i)]
            + [(k2_ew, SIGMA[i])] + [(kk_ew[i, m], SIGMA[m]) for m in range(3)]
            for i in range(3))
    if kind is SpinKind.PRYCE:
        kk_p2 = _pairs(lambda k, k2, inv_k2, i, m: 0.5 * (k[i] * k[m]) * inv_k2)
        return _frozen(
            [(None, 0.5 * BETA @ SIGMA[i])] + [(kk_p2[i, m], _LOWER_SIGMA[m]) for m in range(3)]
            for i in range(3))
    raise PreconditionError(f"unknown spin kind {kind!r}")


@functools.cache
def position_terms(kind: SpinKind, params: PhysParams):
    """R_kind as three tuples of (coefficient, matrix) pairs (see above)."""
    c = params.c
    if kind is SpinKind.DIRAC:
        return ((), (), ())
    if kind is SpinKind.FW:
        # i c beta alpha/(2E) - i c^3 beta (alpha.p) p/(2E^2 W)
        # - c^2 (Sigma x p)/(2EW)
        c_e = lambda k, k2, e_k: 0.5 * c / e_k
        kk_e2w = _pairs(lambda k, k2, e_k, m, j: -0.5 * c**3 * (k[m] * k[j])
                        * _inv_ew(e_k, params, power=2))
        k_ew = [lambda k, k2, e_k, b=b: -0.5 * c**2 * k[b] * _inv_ew(e_k, params)
                for b in range(3)]
        return _frozen(
            [(c_e, _I_BETA_ALPHA[j])] + [(kk_e2w[m, j], _I_BETA_ALPHA[m]) for m in range(3)]
            + [(k_ew[b], e * SIGMA[a]) for a, b, e in levi_civita_pairs(j)]
            for j in range(3))
    if kind is SpinKind.PRYCE:
        # -(1 - beta)(Sigma x p)/(2 p^2)
        k_p2 = [lambda k, k2, inv_k2, b=b: -0.5 * k[b] * inv_k2 for b in range(3)]
        return _frozen([(k_p2[b], e * _LOWER_SIGMA[a]) for a, b, e in levi_civita_pairs(j)]
                       for j in range(3))
    raise PreconditionError(f"unknown spin kind {kind!r}")


def _at_momentum(table, kind, p, params, what):
    """Evaluate a spin or position table at momenta shaped (..., 3)."""
    p = np.asarray(p, dtype=float)
    p2 = np.sum(p * p, axis=-1)
    mag = np.sqrt(p2)
    singular = mag[mag <= params.p_floor]
    if kind is SpinKind.PRYCE and singular.size:
        raise SingularMomentumError(
            f"Pryce {what} is singular at p=0; "
            f"|p|={singular[0]:.3e} <= floor {params.p_floor:.3e}")
    k = tuple(p[..., i, None, None] for i in range(3))
    k2 = p2[..., None, None]
    x = (np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0) if kind is SpinKind.PRYCE
         else energy_k2(k2, params) if kind is SpinKind.FW else None)
    zero = np.zeros(p.shape[:-1] + (4, 4), dtype=complex)
    return tuple(sum((m if f is None else f(k, k2, x) * m for f, m in pairs), zero)
                 for pairs in table)


def spin_operator(kind: SpinKind, p, params: PhysParams):
    """The three components (S_x, S_y, S_z) of the requested spin operator
    at momenta ``(..., 3)``, each a ``(..., 4, 4)`` stack of Hermitian 4x4s.

    Raises :class:`SingularMomentumError` for the Pryce operator when
    |p| <= params.p_floor at any momentum of the batch.
    """
    return _at_momentum(spin_terms(kind, params), kind, p, params, "spin operator")


def position_correction(kind: SpinKind, p, params: PhysParams):
    """Momentum-dependent matrix correction R(p) such that the kind's
    position operator is r + R(p); batched like :func:`spin_operator`.

    R is fixed by the exact total-angular-momentum identity
    R(p) x p + S_kind(p) = Sigma/2.  For the Dirac kind R = 0; the Pryce
    correction carries a genuine 1/p^2 singularity and is refused at p = 0.
    """
    return _at_momentum(position_terms(kind, params), kind, p, params,
                        "position correction")


@dataclass
class ConditionReport:
    """Outcome of the proper-spin-operator checks at momenta ``p`` shaped
    ``(..., 3)``: residuals ``(...)``, components ``(..., 3)``, spectra
    ``(..., 3, 4)``."""

    kind: SpinKind
    p: np.ndarray
    su2_residual: np.ndarray
    spectrum: np.ndarray  # per component, eigenvalues ascending
    free_commutation_residual: np.ndarray
    free_commutation_components: np.ndarray
    spectrum_residual: np.ndarray = field(init=False)

    def __post_init__(self):
        target = np.array([-0.5, -0.5, 0.5, 0.5])
        self.spectrum_residual = np.max(np.abs(self.spectrum - target), axis=(-2, -1))


def condition_checks(kind: SpinKind, p, params: PhysParams) -> ConditionReport:
    """Evaluate the three fixed-momentum proper-spin-operator conditions at
    each momentum of a ``(..., 3)`` batch.

    su2_residual           max_ij || [S_i,S_j] - i eps_ijk S_k ||_F
    spectrum               sorted eigenvalues of each component
    free_commutation_residual   max_i || [S_i, H_free(p)] ||_F
    """
    p = np.asarray(p, dtype=float)
    s = spin_operator(kind, p, params)
    spectrum = np.stack([herm_eigvals(si) for si in s], axis=-2)
    # [S_i, S_i] = 0 and [S_j, S_i] = -[S_i, S_j] exactly, so the cyclic
    # (i, j, k) carry every residual
    su2 = np.max([np.linalg.norm(commutator(s[i], s[j]) - 1j * s[k], axis=(-2, -1))
                  for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))], axis=0)
    h = free_dirac_matrix(p, params)
    free = np.stack([np.linalg.norm(commutator(si, h), axis=(-2, -1)) for si in s], -1)
    return ConditionReport(kind, p, su2, spectrum, free.max(axis=-1), free)
