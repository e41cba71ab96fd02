"""Dense complex 4x4 matrix kernel: Dirac matrices, commutators, eigensolvers.

Everything downstream (spin operators, Hamiltonians, per-mode propagators)
reduces to exact arithmetic on 4x4 complex matrices.  The representation is
fixed to the standard one with beta diagonal,

    beta  = diag(+1, +1, -1, -1)
    alpha_i = [[0, sigma_i], [sigma_i, 0]]
    Sigma_i = [[sigma_i, 0], [0, sigma_i]]

so that "diagonal / off-diagonal in particle-antiparticle space" is literal
2x2 block structure.

The Hermitian eigensolvers are numpy's ``eigh`` (``herm_eigs``) and its
eigenvalue-only ``eigvalsh`` (``herm_eigvals``), behind one Hermiticity check.
Eigenvalues come out ascending and each eigenvector's phase is fixed by making
its first nonzero component real and positive.  The commutators,
``is_hermitian`` and both solves act per matrix on ``(..., n, n)`` stacks.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "ID4",
    "dirac_matrices", "commutator", "anticommutator",
    "is_hermitian", "herm_eigs", "herm_eigvals",
    "levi_civita", "levi_civita_pairs",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID4 = np.eye(4, dtype=complex)

_Z2 = np.zeros((2, 2), dtype=complex)


def _offdiag(s):
    return np.block([[_Z2, s], [s, _Z2]])


def _blockdiag(s):
    return np.block([[s, _Z2], [_Z2, s]])


_ALPHA = tuple(_offdiag(s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
_BETA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
_SIGMA = tuple(_blockdiag(s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))

# Levi-Civita symbol, indexed [i, j, k].
_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_i, _j, _k] = 1.0
    _EPS[_i, _k, _j] = -1.0


def levi_civita(i: int, j: int, k: int) -> float:
    return _EPS[i, j, k]


def levi_civita_pairs(i: int):
    """(j, k, eps_ijk) for the two nonzero entries with first index i."""
    return [(j, k, _EPS[i, j, k]) for j in range(3) for k in range(3) if _EPS[i, j, k]]


def dirac_matrices():
    """Return ``(alpha, beta, sigma)``: the three alpha_i, beta, and the
    three doubled Pauli matrices Sigma_i, all as fresh 4x4 complex arrays."""
    return (
        tuple(a.copy() for a in _ALPHA),
        _BETA.copy(),
        tuple(s.copy() for s in _SIGMA),
    )


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba, per matrix for stacks that broadcast."""
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{a, b} = ab + ba, per matrix for stacks that broadcast."""
    return a @ b + b @ a


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    scale = np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1.0)
    diff = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
    return bool(np.all(diff <= tol * scale))


def _hermitian_part(a, tol, name):
    """0.5 (a + a^H), which only symmetrizes roundoff: refused unless every
    matrix of ``a`` is Hermitian within ``tol``."""
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a, tol):
        raise PreconditionError(f"{name} requires a Hermitian matrix")
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def herm_eigs(a: np.ndarray, tol: float = 1e-10):
    """Eigendecomposition of a Hermitian 4x4 (or nxn) complex matrix, or of
    each matrix of a ``(..., n, n)`` stack.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``v``.  Raises :class:`PreconditionError` when any
    input matrix is not Hermitian within ``tol``.
    """
    w, v = np.linalg.eigh(_hermitian_part(a, tol, "herm_eigs"))
    # phase convention: first component with non-negligible modulus of each
    # eigenvector made real positive, so degenerate pairs come out reproducibly
    first = np.argmax(np.abs(v) > 1e-12, axis=-2)[..., None, :]
    lead = np.take_along_axis(v, first, axis=-2)
    return w, v / (lead / np.abs(lead))


def herm_eigvals(a: np.ndarray, tol: float = 1e-10):
    """The ascending eigenvalues of :func:`herm_eigs`, with no eigenvector formed."""
    return np.linalg.eigvalsh(_hermitian_part(a, tol, "herm_eigvals"))
