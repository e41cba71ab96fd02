"""Periodic grids, four-component spinor fields, and unitary transforms.

Conventions (frozen; binary dumps and golden data depend on them)
-----------------------------------------------------------------
* Positions:  r_n = -L/2 + n dx,  n = 0..N-1,  dx = L/N.
* Momenta:    k_m = (2 pi / L)(m - N/2),  m = 0..N-1 -- a centered lattice
  with the zero mode at index N/2.
* Forward transform (unitary on the index lattice):

      psihat_m = N^{-1/2} sum_n psi_n exp(-i k_m r_n)

  which for N divisible by 4 reduces to P * FFT(P * psi) / sqrt(N) with the
  checkerboard phase P = (-1)^(n_1 + ... + n_d).  The inverse is
  P * IFFT(P * psihat) * sqrt(N).  Both scale factors are scipy's
  ``norm="ortho"``.
* Storage is phase-folded from birth: a field holds P psi (or P psihat), so
  its transform is one bare ``fftn``/``ifftn`` (P (P FFT(P psi)) =
  FFT(P psi)) and the result is folded too.  The ``SpinorField`` constructor
  folds the true values it is given; a packet is built folded, one factor
  per axis.  P is +-1 per point for all four components, so pointwise
  algebra, norms and inner products act on folded values as on true ones,
  to the sign of a zero; only ``.values`` and :func:`save_field` unfold.
* P and the transform both factor per axis, so a transform along some axes
  only is one bare FFT along them on folded storage too, and its result is
  folded (toward the target space along those axes, in the field's own space
  along the rest).  ``SpinorField.diag_along`` applies a multiplier that
  varies along those axes only between such a transform and its inverse;
  ``in_space`` is the all-axes transform.
* Inner products carry the position-measure weight dx^d in both spaces
  (the index-lattice transform is unitary, so the weighted norm agrees).

1D grids keep three-vector algebra alive by pinning k_y = k_z = 0 and
r_y = r_z = 0; operators along the missing axes act trivially.

``pointwise`` is the one per-point 4x4 kernel (operator leaves and the
factors of the exact step): for
sum_j M_j f_j psi it accumulates (M_j[a, b] f_j) psi_b into row a over the
nonzero (row, col, entry) triples of each M_j only (``matrix_entries``), each
f_j at its broadcast shape (a sparse mesh stays sparse).  A monomial M_j, as
every alpha / beta / Sigma product is, costs four products; a general one
such as Sigma.alpha one per nonzero.  It allocates its output (unless given
one, such as the input), at most one accumulation row, and no grid-size
temporary per entry.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import GridResolutionError, PreconditionError

__all__ = [
    "GridSpec", "SpinorField", "POLARIZATIONS", "gaussian_packet", "zero_mode_weight",
    "zero_mode_weights",
    "matrix_entries", "pointwise", "save_field", "load_field", "set_fft_workers",
]

_FFT_WORKERS = 1


def set_fft_workers(n: int):
    """Number of worker threads scipy's FFT may use (see the --threads flag)."""
    global _FFT_WORKERS
    _FFT_WORKERS = max(1, int(n))


@dataclass(frozen=True)
class GridSpec:
    """A periodic box: ``dim`` in {1, 3}, points per axis, box lengths."""

    dim: int
    n: tuple
    lengths: tuple

    def __init__(self, dim: int, n, lengths):
        if dim not in (1, 3):
            raise PreconditionError(f"grid dimension must be 1 or 3, got {dim}")
        n = tuple(n if np.iterable(n) else [n] * dim)
        lengths = tuple(float(v) for v in (lengths if np.iterable(lengths) else [lengths] * dim))
        if len(n) != dim or len(lengths) != dim:
            raise PreconditionError("n and lengths must match the grid dimension")
        for v in n:
            if not (math.isfinite(v) and v == int(v)):  # 64.0 is 64; 64.7 is refused
                raise PreconditionError(f"points per axis must be a finite integer, got {v}")
            if v < 8 or (int(v) & (int(v) - 1)) != 0:
                raise PreconditionError(f"points per axis must be a power of two >= 8, got {v}")
        for length in lengths:
            if not 0 < length < math.inf:
                raise PreconditionError(f"box length must be positive and finite, got {length}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "n", tuple(int(v) for v in n))
        object.__setattr__(self, "lengths", lengths)

    @property
    def shape(self):
        return self.n

    @property
    def dx(self):
        return tuple(length / nn for length, nn in zip(self.lengths, self.n))

    @cached_property
    def weight(self) -> float:
        """Quadrature weight dx^d of the discrete inner product."""
        return float(np.prod(self.dx))

    @cached_property
    def npoints(self) -> int:
        return math.prod(self.n)

    def axis_positions(self, axis: int) -> np.ndarray:
        nn, length = self.n[axis], self.lengths[axis]
        return -length / 2 + (length / nn) * np.arange(nn)

    def axis_momenta(self, axis: int) -> np.ndarray:
        nn, length = self.n[axis], self.lengths[axis]
        return (2 * np.pi / length) * (np.arange(nn) - nn // 2)

    def _mesh(self, vectors):
        """Broadcastable (sparse) meshes; missing axes are the scalar 0.0."""
        return tuple(vectors[axis].reshape([n if a == axis else 1 for a, n in enumerate(self.n)])
                     if axis < self.dim else 0.0 for axis in range(3))

    @cached_property
    def r(self):
        """(rx, ry, rz) broadcastable position meshes."""
        return self._mesh([self.axis_positions(a) for a in range(self.dim)])

    @cached_property
    def k(self):
        """(kx, ky, kz) broadcastable momentum meshes."""
        return self._mesh([self.axis_momenta(a) for a in range(self.dim)])

    @cached_property
    def k2(self):
        kx, ky, kz = self.k
        return np.broadcast_to(kx**2 + ky**2 + kz**2, self.shape).copy()

    @cached_property
    def inv_k2(self):
        """1/k^2 on the lattice, 0 in the k = 0 bin."""
        k2 = self.k2.copy()
        k2[self.origin_index] = 1.0
        out = 1.0 / k2
        out[self.origin_index] = 0.0
        return out

    @cached_property
    def origin_index(self):
        """Index of the k = 0 bin."""
        return tuple(nn // 2 for nn in self.n)

    @cached_property
    def _phase(self):
        """Checkerboard (-1)^(sum of indices), materialized at grid shape."""
        out = np.ones((), dtype=float)
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.n[axis]
            out = out * ((-1.0) ** np.arange(self.n[axis])).reshape(shape)
        return np.broadcast_to(out, self.shape).copy()

    @cached_property
    def boundary_shell_mask(self):
        """Points within L/16 of any boundary; used by the flux diagnostic."""
        mask = np.zeros(self.shape, dtype=bool)
        for axis in range(self.dim):
            x = np.abs(self.axis_positions(axis))
            edge = self.lengths[axis] / 2 - self.lengths[axis] / 16
            sel = x >= edge
            shape = [1] * self.dim
            shape[axis] = self.n[axis]
            mask |= sel.reshape(shape)
        return mask


POSITION = "position"
MOMENTUM = "momentum"

_spatial_axes = lambda dim: tuple(range(1, 1 + dim))


def _bare_fft(data, space, axes):
    """The transform toward ``space`` along ``axes`` of folded ``data``,
    which it may overwrite, as folded data (see the module docstring)."""
    fft = scipy.fft.fftn if space == MOMENTUM else scipy.fft.ifftn
    return fft(data, axes=axes, norm="ortho", overwrite_x=True, workers=_FFT_WORKERS)


class SpinorField:
    """Four-component complex field on a grid, in either space, stored
    phase-folded: ``data`` is P times the true values, which ``.values``
    gives (see the module docstring).  The constructor folds ``values`` into
    a new array; with ``folded`` it holds them as the data, as they are.

    Value semantics: operations return new fields and write into no field's
    ``data``, except a transform or ``diag_along`` with ``consume=True``,
    which may overwrite it (for a field its caller made and drops); the
    result may then hold the same buffer.  The inner product is
    ``sum(conj(a) * b) * dx^d`` evaluated in a common space.
    """

    __slots__ = ("grid", "data", "space")

    def __init__(self, grid: GridSpec, values: np.ndarray, space: str = POSITION,
                 folded: bool = False):
        values = np.asarray(values, dtype=complex)
        if values.shape != (4, *grid.shape):
            raise PreconditionError(
                f"spinor field values must have shape {(4, *grid.shape)}, got {values.shape}")
        if space not in (POSITION, MOMENTUM):
            raise PreconditionError(f"unknown space {space!r}")
        self.grid, self.space, self.data = grid, space, values if folded else values * grid._phase

    @property
    def values(self) -> np.ndarray:
        """The true values psi (or psihat), a new array."""
        return self.data * self.grid._phase

    # -- transforms ------------------------------------------------------
    def to_momentum(self) -> "SpinorField":
        return self.in_space(MOMENTUM)

    def to_position(self) -> "SpinorField":
        return self.in_space(POSITION)

    def in_space(self, space: str, consume: bool = False) -> "SpinorField":
        """The field in ``space``: one bare FFT along every axis, in place on a
        copy of the data (or with ``consume`` the data), which is fastest."""
        if self.space == space:
            return self
        work = self.data if consume else self.data.copy()
        return SpinorField(self.grid, _bare_fft(work, space, _spatial_axes(self.grid.dim)),
                           space, folded=True)

    def diag_along(self, space: str, axes, kernel, consume: bool = False) -> "SpinorField":
        """``kernel``, a multiplier diagonal in ``space`` that is constant
        along every spatial axis but ``axes`` (array axes, a spatial axis j
        being j + 1), applied to this field; the result is in this field's
        space.  Such a multiplier commutes with the transforms along the
        other axes, so only ``axes`` are transformed, there and back.
        ``kernel`` maps the folded data in between (see the module docstring),
        a buffer no one else holds (a copy, or with ``consume`` this field's),
        to its result, maybe in it."""
        work = self.data if consume else self.data.copy()
        return self.with_data(_bare_fft(kernel(_bare_fft(work, space, axes)), self.space, axes))

    def data_of(self, other: "SpinorField", consume: bool = False) -> np.ndarray:
        """``other``'s data in this field's space (``consume``: ``other`` is
        the caller's to drop, and a transform may overwrite it)."""
        return other.in_space(self.space, consume).data

    def with_data(self, data) -> "SpinorField":
        """A field holding ``data``, folded, in this field's space."""
        return SpinorField(self.grid, data, self.space, folded=True)

    # -- algebra ---------------------------------------------------------
    def copy(self) -> "SpinorField":
        return self.with_data(self.data.copy())

    def __add__(self, other: "SpinorField") -> "SpinorField":
        return self.with_data(self.data + self.data_of(other))

    def __sub__(self, other: "SpinorField") -> "SpinorField":
        return self.with_data(self.data - self.data_of(other))

    def __mul__(self, scalar) -> "SpinorField":
        return self.with_data(self.data * scalar)

    __rmul__ = __mul__

    def inner(self, other: "SpinorField") -> complex:
        return complex(np.vdot(self.data, self.data_of(other)) * self.grid.weight)

    def norm(self) -> float:
        return float(np.sqrt(np.real(np.vdot(self.data, self.data)) * self.grid.weight))

    def normalized(self) -> "SpinorField":
        n = self.norm()
        if n == 0:
            raise PreconditionError("cannot normalize the zero field")
        return self * (1.0 / n)


def zero_mode_weight(field: SpinorField) -> float:
    """|psihat(k=0)|^2 fraction of the total squared norm."""
    return float(zero_mode_weights(field.to_momentum().data[None], field.grid)[0])


def zero_mode_weights(data, grid: GridSpec) -> np.ndarray:
    """``zero_mode_weight`` of each state of ``data``, (states, 4, *grid)
    in momentum space."""
    w0 = np.sum(np.abs(data[(slice(None), slice(None), *grid.origin_index)]) ** 2, axis=1)
    v = data.reshape(len(data), -1).view(float)
    total = np.einsum("si,si->s", v, v)  # no |x|^2 temporary, and no BLAS call
    return np.divide(w0, total, out=np.zeros_like(w0), where=total > 0)


def suppress_zero_mode(field: SpinorField) -> SpinorField:
    """Remove the k = 0 amplitude and renormalize.

    Box truncation leaves wavepackets with a tiny (1e-10 .. 1e-7) zero-mode
    amplitude even when the Gaussian tail bound is negligible; stripping that
    one bin makes states exactly safe for operators with a k = 0 singularity
    while perturbing them far below every verification tolerance.
    """
    mom = field.to_momentum()
    vals = mom.data.copy()
    vals[(slice(None), *mom.grid.origin_index)] = 0.0
    out = mom.with_data(vals).normalized()
    return out.in_space(field.space)


def _as_vec3(v, dim, name):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size == 1 and dim == 1:
        v = np.array([float(v[0]), 0.0, 0.0])
    if v.shape != (3,):
        raise PreconditionError(f"{name} must be a 3-vector")
    if not np.isfinite(v).all():
        raise PreconditionError(f"{name} must be finite, got {v.tolist()}")
    if dim == 1 and (v[1] != 0.0 or v[2] != 0.0):
        raise PreconditionError(f"{name} must lie along x on a 1D grid")
    return v


#: the named packet polarizations: spin up or down along z or x, upper components
POLARIZATIONS = {
    "up_z": np.array([1, 0, 0, 0], dtype=complex),
    "down_z": np.array([0, 1, 0, 0], dtype=complex),
    "up_x": np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2),
    "down_x": np.array([1, -1, 0, 0], dtype=complex) / np.sqrt(2),
}


def gaussian_packet(grid: GridSpec, center, sigma: float, k0, polarization) -> SpinorField:
    """Normalized Gaussian wavepacket  pol * exp(-(r-c)^2/(4 sigma^2)) e^{i k0.r},
    in position space.

    ``sigma`` is the position-space standard deviation of |psi|^2.  Requires
    sigma >= 4 dx on every axis and the center at least 4 sigma from every
    boundary.
    """
    center = _as_vec3(center, grid.dim, "center")
    k0 = _as_vec3(k0, grid.dim, "k0")
    pol = np.asarray(polarization, dtype=complex)
    if pol.shape != (4,):
        raise PreconditionError("polarization must be a 4-spinor")
    if not np.isfinite(pol).all() or np.linalg.norm(pol) == 0:
        raise PreconditionError(f"polarization must be finite and nonzero, got {pol.tolist()}")
    pol = pol / np.linalg.norm(pol)
    if not math.isfinite(sigma):
        raise GridResolutionError(f"sigma must be finite, got {sigma}")

    for axis in range(grid.dim):
        dx = grid.dx[axis]
        if sigma < 4 * dx:
            raise GridResolutionError(
                f"sigma={sigma} under-resolved on axis {axis}: needs >= 4 dx = {4*dx}")
        half = grid.lengths[axis] / 2
        if abs(center[axis]) > half - 4 * sigma + 1e-12:
            raise GridResolutionError(
                f"center must sit >= 4 sigma from the boundary on axis {axis}")

    values = pol  # the envelope and the plane wave factor per axis, each folded by (-1)^n
    for axis, r in enumerate(map(grid.axis_positions, range(grid.dim))):
        values = np.multiply.outer(values, np.exp(-(r - center[axis]) ** 2 / (4.0 * sigma**2))
                                   * np.exp(1j * k0[axis] * r) * (-1.0) ** np.arange(len(r)))
    field = SpinorField(grid, values, POSITION, folded=True)
    field.data *= 1.0 / field.norm()  # one grid-size product, scaled in place
    return field


def matrix_entries(m):
    """The nonzero (row, col, entry) triples of a 4x4 matrix, a real entry as a
    float (so a real scalar array times it makes no complex temporary)."""
    return [(int(a), int(b), m[a, b].real if m[a, b].imag == 0 else m[a, b])
            for a, b in zip(*np.nonzero(m))]


def pointwise(psi, terms, out=None):
    """sum_j M_j f_j psi at every point in ``out``, a new array by default or psi
    itself where each row takes at most one product, of its own component;
    ``terms`` the pairs of M_j's ``matrix_entries`` and f_j, a number or an
    array broadcastable to psi[0].  A full-grid f_j psi_b goes into its row
    (or the accumulation row), where an entry m != 1 scales it in place, or
    subtracts it for m = -1, so no entry makes a grid-size temporary; a
    smaller f_j takes m f_j."""
    out = np.empty_like(psi) if out is None else out
    fresh = [True] * 4  # rows not yet written
    tmp = None  # made once a row takes a second product
    points = psi[0].size
    for entries, arr in terms:
        full = getattr(arr, "size", 1) == points
        for a, b, m in entries:
            first, negate = fresh[a], full and m == -1
            fresh[a] = False
            if not first and tmp is None:
                tmp = np.empty(psi.shape[1:], dtype=complex)
            dst = out[a] if first else tmp
            np.multiply(arr if m == 1 or full else m * arr, psi[b], out=dst)
            if full and m != 1 and not negate:
                dst *= m
            if first and negate:
                np.negative(dst, out=dst)
            elif not first:
                (np.subtract if negate else np.add)(out[a], tmp, out=out[a])
    for a in range(4):
        if fresh[a]:
            out[a] = 0.0
    return out


# -- binary dump -------------------------------------------------------------
# layout: magic 'RSPN' | version u8 | endian u8 ('<') | dim u8 | space u8
#         | per-axis u32 N | per-axis f64 L | complex128 C-order payload
_MAGIC = b"RSPN"


def save_field(field: SpinorField, path):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([1, ord("<"), field.grid.dim,
                        0 if field.space == POSITION else 1]))
        np.asarray(field.grid.n, dtype="<u4").tofile(fh)
        np.asarray(field.grid.lengths, dtype="<f8").tofile(fh)
        np.ascontiguousarray(field.values).astype("<c16").tofile(fh)


def load_field(path) -> SpinorField:
    """Read a dump written by ``save_field``; a malformed file raises
    PreconditionError naming the defect."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise PreconditionError(f"not a spinor-field dump: magic {magic!r}")
        header = fh.read(4)
        if len(header) != 4:
            raise PreconditionError("dump truncated inside the 8-byte header")
        version, endian, dim, space_flag = header
        if version != 1 or chr(endian) != "<":
            raise PreconditionError("unsupported dump version or endianness")
        if dim not in (1, 3):
            raise PreconditionError(f"dump grid dimension must be 1 or 3, got {dim}")
        if space_flag not in (0, 1):
            raise PreconditionError(
                f"dump space byte must be 0 (position) or 1 (momentum), got {space_flag}")
        axes = fh.read(12 * dim)
        if len(axes) != 12 * dim:
            raise PreconditionError("dump truncated inside the per-axis fields")
        n = np.frombuffer(axes, dtype="<u4", count=dim)
        lengths = np.frombuffer(axes, dtype="<f8", count=dim, offset=4 * dim)
        grid = GridSpec(int(dim), n.tolist(), lengths.tolist())
        want = 4 * grid.npoints * 16
        got = os.fstat(fh.fileno()).st_size - fh.tell()
        if got != want:
            raise PreconditionError(
                f"dump payload {'truncated' if got < want else 'has trailing bytes'}: "
                f"{got} bytes where the grid needs {want}")
        values = np.fromfile(fh, dtype="<c16").reshape((4, *grid.shape))
    if not np.all(np.isfinite(values)):
        raise PreconditionError("dump payload holds NaN or Inf values")
    return SpinorField(grid, values, POSITION if space_flag == 0 else MOMENTUM)
