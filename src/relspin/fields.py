"""Closed-form electromagnetic field configurations.

Every model supplies the potentials (A, phi) together with E, B and the time
derivatives dB/dt, d2B/dt2 (plus dE/dt and div E, which the fourth-order
Hamiltonian terms need) as analytic closed forms -- derivatives are never
finite-differenced in production code.  Each quantity is transcribed once,
in the model's vectorized ``*_mesh`` method, which every operator reads.
The tests check the meshes against a closed form of the potentials alone:
B = curl A, E = -dA/dt - grad phi, the time derivatives and div E follow
from it and from the meshes by complex-step differentiation, so the meshes
stay complex-safe (no ``float()`` of a coordinate or a time).

A model's read-only ``time_dependent`` says whether its meshes can change
with t.  It is derived from the model, never set: False for ``ZeroField``
and for ``UniformB``/``UniformE`` under a constant envelope, True otherwise.
The operator builders read each mesh vector through
``hamiltonians.ModelVector``, whose mesh is pooled (``expr.pooled``): it is
called once per (grid, t), or once per grid when the model is static, and
the flag goes to every leaf built on it, so the leaves of a static field
fill once per grid instead of at every t.

Models
------
Zero            everything vanishes.
UniformB        B(t) = B0 g(t) with the symmetric gauge A = B(t) x r / 2 and
                phi = 0, so E = -(B0 x r)/2 g'(t) is the induced field.  A
                strictly uniform time-varying B is an idealization (its
                source-free Maxwell partner would not be uniform); it is kept
                because the closed-form spin dynamics is derived in exactly
                this gauge.
UniformE        E(t) = E0 g(t) via the scalar potential phi = -E0.r g(t).
PlaneWavePulse  A = -(E0/omega) sin(u) G(u), u = k.r - omega t, with a
                Gaussian envelope G; E and B follow by differentiation and
                satisfy Faraday's law identically.

Envelopes g(t) are limited to shapes whose g' and g'' are closed-form:
constant, polynomials of degree <= 2, Gaussian, sinusoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import PreconditionError

__all__ = [
    "Envelope", "FieldModel", "ZeroField", "UniformB", "UniformE", "PlaneWavePulse",
]


@dataclass(frozen=True)
class Envelope:
    """Scalar time profile g(t) with analytic first and second derivatives.

    shape:
      "constant"    g = value
      "poly"        g = coeffs[0] + coeffs[1] t + coeffs[2] t^2
      "gaussian"    g = amplitude * exp(-(t-center)^2 / (2 width^2))
      "sinusoid"    g = amplitude * cos(omega t + phase)
    """

    shape: str = "constant"
    value: float = 1.0
    coeffs: tuple = (0.0, 0.0, 0.0)
    amplitude: float = 1.0
    center: float = 0.0
    width: float = 1.0
    omega: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.shape not in ("constant", "poly", "gaussian", "sinusoid"):
            raise PreconditionError(f"unsupported envelope shape {self.shape!r}")
        if self.shape == "gaussian" and not self.width > 0:
            raise PreconditionError("gaussian envelope needs width > 0")

    def __call__(self, t: float) -> float:
        return self.derivatives(t)[0]

    def derivatives(self, t: float):
        """(g, g', g'') at time t."""
        if self.shape == "constant":
            return self.value, 0.0, 0.0
        if self.shape == "poly":
            a0, a1, a2 = self.coeffs
            return a0 + a1 * t + a2 * t * t, a1 + 2.0 * a2 * t, 2.0 * a2
        if self.shape == "gaussian":
            u = (t - self.center) / self.width
            g = self.amplitude * np.exp(-0.5 * u * u)
            gp = -u / self.width * g
            gpp = (u * u - 1.0) / self.width**2 * g
            return g, gp, gpp
        w, ph = self.omega, self.phase
        g = self.amplitude * np.cos(w * t + ph)
        gp = -self.amplitude * w * np.sin(w * t + ph)
        gpp = -(w * w) * g
        return g, gp, gpp


class FieldModel:
    """Base class; subclasses implement the vectorized ``*_mesh`` evaluators,
    the one transcription of each field quantity, which every grid operator
    reads.  Mesh arguments are broadcastable coordinate arrays (absent axes
    enter as the scalar 0.0) and the returned components are arrays or
    scalars broadcastable against them; a uniform quantity comes back as
    scalars, which the operator leaves treat as constants.  Three floats
    give the values at one point.  A mesh must accept complex coordinates
    and times (no ``float()`` of either): the tests differentiate the meshes
    by complex steps."""

    #: B, dB/dt, d2B/dt2 do not depend on position (true for all but plane waves)
    uniform_b = True
    #: phi is identically zero
    has_scalar_potential = False

    @property
    def time_dependent(self) -> bool:
        """Whether the meshes can change with t (True unless a model knows
        better)."""
        return True

    def a_mesh(self, r, t):  # every vector mesh a subclass does not define
        return [0.0, 0.0, 0.0]

    e_mesh = b_mesh = dedt_mesh = dbdt_mesh = d2bdt2_mesh = a_mesh

    def phi_mesh(self, r, t):  # every scalar mesh a subclass does not define
        return 0.0

    dive_mesh = phi_mesh

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass
class ZeroField(FieldModel):
    @property
    def time_dependent(self):
        return False

    def describe(self):
        return {"type": "zero"}


def _dot_mesh(coeffs, r):
    """sum_j coeffs[j] r_j for broadcastable meshes r, over the nonzero
    coefficients only: the mesh varies along no axis it does not read, so
    its leaves transform no other axis (``expr``); 0.0 when all are zero."""
    return sum((c * x for c, x in zip(coeffs, r) if c != 0), 0.0)


def _cross_mesh(v, r):
    """(v x r) for numeric 3-vector v and broadcastable meshes r."""
    return [_dot_mesh((0.0, -v[2], v[1]), r),
            _dot_mesh((v[2], 0.0, -v[0]), r),
            _dot_mesh((-v[1], v[0], 0.0), r)]


@dataclass
class UniformB(FieldModel):
    b0: np.ndarray = dataclass_field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    envelope: Envelope = dataclass_field(default_factory=Envelope)

    def __post_init__(self):
        self.b0 = np.asarray(self.b0, dtype=float)

    @property
    def time_dependent(self):
        return self.envelope.shape != "constant"

    def a_mesh(self, r, t):
        g = self.envelope.derivatives(t)[0]
        return [0.5 * g * c for c in _cross_mesh(self.b0, r)]

    def e_mesh(self, r, t):
        gp = self.envelope.derivatives(t)[1]
        return [-0.5 * gp * c for c in _cross_mesh(self.b0, r)]

    def dedt_mesh(self, r, t):
        gpp = self.envelope.derivatives(t)[2]
        return [-0.5 * gpp * c for c in _cross_mesh(self.b0, r)]

    def b_mesh(self, r, t):
        g = self.envelope.derivatives(t)[0]
        return [self.b0[0] * g, self.b0[1] * g, self.b0[2] * g]

    def dbdt_mesh(self, r, t):
        gp = self.envelope.derivatives(t)[1]
        return [self.b0[0] * gp, self.b0[1] * gp, self.b0[2] * gp]

    def d2bdt2_mesh(self, r, t):
        gpp = self.envelope.derivatives(t)[2]
        return [self.b0[0] * gpp, self.b0[1] * gpp, self.b0[2] * gpp]

    def describe(self):
        return {"type": "uniform_b", "b0": self.b0.tolist(),
                "envelope": self.envelope.shape}


@dataclass
class UniformE(FieldModel):
    e0: np.ndarray = dataclass_field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    envelope: Envelope = dataclass_field(default_factory=Envelope)

    has_scalar_potential = True

    def __post_init__(self):
        self.e0 = np.asarray(self.e0, dtype=float)

    @property
    def time_dependent(self):
        return self.envelope.shape != "constant"

    def phi_mesh(self, r, t):
        g = self.envelope.derivatives(t)[0]
        return -_dot_mesh(self.e0, r) * g

    def e_mesh(self, r, t):
        g = self.envelope.derivatives(t)[0]
        return [self.e0[0] * g, self.e0[1] * g, self.e0[2] * g]

    def dedt_mesh(self, r, t):
        gp = self.envelope.derivatives(t)[1]
        return [self.e0[0] * gp, self.e0[1] * gp, self.e0[2] * gp]

    def describe(self):
        return {"type": "uniform_e", "e0": self.e0.tolist(),
                "envelope": self.envelope.shape}


def _pulse_shape(u, center, width):
    """s = sin(u) G(u) with G a Gaussian; returns (s, s', s'', s''')."""
    x = (u - center) / width
    g = np.exp(-0.5 * x * x)
    g1 = -x / width * g
    g2 = (x * x - 1.0) / width**2 * g
    g3 = x * (3.0 - x * x) / width**3 * g
    sn, cs = np.sin(u), np.cos(u)
    s = sn * g
    s1 = cs * g + sn * g1
    s2 = -sn * g + 2.0 * cs * g1 + sn * g2
    s3 = -cs * g - 3.0 * sn * g1 + 3.0 * cs * g2 + sn * g3
    return s, s1, s2, s3


@dataclass
class PlaneWavePulse(FieldModel):
    """Gaussian-enveloped plane wave parametrized by the peak E amplitude.

    With u = k.r - omega t:
        A(r,t) = (E0/omega) s(u),    s(u) = sin(u) G(u)
        E = -dA/dt = E0 s'(u)           (peak |E| ~ |E0|)
        B = curl A = (k x E0/omega) s'(u)
    Faraday's law curl E = -dB/dt holds identically for any envelope.
    """

    e0: np.ndarray = dataclass_field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    wavevector: np.ndarray = dataclass_field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    omega: float = 1.0
    env_center: float = 0.0
    env_width: float = 5.0

    uniform_b = False

    def __post_init__(self):
        self.e0 = np.asarray(self.e0, dtype=float)
        self.wavevector = np.asarray(self.wavevector, dtype=float)
        self._kxe = np.cross(self.wavevector, self.e0)
        if self.omega == 0:
            raise PreconditionError("plane-wave pulse needs omega != 0")
        if not self.env_width > 0:
            raise PreconditionError("plane-wave pulse needs env_width > 0")

    def _shape(self, r, t):  # (s, s', s'', s''') at u = k.r - omega t on the mesh r
        u = _dot_mesh(self.wavevector, r) - self.omega * t
        return _pulse_shape(u, self.env_center, self.env_width)

    def a_mesh(self, r, t):
        s = self._shape(r, t)[0]
        return [(c / self.omega) * s for c in self.e0]

    def e_mesh(self, r, t):
        s1 = self._shape(r, t)[1]
        return [c * s1 for c in self.e0]

    def b_mesh(self, r, t):
        s1 = self._shape(r, t)[1]
        return [(c / self.omega) * s1 for c in self._kxe]

    def dedt_mesh(self, r, t):
        s2 = self._shape(r, t)[2]
        return [-c * self.omega * s2 for c in self.e0]

    def dbdt_mesh(self, r, t):
        s2 = self._shape(r, t)[2]
        return [-c * s2 for c in self._kxe]

    def d2bdt2_mesh(self, r, t):
        s3 = self._shape(r, t)[3]
        return [c * self.omega * s3 for c in self._kxe]

    def dive_mesh(self, r, t):
        s2 = self._shape(r, t)[2]
        return float(np.dot(self.wavevector, self.e0)) * s2

    def describe(self):
        return {"type": "plane_wave", "e0": self.e0.tolist(),
                "wavevector": self.wavevector.tolist(), "omega": self.omega}

