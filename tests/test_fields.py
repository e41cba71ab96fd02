"""The field models against their potentials.  Each model's (A, phi) is
written here once, in closed form; every other quantity follows from it or
from the meshes by complex-step differentiation, f'(x) = Im f(x + ih)/h
(Squire & Trapp, SIAM Rev. 40, 1998), which is exact to roundoff, so every
relation holds to 1e-14."""

import numpy as np
import pytest

from relspin.errors import PreconditionError
from relspin.fields import Envelope, FieldModel, PlaneWavePulse, UniformB, UniformE, ZeroField

_MESHES = ("a_mesh", "phi_mesh", "e_mesh", "b_mesh", "dedt_mesh", "dbdt_mesh",
           "d2bdt2_mesh", "dive_mesh")
_H = 1e-30  # the complex step


def _at(model, name, r, t, dtype=float):
    """The ``name`` mesh at one point r (three numbers) and time t: a (3,)
    array for a vector mesh, a 0-d one for a scalar mesh."""
    return np.array(getattr(model, name)(tuple(r), t), dtype=dtype)


def _point(model, r, t):
    """Every mesh at one point, keyed by its name without ``_mesh``."""
    return {name[:-5]: _at(model, name, r, t) for name in _MESHES}


def _g(env, t):
    """The envelope g(t) of the ``Envelope`` docstring."""
    if env.shape == "constant":
        return env.value
    if env.shape == "poly":
        return env.coeffs[0] + env.coeffs[1] * t + env.coeffs[2] * t * t
    if env.shape == "gaussian":
        return env.amplitude * np.exp(-(t - env.center) ** 2 / (2 * env.width ** 2))
    return env.amplitude * np.cos(env.omega * t + env.phase)


def _potentials(model, r, t):
    """The reference (A, phi) of each model, for complex r and t too."""
    r = np.asarray(r)
    if isinstance(model, UniformB):
        return 0.5 * _g(model.envelope, t) * np.cross(model.b0, r), 0.0
    if isinstance(model, UniformE):
        return np.zeros(3), -_g(model.envelope, t) * np.dot(model.e0, r)
    if isinstance(model, PlaneWavePulse):
        u = np.dot(model.wavevector, r) - model.omega * t
        envelope = np.exp(-0.5 * ((u - model.env_center) / model.env_width) ** 2)
        return model.e0 / model.omega * np.sin(u) * envelope, 0.0
    assert isinstance(model, ZeroField)
    return np.zeros(3), 0.0


def _step(f, r, t, axis):
    """df/dx_axis of f(r, t) at (r, t), with x = (r_x, r_y, r_z, t), by one
    complex step."""
    x = np.array([*r, t], dtype=complex)
    x[axis] += 1j * _H
    return np.imag(f(x[:3], x[3])) / _H


def _curl(f, r, t):
    d = [_step(f, r, t, j) for j in range(3)]  # d[j][i] = df_i/dr_j
    return np.array([d[1][2] - d[2][1], d[2][0] - d[0][2], d[0][1] - d[1][0]])


def _div(f, r, t):
    return sum(_step(f, r, t, j)[j] for j in range(3))


def _mesh(model, name):
    return lambda r, t: _at(model, name, r, t, complex)


def _derived(model, r, t):
    """What each mesh must read at (r, t): A and phi are the reference, B =
    curl A and E = -dA/dt - grad phi follow from it, dB/dt, d2B/dt2 and dE/dt
    are the t-derivatives of the b, dbdt and e meshes, and div E is the
    divergence of the e mesh."""
    def a(r, t):
        return _potentials(model, r, t)[0]

    def phi(r, t):
        return _potentials(model, r, t)[1]

    e = _mesh(model, "e_mesh")
    return {"a_mesh": a(r, t), "phi_mesh": phi(r, t), "b_mesh": _curl(a, r, t),
            "e_mesh": -_step(a, r, t, 3) - np.array([_step(phi, r, t, j) for j in range(3)]),
            "dbdt_mesh": _step(_mesh(model, "b_mesh"), r, t, 3),
            "d2bdt2_mesh": _step(_mesh(model, "dbdt_mesh"), r, t, 3),
            "dedt_mesh": _step(e, r, t, 3), "dive_mesh": _div(e, r, t)}


def _deviations(model, r, t):
    """The largest |mesh - derived| of each mesh at (r, t), and under
    "faraday" that of curl E = -dB/dt, both read from the meshes."""
    want = _derived(model, r, t)
    dev = {name: np.max(np.abs(_at(model, name, r, t) - want[name])) for name in _MESHES}
    curl_e = _curl(_mesh(model, "e_mesh"), r, t)
    dev["faraday"] = np.max(np.abs(curl_e + _at(model, "dbdt_mesh", r, t)))
    return dev


def _lattice(model, name, r, t):
    """The ``name`` mesh on the lattice r, one row per component, each
    broadcast to the lattice."""
    value = getattr(model, name)(r, t)
    shape = np.broadcast_shapes(*(np.shape(x) for x in r))
    return np.array([np.broadcast_to(c, shape)
                     for c in (value if isinstance(value, list) else [value])])


_ENVELOPES = [
    Envelope(value=0.8),
    Envelope(shape="poly", coeffs=(0.3, -1.2, 0.4)),
    Envelope(shape="gaussian", amplitude=2.0, center=1.5, width=0.8),
    Envelope(shape="sinusoid", amplitude=0.7, omega=2.2, phase=0.3),
]
_MODELS = [ZeroField(), PlaneWavePulse()] + [
    cls(np.array([0.1, -0.2, 0.3]), env) for cls in (UniformB, UniformE) for env in _ENVELOPES]
_LONGITUDINAL = PlaneWavePulse(np.array([0.5, 0.0, 0.0]), np.array([0.8, 0.0, 0.0]), omega=0.8)


class TestEnvelope:
    @pytest.mark.parametrize("env", [
        Envelope(),
        Envelope(shape="poly", coeffs=(0.3, -1.2, 0.4)),
        Envelope(shape="gaussian", amplitude=2.0, center=1.5, width=0.8),
        Envelope(shape="sinusoid", amplitude=0.7, omega=2.2, phase=0.3),
    ])
    def test_derivatives_match_finite_differences(self, env):
        h = 1e-5
        for t in (-1.0, 0.0, 0.7, 2.3):
            g, gp, gpp = env.derivatives(t)
            num_p = (env(t + h) - env(t - h)) / (2 * h)
            num_pp = (env(t + h) - 2 * env(t) + env(t - h)) / h**2
            assert abs(gp - num_p) <= 1e-8 * max(1, abs(gp))
            assert abs(gpp - num_pp) <= 1e-5 * max(1, abs(gpp))

    def test_unknown_shape(self):
        with pytest.raises(PreconditionError):
            Envelope(shape="sawtooth")


class TestZeroField:
    def test_everything_vanishes(self):
        for name, value in _point(ZeroField(), [1.0, -2.0, 3.0], 0.7).items():
            assert np.all(value == 0), name

    def test_probe_zero(self):
        dev = _deviations(ZeroField(), [0.3, 0.1, -0.2], 0.0)
        assert all(v == 0 for v in dev.values()), dev


class TestUniformB:
    def test_constant_envelope_sample(self):
        model = UniformB(np.array([0.0, 0.0, 1.0]))
        s = _point(model, [1.0, 0.0, 0.0], 0.0)
        assert np.allclose(s["a"], [0.0, 0.5, 0.0])
        assert np.allclose(s["b"], [0.0, 0.0, 1.0])
        assert np.all(s["e"] == 0) and np.all(s["dbdt"] == 0)

    def test_quadratic_envelope(self):
        # g(t) = t^2/2: B(0)=0, B'(0)=0, B''(0)=B0, E(0)=0
        model = UniformB(np.array([0.0, 0.0, 1.0]),
                         Envelope(shape="poly", coeffs=(0.0, 0.0, 0.5)))
        s = _point(model, [1.0, 0.0, 0.0], 0.0)
        assert np.all(s["b"] == 0) and np.all(s["dbdt"] == 0)
        assert np.allclose(s["d2bdt2"], [0.0, 0.0, 1.0])
        assert np.all(s["e"] == 0)
        s1 = _point(model, [1.0, 0.0, 0.0], 1.0)
        assert np.allclose(s1["b"], [0, 0, 0.5])
        assert np.allclose(s1["dbdt"], [0, 0, 1.0])
        # E = -(B0 x r)/2 g'(t); B0 x r = (0,1,0) at r = x
        assert np.allclose(s1["e"], [0.0, -0.5, 0.0])

    def test_induced_field_exact(self, rng):
        env = Envelope(shape="gaussian", amplitude=1.3, center=0.4, width=2.0)
        model = UniformB(np.array([0.2, -0.5, 0.9]), env)
        for _ in range(5):
            r = rng.normal(size=3)
            t = rng.uniform(-1, 1)
            gp = _step(lambda r, t: _g(env, t), r, t, 3)
            want = -0.5 * np.cross(model.b0, r) * gp
            assert np.allclose(_at(model, "e_mesh", r, t), want, rtol=0, atol=1e-14)

    def test_probe_linear_potential_exact(self):
        model = UniformB(np.array([0.0, 0.0, 1.0]))
        r = [0.7, -0.3, 0.2]
        dev = _deviations(model, r, 0.0)
        assert dev["b_mesh"] <= 1e-14 and dev["e_mesh"] <= 1e-14
        assert abs(_div(_mesh(model, "a_mesh"), r, 0.0)) <= 1e-14  # Coulomb gauge

    def test_faraday_consistency(self):
        # curl E = -dB/dt for the induced field of the symmetric gauge
        env = Envelope(shape="sinusoid", amplitude=0.8, omega=1.7)
        model = UniformB(np.array([0.0, 0.0, 1.0]), env)
        assert _deviations(model, [0.4, -0.8, 0.3], 0.6)["faraday"] <= 1e-14

    def test_mesh_matches_sample(self):
        # the operators read B and its time derivatives from the lattice meshes
        env = Envelope(shape="gaussian", amplitude=1.0, center=0.0, width=3.0)
        model = UniformB(np.array([0.1, 0.2, 0.9]), env)
        rx = np.array([0.5, -1.0])
        t = 0.9
        for idx, x in enumerate(rx):
            want = _derived(model, [x, 0.7, -0.3], t)
            for name in _MESHES:
                got = _lattice(model, name, (rx, 0.7, -0.3), t)[:, idx]
                assert np.max(np.abs(got - want[name])) <= 1e-14, name


class TestUniformE:
    def test_scalar_potential_gauge(self):
        model = UniformE(np.array([0.0, 0.0, 0.3]))
        s = _point(model, [0.0, 0.0, 2.0], 0.0)
        assert np.allclose(s["e"], [0, 0, 0.3])
        assert abs(s["phi"] - (-0.6)) <= 1e-15
        assert np.all(s["a"] == 0) and np.all(s["b"] == 0)

    def test_probe(self):
        model = UniformE(np.array([0.1, -0.2, 0.3]),
                         Envelope(shape="sinusoid", amplitude=1.0, omega=0.9))
        dev = _deviations(model, [0.4, 0.2, -0.7], 0.3)
        assert max(dev.values()) <= 1e-14, dev


class TestPlaneWavePulse:
    def pulse(self):
        return PlaneWavePulse(np.array([0.0, 0.5, 0.0]),
                              np.array([0.8, 0.0, 0.0]), omega=0.8,
                              env_center=0.0, env_width=6.0)

    def test_probe(self):
        dev = _deviations(self.pulse(), [0.6, 0.0, 0.0], 0.4)
        assert dev["b_mesh"] <= 1e-14 and dev["e_mesh"] <= 1e-14

    def test_transverse_divergence_free(self):
        assert _at(self.pulse(), "dive_mesh", [0.3, 0.1, 0.2], 0.5) == 0.0

    def test_longitudinal_divergence(self):
        r = [0.2, 0.0, 0.0]
        assert abs(_at(_LONGITUDINAL, "dive_mesh", r, 0.1)) > 1e-2
        assert _deviations(_LONGITUDINAL, r, 0.1)["dive_mesh"] <= 1e-14

    def test_time_derivatives(self):
        model = self.pulse()
        for t in (0.0, 0.8):
            dev = _deviations(model, [0.15, 0.0, 0.0], t)
            for name in ("dbdt_mesh", "d2bdt2_mesh", "dedt_mesh"):
                assert dev[name] <= 1e-14, name

    def test_mesh_matches_sample(self):
        model = self.pulse()
        xs = np.array([-0.4, 0.9, 2.2])
        t = 0.35
        for idx, x in enumerate(xs):
            want = _derived(model, [x, 0.0, 0.0], t)
            for name in _MESHES:
                got = _lattice(model, name, (xs, 0.0, 0.0), t)[:, idx]
                assert np.max(np.abs(got - want[name])) <= 1e-14, name


class TestMaxwell:
    """Every mesh of every model follows from the model's potentials, and
    curl E = -dB/dt, at random points to 1e-14."""

    @pytest.mark.parametrize("model", _MODELS + [_LONGITUDINAL],
                             ids=lambda m: "-".join(map(str, m.describe().values())))
    def test_meshes_follow_from_the_potentials(self, model):
        rng = np.random.default_rng(23)  # not the session rng: other tests' draws stay put
        for _ in range(4):
            dev = _deviations(model, rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.0, 1.0))
            assert max(dev.values()) <= 1e-14, dev


class TestMeshShapes:
    """A mesh varies only along the axes its formula reads (an operator leaf
    built on it transforms no other axis), with the values the same mesh
    reads at each point."""

    _R = (np.array([-1.0, 0.2, 1.3]).reshape(3, 1, 1),
          np.array([-0.7, -0.1, 0.4, 0.9]).reshape(1, 4, 1),
          np.array([-1.1, -0.6, 0.0, 0.5, 0.8]).reshape(1, 1, 5))
    _ENV = Envelope(shape="gaussian", amplitude=1.0, center=0.3, width=2.0)

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("kind, tol", [("uniform_b", 1e-14), ("uniform_e", 1e-14),
                                           ("plane_wave", 1e-13)])
    def test_axis_aligned_vectors(self, kind, tol, axis):
        along = 0.6 * np.eye(3)[axis]
        model = {"uniform_b": lambda: UniformB(along, self._ENV),
                 "uniform_e": lambda: UniformE(along, self._ENV),
                 "plane_wave": lambda: PlaneWavePulse(0.5 * np.eye(3)[(axis + 1) % 3], along,
                                                      omega=0.8, env_width=6.0)}[kind]()
        t = 0.4
        points = np.stack(np.broadcast_arrays(*self._R), axis=-1)
        for name in _MESHES:
            got = getattr(model, name)(self._R, t)
            want = np.array([[[_at(model, name, r, t) for r in row] for row in plane]
                             for plane in points])
            for comp, mesh in enumerate(got if isinstance(got, list) else [got]):
                ref = want[..., comp] if want.ndim == 4 else want
                # an all-zero mesh (a plane wave's component along no e0 or
                # k x e0) is held by the leaves as a 0-d zero
                shape = np.broadcast_shapes(np.shape(mesh) if np.any(mesh) else (), (1, 1, 1))
                for k in range(3):
                    reads = bool(np.any(np.diff(ref, axis=k) != 0))
                    assert (shape[k] > 1) == reads, (name, comp, k)
                assert np.max(np.abs(np.broadcast_to(mesh, ref.shape) - ref)) <= tol


class TestTimeDependent:
    """``time_dependent`` is derived from the model and read-only, and a model
    that says False has meshes that do not change with t, which is what lets
    its leaves fill once per grid."""

    @pytest.mark.parametrize("model", _MODELS, ids=lambda m: str(m.describe()))
    def test_derived_from_the_model(self, model):
        static = (isinstance(model, ZeroField) or
                  (isinstance(model, (UniformB, UniformE))
                   and model.envelope.shape == "constant"))
        assert model.time_dependent is not static
        with pytest.raises(AttributeError):
            model.time_dependent = static

    def test_base_class_is_time_dependent(self):
        assert FieldModel().time_dependent is True

    @pytest.mark.parametrize("model", [m for m in _MODELS if not m.time_dependent],
                             ids=lambda m: str(m.describe()))
    def test_static_meshes_do_not_change_with_t(self, model):
        r = np.meshgrid(*(np.linspace(-3.0, 3.0, 5),) * 3, indexing="ij")
        for name in _MESHES:
            mesh = getattr(model, name)
            early, late = mesh(r, 0.0), mesh(r, 1.3)
            if name in ("phi_mesh", "dive_mesh"):
                early, late = [early], [late]
            for a, b in zip(early, late):
                assert np.array_equal(np.asarray(a), np.asarray(b)), name
