import numpy as np
import pytest

from relspin.errors import PreconditionError
from relspin.fields import (Envelope, FieldModel, PlaneWavePulse, UniformB, UniformE,
                            ZeroField, maxwell_probe)


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
        s = ZeroField().sample([1.0, -2.0, 3.0], 0.7)
        for v in (s.A, s.E, s.B, s.dBdt, s.d2Bdt2, s.dEdt):
            assert np.all(v == 0)
        assert s.phi == 0 and s.divE == 0

    def test_probe_zero(self):
        probe = maxwell_probe(ZeroField(), [0.3, 0.1, -0.2], 0.0)
        assert probe["curl_residual"] == 0
        assert probe["e_residual"] == 0


class TestUniformB:
    def test_constant_envelope_sample(self):
        model = UniformB(np.array([0.0, 0.0, 1.0]))
        s = model.sample([1.0, 0.0, 0.0], 0.0)
        assert np.allclose(s.A, [0.0, 0.5, 0.0])
        assert np.allclose(s.B, [0.0, 0.0, 1.0])
        assert np.all(s.E == 0) and np.all(s.dBdt == 0)

    def test_quadratic_envelope(self):
        # g(t) = t^2/2: B(0)=0, B'(0)=0, B''(0)=B0, E(0)=0
        model = UniformB(np.array([0.0, 0.0, 1.0]),
                         Envelope(shape="poly", coeffs=(0.0, 0.0, 0.5)))
        s = model.sample([1.0, 0.0, 0.0], 0.0)
        assert np.all(s.B == 0) and np.all(s.dBdt == 0)
        assert np.allclose(s.d2Bdt2, [0.0, 0.0, 1.0])
        assert np.all(s.E == 0)
        s1 = model.sample([1.0, 0.0, 0.0], 1.0)
        assert np.allclose(s1.B, [0, 0, 0.5])
        assert np.allclose(s1.dBdt, [0, 0, 1.0])
        # E = -(B0 x r)/2 g'(t); B0 x r = (0,1,0) at r = x
        assert np.allclose(s1.E, [0.0, -0.5, 0.0])

    def test_induced_field_exact(self, rng):
        env = Envelope(shape="gaussian", amplitude=1.3, center=0.4, width=2.0)
        model = UniformB(np.array([0.2, -0.5, 0.9]), env)
        for _ in range(5):
            r = rng.normal(size=3)
            t = rng.uniform(-1, 1)
            s = model.sample(r, t)
            gp = env.derivatives(t)[1]
            assert np.allclose(s.E, -0.5 * np.cross(model.b0, r) * gp, atol=1e-14)

    def test_probe_linear_potential_exact(self):
        model = UniformB(np.array([0.0, 0.0, 1.0]))
        probe = maxwell_probe(model, [0.7, -0.3, 0.2], 0.0, h=1e-3)
        assert probe["curl_residual"] <= 1e-8
        assert probe["e_residual"] <= 1e-8
        assert probe["div_a"] <= 1e-10

    def test_faraday_consistency(self):
        # curl E = -dB/dt for the induced field of the symmetric gauge
        env = Envelope(shape="sinusoid", amplitude=0.8, omega=1.7)
        model = UniformB(np.array([0.0, 0.0, 1.0]), env)
        r = np.array([0.4, -0.8, 0.3])
        t = 0.6
        h = 1e-4
        jac = np.zeros((3, 3))
        for j in range(3):
            dr = np.zeros(3)
            dr[j] = h
            jac[:, j] = (model.sample(r + dr, t).E - model.sample(r - dr, t).E) / (2 * h)
        curl_e = np.array([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0],
                           jac[1, 0] - jac[0, 1]])
        assert np.allclose(curl_e, -model.sample(r, t).dBdt, atol=1e-9)

    def test_mesh_matches_sample(self, rng):
        env = Envelope(shape="gaussian", amplitude=1.0, center=0.0, width=3.0)
        model = UniformB(np.array([0.1, 0.2, 0.9]), env)
        rx = np.array([0.5, -1.0])
        mesh = (rx, 0.7, -0.3)
        t = 0.9
        for idx, x in enumerate(rx):
            s = model.sample([x, 0.7, -0.3], t)
            # the operators read B and its time derivatives from the meshes
            pairs = ((model.a_mesh, s.A), (model.e_mesh, s.E), (model.b_mesh, s.B),
                     (model.dbdt_mesh, s.dBdt), (model.d2bdt2_mesh, s.d2Bdt2),
                     (model.dedt_mesh, s.dEdt))
            for comp in range(3):
                for fn, want in pairs:
                    got = np.broadcast_to(fn(mesh, t)[comp], rx.shape)[idx]
                    assert abs(got - want[comp]) <= 1e-14


class TestUniformE:
    def test_scalar_potential_gauge(self):
        model = UniformE(np.array([0.0, 0.0, 0.3]))
        s = model.sample([0.0, 0.0, 2.0], 0.0)
        assert np.allclose(s.E, [0, 0, 0.3])
        assert abs(s.phi - (-0.6)) <= 1e-15
        assert np.all(s.A == 0) and np.all(s.B == 0)

    def test_probe(self):
        model = UniformE(np.array([0.1, -0.2, 0.3]),
                         Envelope(shape="sinusoid", amplitude=1.0, omega=0.9))
        probe = maxwell_probe(model, [0.4, 0.2, -0.7], 0.3, h=1e-4)
        assert probe["curl_residual"] <= 1e-10
        assert probe["e_residual"] <= 1e-8


class TestPlaneWavePulse:
    def pulse(self):
        return PlaneWavePulse(np.array([0.0, 0.5, 0.0]),
                              np.array([0.8, 0.0, 0.0]), omega=0.8,
                              env_center=0.0, env_width=6.0)

    def test_probe_second_order(self):
        model = self.pulse()
        r = np.array([0.6, 0.0, 0.0])
        p1 = maxwell_probe(model, r, 0.4, h=2e-3)
        p2 = maxwell_probe(model, r, 0.4, h=1e-3)
        assert p1["curl_residual"] / p2["curl_residual"] == pytest.approx(4.0, rel=0.1)
        assert p2["curl_residual"] <= 1e-5
        assert p2["e_residual"] <= 1e-5

    def test_transverse_divergence_free(self):
        model = self.pulse()
        s = model.sample([0.3, 0.1, 0.2], 0.5)
        assert s.divE == 0.0

    def test_longitudinal_divergence(self):
        model = PlaneWavePulse(np.array([0.5, 0.0, 0.0]),
                               np.array([0.8, 0.0, 0.0]), omega=0.8)
        h = 1e-4
        r = np.array([0.2, 0.0, 0.0])
        num = (model.sample(r + [h, 0, 0], 0.1).E[0]
               - model.sample(r - [h, 0, 0], 0.1).E[0]) / (2 * h)
        assert abs(num - model.sample(r, 0.1).divE) <= 1e-6

    def test_time_derivatives(self):
        model = self.pulse()
        r = np.array([0.15, 0.0, 0.0])
        h = 1e-5
        for t in (0.0, 0.8):
            dbdt_num = (model.sample(r, t + h).B - model.sample(r, t - h).B) / (2 * h)
            assert np.allclose(dbdt_num, model.sample(r, t).dBdt, atol=1e-7)
            d2_num = (model.sample(r, t + h).dBdt - model.sample(r, t - h).dBdt) / (2 * h)
            assert np.allclose(d2_num, model.sample(r, t).d2Bdt2, atol=1e-6)
            dedt_num = (model.sample(r, t + h).E - model.sample(r, t - h).E) / (2 * h)
            assert np.allclose(dedt_num, model.sample(r, t).dEdt, atol=1e-7)

    def test_mesh_matches_sample(self):
        model = self.pulse()
        xs = np.array([-0.4, 0.9, 2.2])
        t = 0.35
        mesh = (xs, 0.0, 0.0)
        for idx, x in enumerate(xs):
            s = model.sample([x, 0.0, 0.0], t)
            for comp in range(3):
                for name, fn in (("a", model.a_mesh), ("e", model.e_mesh),
                                 ("b", model.b_mesh), ("dbdt", model.dbdt_mesh)):
                    got = np.broadcast_to(fn(mesh, t)[comp], xs.shape)[idx]
                    want = {"a": s.A, "e": s.E, "b": s.B, "dbdt": s.dBdt}[name][comp]
                    assert abs(got - want) <= 1e-13


_MESHES = ("a_mesh", "phi_mesh", "e_mesh", "b_mesh", "dedt_mesh", "dbdt_mesh",
           "d2bdt2_mesh", "dive_mesh")
_SAMPLED = dict(zip(_MESHES, ("A", "phi", "E", "B", "dEdt", "dBdt", "d2Bdt2", "divE")))


class TestMeshShapes:
    """A mesh varies only along the axes its formula reads (an operator leaf
    built on it transforms no other axis), with the values of ``sample``."""

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
        samples = [[[model.sample(r, t) for r in row] for row in plane] for plane in points]
        for name, attr in _SAMPLED.items():
            got = getattr(model, name)(self._R, t)
            want = np.array([[[getattr(s, attr) for s in row] for row in plane]
                             for plane in samples])
            for comp, mesh in enumerate(got if isinstance(got, list) else [got]):
                ref = want[..., comp] if want.ndim == 4 else want
                # an all-zero mesh (a plane wave's component along no e0 or
                # k x e0) is held by the leaves as a 0-d zero
                shape = np.broadcast_shapes(np.shape(mesh) if np.any(mesh) else (), (1, 1, 1))
                for k in range(3):
                    reads = bool(np.any(np.diff(ref, axis=k) != 0))
                    assert (shape[k] > 1) == reads, (name, comp, k)
                assert np.max(np.abs(np.broadcast_to(mesh, ref.shape) - ref)) <= tol
_ENVELOPES = [
    Envelope(value=0.8),
    Envelope(shape="poly", coeffs=(0.3, -1.2, 0.4)),
    Envelope(shape="gaussian", amplitude=2.0, center=1.5, width=0.8),
    Envelope(shape="sinusoid", amplitude=0.7, omega=2.2, phase=0.3),
]
_MODELS = [ZeroField(), PlaneWavePulse()] + [
    cls(np.array([0.1, -0.2, 0.3]), env) for cls in (UniformB, UniformE) for env in _ENVELOPES]


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
