import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relspin.algebra import ID4, commutator, herm_eigs, herm_eigvals, levi_civita
from relspin.errors import PreconditionError, SingularMomentumError
from relspin.operators import (ALPHA, BETA, P_FLOOR_SCALE, SIGMA, PhysParams, SpinKind,
                               condition_checks, energy_ep, free_dirac_matrix,
                               position_correction, spin_operator)

SQ2 = np.sqrt(2.0)


def spin_rotation_matrix(axis: int, angle: float) -> np.ndarray:
    """Spinor-space rotation exp(-i angle Sigma_axis / 2)."""
    return np.cos(angle / 2.0) * ID4 - 1j * np.sin(angle / 2.0) * SIGMA[axis]


def block_diag_transform(params, p):
    """Unitary that block-diagonalizes the free Dirac matrix at momentum p.

    Independent oracle: conjugating Sigma/2 (the position operator
    derivative) with this transform must reproduce the spin (position)
    operator closed forms.
    """
    p = np.asarray(p, dtype=float)
    e = energy_ep(p, params)
    w = e + params.rest_energy
    ap = sum(p[i] * ALPHA[i] for i in range(3))
    return (w * ID4 + params.c * BETA @ ap) / np.sqrt(2 * e * w)


class TestEnergy:
    def test_rest(self):
        assert energy_ep([0, 0, 0], PhysParams()) == 1.0

    def test_unit_momentum(self):
        assert abs(energy_ep([0, 0, 1], PhysParams()) - SQ2) < 1e-15

    def test_pythagorean(self):
        assert abs(energy_ep([3, 4, 0], PhysParams()) - np.sqrt(26.0)) < 1e-14


class TestFreeDiracMatrix:
    def test_rest_is_beta(self):
        assert np.allclose(free_dirac_matrix([0, 0, 0], PhysParams()), BETA)

    def test_eigenvalues_pm_energy(self):
        params = PhysParams()
        w, _ = herm_eigs(free_dirac_matrix([0, 0, 1], params))
        assert np.allclose(w, [-SQ2, -SQ2, SQ2, SQ2], atol=1e-12)

    def test_construction_with_c(self):
        params = PhysParams(c=2.0)
        h = free_dirac_matrix([1, 2, 3], params)
        expected = 2 * (ALPHA[0] + 2 * ALPHA[1] + 3 * ALPHA[2]) + 4 * BETA
        assert np.allclose(h, expected)
        assert np.allclose(h, h.conj().T)


class TestSpinOperators:
    def test_fw_at_rest_is_sigma_half(self):
        s = spin_operator(SpinKind.FW, [0, 0, 0], PhysParams())
        for i in range(3):
            assert np.allclose(s[i], SIGMA[i] / 2, atol=1e-15)

    def test_pryce_along_z(self):
        s = spin_operator(SpinKind.PRYCE, [0, 0, 2], PhysParams())
        assert np.allclose(s[2], SIGMA[2] / 2, atol=1e-15)
        assert np.allclose(s[0], BETA @ SIGMA[0] / 2, atol=1e-15)

    def test_fw_along_z_closed_form(self):
        # x-component: Sigma_x/2 - i beta alpha_y/(2 sqrt2) - Sigma_x/(2 sqrt2 (sqrt2+1))
        s = spin_operator(SpinKind.FW, [0, 0, 1], PhysParams())
        expected = (SIGMA[0] / 2
                    - 1j * BETA @ ALPHA[1] / (2 * SQ2)
                    - SIGMA[0] / (2 * SQ2 * (SQ2 + 1)))
        assert np.allclose(s[0], expected, atol=1e-14)
        assert np.allclose(s[2], SIGMA[2] / 2, atol=1e-14)

    @pytest.mark.parametrize("c,m0", [(1.0, 1.0), (2.5, 0.7)])
    def test_fw_matches_transform_oracle(self, rng, c, m0):
        params = PhysParams(m0=m0, c=c)
        for _ in range(10):
            p = rng.normal(size=3) * 2.0
            u = block_diag_transform(params, p)
            h = free_dirac_matrix(p, params)
            assert np.linalg.norm(u @ h @ u.conj().T
                                  - BETA * energy_ep(p, params)) <= 1e-12 * energy_ep(p, params)
            s = spin_operator(SpinKind.FW, p, params)
            for i in range(3):
                oracle = u.conj().T @ (SIGMA[i] / 2) @ u
                assert np.linalg.norm(s[i] - oracle) <= 1e-13

    def test_position_correction_matches_transform_derivative(self, rng):
        params = PhysParams(m0=1.1, c=1.7)
        h = 1e-5
        for _ in range(5):
            p = rng.normal(size=3) * 1.5
            r = position_correction(SpinKind.FW, p, params)
            u0 = block_diag_transform(params, p)
            for j in range(3):
                dp = np.zeros(3)
                dp[j] = h
                du = (block_diag_transform(params, p + dp)
                      - block_diag_transform(params, p - dp)) / (2 * h)
                oracle = 1j * u0.conj().T @ du
                assert np.linalg.norm(r[j] - oracle) <= 1e-8

    def test_hermitian_components(self, rng):
        params = PhysParams(c=1.3)
        for _ in range(10):
            p = rng.normal(size=3)
            for kind in SpinKind:
                for s in spin_operator(kind, p, params):
                    assert np.linalg.norm(s - s.conj().T) <= 1e-13

    def test_pryce_singular_at_origin(self):
        with pytest.raises(SingularMomentumError):
            spin_operator(SpinKind.PRYCE, [0, 0, 0], PhysParams())
        with pytest.raises(SingularMomentumError):
            spin_operator(SpinKind.PRYCE, [0, 0, 1e-14], PhysParams())
        with pytest.raises(SingularMomentumError):
            position_correction(SpinKind.PRYCE, [0, 0, 0], PhysParams())

    def test_total_j_matrix_identity(self, rng):
        # R(p) x p + S(p) = Sigma/2, exactly, for FW and Pryce
        params = PhysParams(c=2.5)
        for kind in (SpinKind.FW, SpinKind.PRYCE):
            for _ in range(10):
                p = rng.normal(size=3) * 2
                s = spin_operator(kind, p, params)
                r = position_correction(kind, p, params)
                for i in range(3):
                    rxp = sum(levi_civita(i, j, k) * r[j] * p[k]
                              for j in range(3) for k in range(3))
                    assert np.linalg.norm(rxp + s[i] - SIGMA[i] / 2) <= 1e-13

    def test_dirac_position_correction_zero(self):
        r = position_correction(SpinKind.DIRAC, [1, 2, 3], PhysParams())
        assert all(np.all(m == 0) for m in r)


class TestConditionChecks:
    def test_fw_proper(self):
        rep = condition_checks(SpinKind.FW, [0.3, -1.2, 2.5], PhysParams())
        assert rep.su2_residual <= 1e-12
        assert rep.spectrum_residual <= 1e-12
        assert rep.free_commutation_residual <= 1e-12

    def test_pryce_proper(self):
        rep = condition_checks(SpinKind.PRYCE, [0.3, -1.2, 2.5], PhysParams())
        assert rep.su2_residual <= 1e-12
        assert rep.spectrum_residual <= 1e-12
        assert rep.free_commutation_residual <= 1e-12

    def test_dirac_violates_free_commutation(self):
        params = PhysParams()
        p = np.array([0.0, 0.0, 1.0])
        rep = condition_checks(SpinKind.DIRAC, p, params)
        assert rep.su2_residual <= 1e-12
        assert rep.spectrum_residual <= 1e-12
        # matrix value: (1/i)[S_Dx, H] = -c (alpha x p)_x = -alpha_y at p = z
        h = free_dirac_matrix(p, params)
        lhs = commutator(SIGMA[0] / 2, h) / 1j
        assert np.allclose(lhs, -ALPHA[1], atol=1e-14)
        # Frobenius norm of the x-component violation
        analytic = 2 * params.c * np.sqrt(p[1]**2 + p[2]**2)
        assert abs(rep.free_commutation_components[0] - analytic) <= 1e-12

    def test_dirac_dynamics_identity(self, rng):
        # (1/i)[S_D, H_free] + c alpha x p = 0
        params = PhysParams(c=1.8)
        for _ in range(10):
            p = rng.normal(size=3) * 2
            h = free_dirac_matrix(p, params)
            for i in range(3):
                axp = sum(levi_civita(i, j, k) * ALPHA[j] * p[k]
                          for j in range(3) for k in range(3))
                lhs = commutator(SIGMA[i] / 2, h) / 1j
                assert np.linalg.norm(lhs + params.c * axp) <= 1e-12 * max(1, 2 * params.c * np.linalg.norm(p))

    def test_momentum_battery(self, rng):
        params = PhysParams()
        mags = 10.0 ** rng.uniform(-3, 1, size=100)
        d = rng.normal(size=(100, 3))
        p = mags[:, None] * d / np.linalg.norm(d, axis=1)[:, None]
        for kind in (SpinKind.FW, SpinKind.PRYCE):
            rep = condition_checks(kind, p, params)
            assert np.all(rep.su2_residual <= 1e-12)
            assert np.all(rep.spectrum_residual <= 1e-12)
            assert np.all(rep.free_commutation_residual <= 1e-12)
        rep = condition_checks(SpinKind.DIRAC, p, params)
        analytic = 2 * np.sqrt(np.stack([p[:, 1]**2 + p[:, 2]**2,
                                         p[:, 0]**2 + p[:, 2]**2,
                                         p[:, 0]**2 + p[:, 1]**2], axis=1))
        assert np.all(np.abs(rep.free_commutation_components - analytic) <= 1e-10)


def _assert_close(got, want, tol=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= tol * max(1.0, np.max(np.abs(want)))


class TestBatchedEvaluation:
    """A batch of momenta gives what a loop over its momenta gives."""

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_loop(self, seed, n, c):
        r = np.random.default_rng(seed)
        params = PhysParams(m0=r.uniform(0.5, 2.0), c=c)
        mags = params.m0 * c * 10.0 ** r.uniform(-3, 2, size=n)
        d = r.normal(size=(n, 3))
        p = mags[:, None] * d / np.linalg.norm(d, axis=1)[:, None]
        for kind in SpinKind:
            rep = condition_checks(kind, p, params)
            singles = [condition_checks(kind, q, params) for q in p]
            for name in ("su2_residual", "spectrum_residual",
                         "free_commutation_residual", "free_commutation_components",
                         "spectrum"):
                _assert_close(getattr(rep, name), [getattr(s, name) for s in singles])
            for fn in (spin_operator, position_correction):
                got = fn(kind, p, params)
                loop = [fn(kind, q, params) for q in p]
                for i in range(3):
                    _assert_close(got[i], [m[i] for m in loop])
            # two leading axes: the batch shape carries through
            rep2 = condition_checks(kind, p.reshape(n, 1, 3), params)
            assert rep2.spectrum.shape == (n, 1, 3, 4)
            _assert_close(rep2.free_commutation_components[:, 0],
                          rep.free_commutation_components)

    def test_single_momentum_has_no_batch_axes(self):
        rep = condition_checks(SpinKind.FW, [0.3, -1.2, 2.5], PhysParams())
        assert np.shape(rep.su2_residual) == ()
        assert np.shape(rep.spectrum_residual) == ()
        assert np.shape(rep.free_commutation_components) == (3,)
        assert np.shape(rep.spectrum) == (3, 4)
        assert all(m.shape == (4, 4) for m in spin_operator(SpinKind.FW, [0, 0, 1],
                                                           PhysParams()))

    def test_pryce_floor_in_batch_refused(self):
        p = np.array([[0.3, -1.2, 2.5], [0.0, 0.0, 1e-14], [1.0, 0.0, 0.0]])
        with pytest.raises(SingularMomentumError, match="1.000e-14"):
            condition_checks(SpinKind.PRYCE, p, PhysParams())
        with pytest.raises(SingularMomentumError):
            position_correction(SpinKind.PRYCE, p, PhysParams())
        # the other kinds are regular at p = 0
        assert np.all(condition_checks(SpinKind.FW, p, PhysParams()).su2_residual <= 1e-12)


class TestEigenvalueOnlySpectra:
    """``condition_checks`` reads its spectra from ``herm_eigvals``; they are
    the eigenvalues of the eigenvector solve ``herm_eigs``."""

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=np.log10(1.001 * P_FLOOR_SCALE), max_value=3.0),
           st.floats(min_value=0.2, max_value=5.0))
    @example(seed=0, log_mag=np.log10(1.001 * P_FLOOR_SCALE), c=1.0)  # at the Pryce floor
    @settings(max_examples=40, deadline=None)
    def test_spin_operator_spectra_match_herm_eigs(self, seed, log_mag, c):
        params = PhysParams(c=c)
        d = np.random.default_rng(seed).normal(size=(6, 3))
        p = params.m0 * c * 10.0**log_mag * d / np.linalg.norm(d, axis=1)[:, None]
        for kind in SpinKind:
            for s in spin_operator(kind, p, params):
                assert np.max(np.abs(herm_eigvals(s) - herm_eigs(s)[0])) <= 1e-14


class TestRotationCovariance:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("kind", [SpinKind.DIRAC, SpinKind.FW, SpinKind.PRYCE])
    def test_quarter_turn(self, axis, kind, rng):
        params = PhysParams()
        theta = np.pi / 2
        rot = np.eye(3)
        a, b = [i for i in range(3) if i != axis]
        rot[a, a] = rot[b, b] = np.cos(theta)
        rot[a, b] = -np.sin(theta) * levi_civita(axis, a, b)
        rot[b, a] = np.sin(theta) * levi_civita(axis, a, b)
        u = spin_rotation_matrix(axis, theta)
        for _ in range(5):
            p = rng.normal(size=3) * 1.5
            s_at_rp = spin_operator(kind, rot @ p, params)
            s_at_p = spin_operator(kind, p, params)
            for i in range(3):
                expected = sum(rot[i, j] * u @ s_at_p[j] @ u.conj().T
                               for j in range(3))
                assert np.linalg.norm(s_at_rp[i] - expected) <= 1e-10


class TestPhysParams:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            PhysParams(m0=0.0)
        with pytest.raises(PreconditionError):
            PhysParams(c=-1.0)

    @pytest.mark.parametrize("name", ["m0", "c", "e"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(PreconditionError, match=f"^{name} must be finite"):
            PhysParams(**{name: value})

    @pytest.mark.parametrize("m0, c", [(1e200, 1.0), (1.0, 1e-200), (1.0, 1e155),
                                       (1e-170, 1e-70)])
    def test_constants_outside_the_float_range_refused(self, m0, c):
        # c^2, m0 c^2 or (m0 c^2)^2 overflows to inf or underflows to 0
        with pytest.raises(PreconditionError, match=r"^m0 = .* and c = .* outside the float"):
            PhysParams(m0=m0, c=c)

    def test_charge_sign_free(self):
        assert PhysParams(e=2.5).e == 2.5
