import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import relspin.expr
import relspin.propagate
from relspin.dynamics import positive_energy_part
from relspin.errors import (BoundaryFluxError, KrylovConvergenceError, PreconditionError,
                            SingularMomentumError)
from relspin.expr import LeafStack, _DiagLeaf, apply_expr, expectation
from relspin.fields import Envelope, PlaneWavePulse, UniformB, UniformE, ZeroField
from relspin.grid import GridSpec, SpinorField, gaussian_packet, zero_mode_weight
from relspin.hamiltonians import (build_dirac_em, build_free_dirac, build_fw_direct,
                                  build_hamiltonian)
from relspin.operators import ALPHA, BETA, SIGMA, SpinKind, free_dirac_matrix
from relspin.propagate import (OBSERVABLE_GUARD, Trajectory, _exp_minus_idt, _Observables,
                               _evolve, ehrenfest_residual, krylov_step, run,
                               strang_step_dirac)


_PULSED_B = UniformB(np.array([0.0, 0.0, 0.2]),
                     Envelope(shape="gaussian", amplitude=1.0, center=0.3, width=2.0))


_UNIFORM_B = UniformB(np.array([0.0, 0.0, 0.05]))


def mixed_energy_state(grid, params, k0, sigma):
    """Equal-weight positive/negative energy superposition at mean k0."""
    base = gaussian_packet(grid, 0.0, sigma, k0, [1, 0, 0, 0])
    mom = base.to_momentum()
    e_k = np.sqrt(grid.k2 * params.c**2 + params.rest_energy**2)
    hv = params.rest_energy * np.einsum("ab,b...->a...", BETA, mom.values)
    hv += params.c * grid.k[0] * np.einsum("ab,b...->a...", ALPHA[0], mom.values)
    plus = SpinorField(grid, 0.5 * (mom.values + hv / e_k), "momentum").normalized()
    minus = SpinorField(grid, 0.5 * (mom.values - hv / e_k), "momentum").normalized()
    return (np.sqrt(0.5) * plus + np.sqrt(0.5) * minus).normalized().to_position()


@pytest.fixture(scope="module")
def pulse_1d():
    return PlaneWavePulse(np.array([0.0, 0.15, 0.0]),
                          np.array([0.5, 0.0, 0.0]), omega=0.5,
                          env_center=0.0, env_width=20.0)


class TestStrang:
    def test_free_group_velocity(self, params):
        g = GridSpec(1, 1024, 512.0)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 40.0, 1.0, [1, 0, 0, 0]), params)
        ham = build_free_dirac(params)
        traj = run(ham, psi, dt=0.05, steps=200, stride=25)
        t = traj.column("t")
        rx = traj.column("r_x")
        slope = (rx[-1] - rx[0]) / (t[-1] - t[0])
        pred = params.c**2 * traj.column("p_x")[0] / traj.column("energy")[0]
        assert abs(slope - pred) <= 1e-4 * abs(pred)

    def test_norm_drift_1000_steps_uniform_b(self, params):
        g = GridSpec(1, 256, 256.0)
        model = UniformB(np.array([0.0, 0.0, 0.2]))   # A_y = B0 x / 2 on the axis
        ham = build_dirac_em(model, params)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 12.0, 1.0, [1, 0, 0, 0]), params)
        state = psi
        for i in range(1000):
            state = strang_step_dirac(ham, state, i * 0.002, 0.002)
        assert abs(state.norm() - 1.0) <= 1e-9

    def test_norm_drift_1000_steps_pulse(self, params, pulse_1d):
        g = GridSpec(1, 256, 256.0)
        ham = build_dirac_em(pulse_1d, params)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 12.0, 1.0, [1, 0, 0, 0]), params)
        state = psi
        for i in range(1000):
            state = strang_step_dirac(ham, state, i * 0.002, 0.002)
        assert abs(state.norm() - 1.0) <= 1e-9

    def test_richardson_second_order(self, params, pulse_1d):
        g = GridSpec(1, 512, 256.0)
        ham = build_dirac_em(pulse_1d, params)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 12.0, 1.0, [1, 0, 0, 0]), params)

        def observable(dt, steps):
            traj = run(ham, psi, dt=dt, steps=steps, stride=steps)
            return traj.column("S_D_z")[-1]

        horizon = 2.0
        ref = observable(horizon / 512, 512)
        e1 = abs(observable(horizon / 64, 64) - ref)
        e2 = abs(observable(horizon / 128, 128) - ref)
        assert e1 / e2 == pytest.approx(4.0, abs=0.3)

    def test_time_reversal(self, params, pulse_1d):
        g = GridSpec(1, 256, 256.0)
        ham = build_dirac_em(pulse_1d, params)
        psi = gaussian_packet(g, 0.0, 12.0, 1.0, [1, 0, 0, 0])
        fwd = strang_step_dirac(ham, psi, 0.0, 0.01)
        back = strang_step_dirac(ham, fwd, 0.01, -0.01)
        assert (back - psi).norm() <= 1e-9

    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_potential_free_step_is_exact_per_mode(self, params, space):
        # without potentials the step is the kinetic factor alone; each
        # momentum mode must get exactly exp(-i dt H_free(k))
        g = GridSpec(1, 32, 16.0)
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(4, 32)) + 1j * rng.normal(size=(4, 32))
        psi = SpinorField(g, vals).normalized().in_space(space)
        dt = 0.37
        got = strang_step_dirac(build_free_dirac(params), psi, 0.0, dt)
        assert got.space == "momentum"
        mom = psi.to_momentum().values
        for m, k in enumerate(g.axis_momenta(0)):
            u = scipy.linalg.expm(-1j * dt * free_dirac_matrix([k, 0.0, 0.0], params))
            assert np.max(np.abs(got.values[:, m] - u @ mom[:, m])) <= 1e-12

    @pytest.mark.parametrize("model", [
        _UNIFORM_B,
        _PULSED_B,
        UniformB(np.array([0.03, -0.02, 0.05])),
        UniformE(np.array([0.01, 0.0, 0.02])),
    ], ids=["uniform-b", "pulsed-b", "oblique-b", "uniform-e"])
    def test_position_factor_matches_dense_alpha_form(self, params, apply_matrix, model):
        # the dirac-em exact step against V/2 K V/2 written with dense alpha_j
        # and beta products over full-grid factors: V = -ec alpha.A + e phi,
        # K = c alpha.k + beta m0 c^2, each exp(-i tau X) = cos(tau s) -
        # i sin(tau s)/s X with X^2 = s^2
        g = GridSpec(3, 16, 24.0)
        t, dt = 0.1, 0.3
        tm = t + dt / 2

        def exp_form(tau, x, s, mats, values):
            small = s < 1e-14
            sinc = np.where(small, tau, np.sin(tau * s) / np.where(small, 1.0, s))
            return np.cos(tau * s) * values - 1j * sinc * sum(
                xi * apply_matrix(m, values) for xi, m in zip(x, mats))

        u = [np.broadcast_to(-params.e * params.c * np.asarray(a, dtype=float), g.shape)
             for a in model.a_mesh(g.r, tm)]
        phase = np.exp(-0.5j * dt * params.e * np.broadcast_to(model.phi_mesh(g.r, tm), g.shape))

        def half_step(field):
            pos = field.to_position()
            mag = np.sqrt(u[0]**2 + u[1]**2 + u[2]**2)
            return pos.with_data(exp_form(dt / 2, u, mag, ALPHA, pos.data) * phase)

        def kinetic(field):
            mom = field.to_momentum()
            k = [np.broadcast_to(params.c * kj, g.shape) for kj in g.k]
            e_k = np.sqrt(params.c**2 * g.k2 + params.rest_energy**2)
            x = k + [np.full(g.shape, params.rest_energy)]
            return mom.with_data(exp_form(dt, x, e_k, [*ALPHA, BETA], mom.data))

        rng = np.random.default_rng(11)
        vals = rng.normal(size=(4, *g.shape)) + 1j * rng.normal(size=(4, *g.shape))
        psi = SpinorField(g, vals).normalized()
        got = strang_step_dirac(build_dirac_em(model, params), psi, t, dt)
        want = half_step(kinetic(half_step(psi)))
        assert got.space == "position"
        assert np.max(np.abs(got.values - want.values)) <= 1e-14 * np.max(np.abs(want.values))

    def test_rejects_zero_step(self, params, pulse_1d):
        # the guard is the time loop's: a run refuses dt = 0 before any row
        g = GridSpec(1, 256, 256.0)
        psi = gaussian_packet(g, 0.0, 12.0, 1.0, [1, 0, 0, 0])
        with pytest.raises(PreconditionError, match="dt must be finite and nonzero"):
            run(build_dirac_em(pulse_1d, params), psi, 0.0, 5)


class TestKrylov:
    def test_zero_time_identity(self, params):
        g = GridSpec(1, 256, 256.0)
        psi = gaussian_packet(g, 0.0, 12.0, 1.0, [1, 0, 0, 0])
        ham = build_free_dirac(params)
        out = krylov_step(ham, psi, 0.0, 0.0)
        assert (out - psi).norm() <= 1e-12

    def test_cross_agreement_with_strang(self, params, pulse_1d):
        g = GridSpec(1, 512, 256.0)
        ham = build_dirac_em(pulse_1d, params)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 12.0, 1.0, [1, 0, 0, 0]), params)
        dt = 5e-4
        a = b = psi
        for i in range(10):
            a = strang_step_dirac(ham, a, i * dt, dt)
            b = krylov_step(ham, b, i * dt, dt, m=60, tol=1e-13)
        assert (a - b).norm() <= 1e-8

    def test_hermitian_norm_drift(self, params):
        # static-field direct Hamiltonian: the symmetrized Arnoldi step
        # preserves the norm.  With B along the 1D axis the symmetric-gauge A
        # is zero, so it vanishes, and the static printed form is exactly
        # Hermitian.
        g = GridSpec(1, 128, 128.0)
        model = UniformB(np.array([0.2, 0.0, 0.0]))
        # soc and nutation terms are identically zero for a static field
        ham = build_fw_direct(model, params).subset(["kinetic", "zeeman"])
        ham.assume_hermitian = True
        psi = positive_energy_part(gaussian_packet(g, 0.0, 8.0, 1.0, [1, 0, 0, 0]), params)
        state = psi
        for i in range(1000):
            state = krylov_step(ham, state, i * 0.01, 0.01, tol=1e-12)
        assert abs(state.norm() - 1.0) <= 1e-9

    def test_time_reversal(self, params):
        g = GridSpec(1, 128, 128.0)
        model = UniformB(np.array([0.0, 0.0, 0.2]))
        ham = build_hamiltonian("fw-direct", model, params, hermitize=True)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 8.0, 1.0, [1, 0, 0, 0]), params)
        fwd = krylov_step(ham, psi, 0.0, 0.05, tol=1e-13)
        back = krylov_step(ham, fwd, 0.05, -0.05, tol=1e-13)
        assert (back - psi).norm() <= 1e-9

    @pytest.mark.parametrize("hermitize", [False, True])
    def test_matches_dense_expm(self, params, hermitize):
        # H(t + dt/2) as an explicit 4N x 4N matrix, one apply per unit column
        g = GridSpec(1, 32, 32.0)
        ham = build_hamiltonian("fw-direct", _PULSED_B, params, hermitize=hermitize)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 4.0, 0.5, [1, 1, 0, 0]),
                                   params).to_position()  # the dense columns' space
        t, dt = 0.1, 0.05
        dense = np.stack([apply_expr(ham.total, SpinorField(g, col.reshape(4, *g.shape)),
                                     t + dt / 2).values.ravel()
                          for col in np.eye(4 * g.npoints, dtype=complex)], axis=1)
        want = scipy.linalg.expm(-1j * dt * dense) @ psi.values.ravel()
        got = krylov_step(ham, psi, t, dt)
        assert got.space == psi.space
        err = np.linalg.norm(got.values.ravel() - want)
        assert err <= 1e-9 * np.linalg.norm(want)
        if hermitize:  # the symmetrized projection makes the step unitary
            assert abs(got.norm() - psi.norm()) <= 1e-13 * psi.norm()

    def test_step_memory(self, params):
        # a 32^3 fw-direct step takes 8 matvecs, so its basis is one array
        # of 8 rows (15.0 states at the peak); kept as a list of rows and
        # stacked into a matrix at the end it peaked at 37 778 638 bytes
        # (18.0 states) in this test
        g = GridSpec(3, 32, 48.0)
        ham = build_fw_direct(_UNIFORM_B, params)
        psi = _packet_3d(g, params).to_momentum()
        krylov_step(ham, psi, 0.0, 0.05)  # fills the leaf caches
        tracemalloc.start()
        try:
            krylov_step(ham, psi, 0.0, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 37_778_638

    def test_small_subspace_rejected(self, params):
        g = GridSpec(1, 128, 128.0)
        psi = gaussian_packet(g, 0.0, 8.0, 1.0, [1, 0, 0, 0])
        ham = build_free_dirac(params)
        with pytest.raises(PreconditionError):
            krylov_step(ham, psi, 0.0, 0.1, m=4)

    def test_nonconvergence_suggests_step(self, params):
        g = GridSpec(1, 128, 16.0)   # large k range -> wide spectrum
        psi = gaussian_packet(g, 0.0, 1.0, 1.0, [1, 0, 0, 0])
        ham = build_free_dirac(params)
        with pytest.raises(KrylovConvergenceError) as err:
            krylov_step(ham, psi, 0.0, 50.0, m=8, tol=1e-12)
        assert err.value.suggested_dt == pytest.approx(25.0)


class TestConstantStep:
    """A Hamiltonian that is one constant 4x4 matrix steps by its exact
    exponential; Krylov, named explicitly, is the reference."""

    def test_exponential_symmetrizes_only_trusted_hermitian(self, rng):
        # the one exponential of the Krylov projection and the constant step,
        # at every size a projection can have: expm itself, of the symmetrized
        # matrix when trusted Hermitian, so roundoff asymmetry stays unitary
        for n in range(1, 41):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = 0.5 * (a + a.conj().T)
            skewed = h + 1e-9 * (a - a.conj().T)
            assert np.array_equal(_exp_minus_idt(h, 0.5, True), scipy.linalg.expm(-0.5j * h))
            assert np.array_equal(_exp_minus_idt(a, 0.5, False), scipy.linalg.expm(-0.5j * a))
            u = _exp_minus_idt(skewed, 0.5, True)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-13 * n
            assert np.linalg.norm(u - scipy.linalg.expm(-0.5j * h)) <= 1e-8

    @pytest.mark.parametrize("hermitize", [False, True])
    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_one_step_is_dense_expm_per_point(self, params, fft_count, space, hermitize):
        g = GridSpec(1, 64, 64.0)
        b = np.array([0.03, -0.02, 0.04])  # Sigma_y makes M Hermitian, not symmetric
        ham = build_hamiltonian("fw-direct", UniformB(b), params, terms=["zeeman"],
                                hermitize=hermitize)
        dense = -params.e / (2 * params.m0) * sum(bj * BETA @ s for bj, s in zip(b, SIGMA))
        psi = positive_energy_part(gaussian_packet(g, 0.0, 6.0, 0.5, [1, 1, 0, 0]),
                                   params).in_space(space)
        fft_count.reset()
        _, (_, got) = _evolve(ham, psi, 0.05, 1, t0=0.2)
        assert fft_count.calls == 0 and got.space == space
        u = scipy.linalg.expm(-0.05j * dense)
        assert np.count_nonzero(u) == 8  # an oblique B: both 2x2 blocks of U are full
        want = np.einsum("ab,b...->a...", u, psi.values)
        assert np.linalg.norm(got.values - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("hermitize", [False, True])
    @pytest.mark.parametrize("model", [_UNIFORM_B, _PULSED_B], ids=["constant", "gaussian"])
    def test_run_matches_krylov(self, params, krylov_count, model, hermitize):
        # hermitized runs symmetrize M before expm, the others do not; every
        # column is compared relative to its scale, at least 1, since energy
        # and S_z of this transverse precession are zero up to roundoff
        g = GridSpec(1, 128, 128.0)
        ham = build_hamiltonian("fw-direct", model, params, terms=["zeeman"],
                                hermitize=hermitize)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 8.0, 0.5, [1, 1, 0, 0]), params)
        got = np.array(run(ham, psi, 0.05, 600, stride=100).rows)
        assert krylov_count[0] == 0
        want = np.array(run(ham, psi, 0.05, 600, stride=100, propagator="krylov").rows)
        assert krylov_count[0] == 600
        scale = np.maximum(np.max(np.abs(want), axis=0), 1.0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-13 * scale)


class TestRun:
    def test_dispatch(self, params, monkeypatch):
        # (family, terms, hermitize, model, propagator) -> the step kind and
        # whether the 3 steps between two rows are one exact step of 3 dt
        from relspin import propagate
        b, along = UniformB([0.0, 0.0, 0.05]), UniformB([0.05, 0.0, 0.0])  # A = 0 on the line
        oblique, wave = UniformB([0.03, -0.02, 0.04]), PlaneWavePulse(
            [0.0, 0.15, 0.0], [0.5, 0.0, 0.0], omega=0.5, env_width=20.0)
        table = [
            ("free", None, False, ZeroField(), None, "exact", True),
            ("free", None, True, ZeroField(), None, "exact", True),  # T + T^H summed first
            ("free", None, False, ZeroField(), "krylov", "krylov", False),
            ("dirac-em", None, False, ZeroField(), None, "exact", True),
            ("dirac-em", None, False, b, None, "exact", False),        # V/2 K V/2
            ("dirac-em", None, False, along, None, "exact", True),
            ("dirac-em", None, False, _PULSED_B, None, "exact", False),
            ("dirac-em", None, False, UniformE([0.01, 0.0, 0.0]), None, "exact", False),
            ("dirac-em", None, False, wave, None, "exact", False),
            ("dirac-em", ["kinetic-free", "mass"], False, b, None, "exact", True),
            ("dirac-em", None, True, b, None, "exact", False),
            ("fw-direct", ["zeeman"], False, oblique, None, "exact", True),
            ("fw-direct", ["zeeman"], True, oblique, None, "exact", True),
            ("fw-direct", ["zeeman"], False, _PULSED_B, None, "exact", False),
            ("fw-direct", ["zeeman"], False, wave, None, "exact", False),  # B varies along x
            ("fw-direct", ["kinetic", "zeeman"], False, b, None, "krylov", False),
            ("fw-direct", None, True, b, None, "krylov", False),
            ("fw-full", None, False, b, None, "krylov", False),
            ("fw-direct", ["zeeman"], False, b, "krylov", "krylov", False),
        ]
        seen = []
        monkeypatch.setattr(propagate, "strang_step_dirac", lambda ham, psi, t, dt:
                            seen.append(("exact", dt)) or strang_step_dirac(ham, psi, t, dt))
        monkeypatch.setattr(propagate, "krylov_step", lambda ham, psi, t, dt, **kw:
                            seen.append(("krylov", dt)) or krylov_step(ham, psi, t, dt, **kw))
        g = GridSpec(1, 64, 96.0)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 6.0, 1.0, [1, 1, 0, 0]), params)
        for family, terms, hermitize, model, propagator, kind, leaped in table:
            seen.clear()
            ham = build_hamiltonian(family, model, params, terms=terms, hermitize=hermitize)
            run(ham, psi, 0.02, 6, stride=3, propagator=propagator)
            row = (family, terms, hermitize, model, propagator)
            assert {k for k, _ in seen} == {kind}, row
            assert {round(dt, 12) for _, dt in seen} == {0.06 if leaped else 0.02}, row

    def test_dirac_em_kinetic_and_mass_is_free(self, params):
        # the same leaves, so the same exact step, bit for bit
        g = GridSpec(1, 256, 128.0)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 8.0, 1.0, [1, 1, 0, 0]), params)
        free = run(build_free_dirac(params), psi, 0.05, 40, stride=10)
        em = run(build_hamiltonian("dirac-em", _UNIFORM_B, params, terms=["kinetic-free", "mass"]),
                 psi, 0.05, 40, stride=10)
        assert em.to_csv() == free.to_csv()

    @pytest.mark.parametrize("dt", [0.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("family, terms, propagator", [
        ("free", None, None),                         # one exact factor
        ("dirac-em", None, None),                     # two exact factors
        ("fw-direct", ["zeeman"], None),              # a constant factor
        ("fw-direct", ["kinetic", "zeeman"], None),   # Krylov
        ("fw-direct", ["zeeman"], "krylov"),          # named Krylov
    ])
    def test_step_size_guard(self, params, family, terms, propagator, dt):
        # every step kind refuses a step size that is zero or not finite,
        # before any row or step
        g = GridSpec(1, 64, 96.0)
        ham = build_hamiltonian(family, _UNIFORM_B, params, terms=terms)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 6.0, 1.0, [1, 1, 0, 0]), params)
        with pytest.raises(PreconditionError, match="dt must be finite and nonzero"):
            run(ham, psi, dt, 2, propagator=propagator)
        with pytest.raises(PreconditionError, match="dt must be finite and nonzero"):
            ehrenfest_residual(SpinKind.FW, ham, psi, dt, 2, propagator=propagator)

    def test_free_spin_constancy_long_run(self, params):
        # t m0 c^2 in [0, 50]
        g = GridSpec(1, 512, 512.0)
        psi = positive_energy_part(gaussian_packet(g, -20.0, 24.0, 0.75, [1, 1, 0, 0]), params)
        ham = build_free_dirac(params)
        traj = run(ham, psi, dt=0.05, steps=1000, stride=50)
        for label in ("S_FW", "S_Py"):
            for ax in "xyz":
                col = traj.column(f"{label}_{ax}")
                assert np.max(np.abs(col - col[0])) <= 1e-8
        assert np.max(np.abs(traj.column("norm") - 1.0)) <= 1e-9
        energy = traj.column("energy")
        assert np.max(np.abs(energy - energy[0])) <= 1e-8

    def test_zitterbewegung(self, params):
        g = GridSpec(1, 512, 512.0)
        k0 = 0.75
        mixed = mixed_energy_state(g, params, k0, 40.0)
        ham = build_free_dirac(params)
        e0 = np.sqrt(k0**2 + 1.0)
        period = 2 * np.pi / (2 * e0)
        dt = period / 64
        traj = run(ham, mixed, dt=dt, steps=64 * 20, stride=1)
        sz = traj.column("S_D_z")
        assert 0.5 * np.ptp(sz) >= 1e-3
        szc = (sz - sz.mean()) * np.hanning(len(sz))
        spec = np.abs(np.fft.rfft(szc))
        freqs = np.fft.rfftfreq(len(szc), d=dt) * 2 * np.pi
        i = int(np.argmax(spec))
        denom = spec[i - 1] - 2 * spec[i] + spec[i + 1]
        peak = freqs[i] + 0.5 * (spec[i - 1] - spec[i + 1]) / denom * (freqs[1] - freqs[0])
        assert abs(peak - 2 * e0) <= 0.02 * 2 * e0
        # the proper spin operator stays put while Sigma/2 oscillates
        assert np.ptp(traj.column("S_FW_z")) <= 1e-8

    def test_larmor_period(self, params):
        g = GridSpec(1, 256, 256.0)
        b0 = 0.2
        model = UniformB(np.array([0.0, 0.0, b0]))
        ham = build_fw_direct(model, params).subset(["zeeman"])
        pol = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
        psi = gaussian_packet(g, 0.0, 16.0, 0.9, pol)   # pure upper spinor
        period_pred = 2 * np.pi * params.m0 / (abs(params.e) * b0)
        dt = period_pred / 800
        traj = run(ham, psi, dt=dt, steps=1600, stride=1, krylov_tol=1e-12)
        t = traj.column("t")
        sx = traj.column("S_D_x")
        sxn = sx - np.mean(sx)
        crossings = []
        for i in range(len(sxn) - 1):
            if sxn[i] == 0.0 or (sxn[i] < 0) != (sxn[i + 1] < 0):
                frac = -sxn[i] / (sxn[i + 1] - sxn[i])
                crossings.append(t[i] + frac * dt)
        period = 2 * np.mean(np.diff(crossings))
        assert abs(period - period_pred) <= 1e-3 * period_pred

    def test_boundary_flux_abort(self, params):
        g = GridSpec(1, 256, 128.0)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 8.0, 2.0, [1, 0, 0, 0]), params)
        ham = build_free_dirac(params)
        # fast packet reaches the margin shell well within 60 time units
        with pytest.raises(BoundaryFluxError):
            run(ham, psi, dt=0.05, steps=1200, stride=10)

    def test_csv_contract_and_determinism(self, params, tmp_path):
        g = GridSpec(1, 256, 256.0)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 16.0, 1.0, [1, 0, 0, 0]), params)
        ham = build_free_dirac(params)
        t1 = run(ham, psi, dt=0.01, steps=20, stride=5)
        t2 = run(ham, psi, dt=0.01, steps=20, stride=5)
        assert t1.to_csv() == t2.to_csv()
        header = t1.to_csv().splitlines()[0]
        assert header == ("t,norm,energy,S_D_x,S_D_y,S_D_z,S_FW_x,S_FW_y,S_FW_z,"
                          "S_Py_x,S_Py_y,S_Py_z,r_x,r_y,r_z,p_x,p_y,p_z,flux")
        path = tmp_path / "traj.csv"
        t1.save(path)
        assert path.read_text() == t1.to_csv()


def _stepwise_rows(ham, psi, dt, steps, stride, propagator=None, t0=0.0):
    """The rows of ``run`` with every step taken on its own (the time loop at
    stride 1), step s from t0 + s dt, measured in ``run``'s blocks: the
    reference a run that crosses a stride in one step must equal."""
    obs, rows = _Observables(ham, psi.grid), []
    for s, (t, state) in enumerate(_evolve(ham, psi, dt, steps, 1, t0, propagator, 1e-10)):
        if (s % stride == 0 or s == steps) and obs.add(t, state):
            rows += obs.rows()
    rows += obs.rows()
    return np.array([[row[c] for c in Trajectory.CSV_COLUMNS] for row in rows])


def _leap_case(params, family, model=_UNIFORM_B, hermitize=False, terms=None):
    g = GridSpec(1, 128, 128.0)
    ham = build_hamiltonian(family, model, params, terms=terms, hermitize=hermitize)
    return ham, positive_energy_part(gaussian_packet(g, 0.0, 8.0, 0.5, [1, 1, 0, 0]), params)


class TestLeap:
    """A run crosses the steps between two rows in one pass of its time loop;
    an exact step takes them as one step of n dt, any other one by one."""

    @pytest.mark.parametrize("family, hermitize, steps, stride", [
        ("free", False, 200, 25),
        ("free", False, 203, 25),        # the last row is 3 steps after the one before
        ("free", False, 0, 25),
        ("fw-direct", False, 600, 100),
        ("fw-direct", True, 600, 100),
        ("fw-direct", False, 603, 5),
        ("fw-direct", True, 0, 5),
    ])
    def test_exact_step_matches_stepwise(self, params, krylov_count, family, hermitize,
                                         steps, stride):
        # the free packet steps by its one momentum factor, the static zeeman
        # term by its constant matrix; every column is compared
        # relative to its scale, at least 1, since some columns are zero up
        # to roundoff
        terms = None if family == "free" else ["zeeman"]
        ham, psi = _leap_case(params, family, hermitize=hermitize, terms=terms)
        got = np.array(run(ham, psi, 0.05, steps, stride=stride).rows)
        want = _stepwise_rows(ham, psi, 0.05, steps, stride)
        assert got.shape == want.shape == (-(-steps // stride) + 1, len(Trajectory.CSV_COLUMNS))
        assert np.array_equal(got[:, 0], want[:, 0])
        scale = np.maximum(np.max(np.abs(want), axis=0), 1.0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-13 * scale)
        assert krylov_count[0] == 0

    @pytest.mark.parametrize("family, model, terms, propagator", [
        ("dirac-em", _UNIFORM_B, None, None),             # two factors, V/2 K V/2
        ("fw-direct", _PULSED_B, ["zeeman"], None),       # constant steps, one per midpoint
        ("fw-direct", _UNIFORM_B, ["kinetic", "zeeman"], None),  # Krylov
        ("fw-direct", _UNIFORM_B, ["zeeman"], "krylov"),  # named Krylov
    ], ids=["dirac-em", "pulsed-zeeman", "kinetic-zeeman", "named-krylov"])
    def test_other_steps_are_stepwise(self, params, family, model, terms, propagator):
        # the midpoints are t0 + (s + 1/2) dt, not sums of dt, so a pulsed
        # field is sampled at the very times of a run that steps one by one
        ham, psi = _leap_case(params, family, model, terms=terms)
        got = np.array(run(ham, psi, 0.037, 23, stride=5, t0=0.1, propagator=propagator).rows)
        assert np.array_equal(got, _stepwise_rows(ham, psi, 0.037, 23, 5, propagator, t0=0.1))

    def test_hermitized_free_steps_exactly_as_unhermitized(self, params, krylov_count):
        # T and T^H share their matrices and are summed into one term before
        # the closed-form test, 0.5 a + 0.5 a = a for the real scalars: the
        # same exact step as the unhermitized free H, so the same states bit
        # for bit; only the energy, <T>/2 + <T^H>/2, differs at roundoff
        ham, psi = _leap_case(params, "free", ZeroField(), hermitize=True)
        got = np.array(run(ham, psi, 0.037, 23, stride=5, t0=0.1).rows)
        assert krylov_count[0] == 0
        plain, _ = _leap_case(params, "free", ZeroField())
        want = np.array(run(plain, psi, 0.037, 23, stride=5, t0=0.1).rows)
        energy = Trajectory.CSV_COLUMNS.index("energy")
        assert np.array_equal(np.delete(got, energy, 1), np.delete(want, energy, 1))
        assert np.max(np.abs(got[:, energy] - want[:, energy])) <= 1e-13 * np.max(want[:, energy])

    def test_stepwise_steps_start_at_t0_plus_s_dt(self, params, monkeypatch):
        from relspin import propagate
        starts = []
        monkeypatch.setattr(propagate, "krylov_step",
                            lambda ham, psi, t, dt, **kw: starts.append(t)
                            or krylov_step(ham, psi, t, dt, **kw))
        ham, psi = _leap_case(params, "fw-direct", terms=["zeeman"])
        run(ham, psi, 0.037, 23, stride=5, t0=0.1, propagator="krylov")
        assert starts == [0.1 + s * 0.037 for s in range(23)]


def _packet_3d(grid, params):
    return positive_energy_part(
        gaussian_packet(grid, [0.0, 0.0, 0.0], 6.0, [1.0, 0.5, 0.0], [1, 1, 0, 0]), params)


class TestMeasure:
    """A row from the transform-once measure equals, column by column, the
    expectations taken on the caller's state as given."""

    @pytest.mark.parametrize("space", ["position", "momentum"])
    @pytest.mark.parametrize("family", ["free", "dirac-em", "fw-direct"])
    def test_row_matches_reference(self, params, pulse_1d, boundary_flux, family, space):
        g = GridSpec(1, 256, 256.0)
        model = _PULSED_B if family == "fw-direct" else pulse_1d
        ham = build_hamiltonian(family, model, params)
        psi = positive_energy_part(gaussian_packet(g, 10.0, 12.0, 1.0, [1, 1, 0, 0]),
                                   params).in_space(space)
        t = 0.3
        obs = _Observables(ham, g)
        row = obs.measure(psi, t)
        exprs = {"energy": ham.total}
        labels = {SpinKind.DIRAC: "S_D", SpinKind.FW: "S_FW", SpinKind.PRYCE: "S_Py"}
        for kind, label in labels.items():
            for i, ax in enumerate("xyz"):
                exprs[f"{label}_{ax}"] = obs.spin[kind][i]
        for i, ax in enumerate("xyz"):
            exprs[f"r_{ax}"] = obs.r[i]
            exprs[f"p_{ax}"] = obs.p[i]
        for name, expr in exprs.items():
            ref = float(np.real(expectation(expr, psi, t, guard=OBSERVABLE_GUARD)))
            # |<psi, E psi>| <= |psi| |E psi| is the scale of the roundoff
            scale = psi.norm() * apply_expr(expr, psi, t, OBSERVABLE_GUARD).norm()
            assert abs(row[name] - ref) <= 1e-13 * scale, name
        assert row["norm"] == pytest.approx(psi.norm(), rel=1e-13)
        assert row["flux"] == pytest.approx(boundary_flux(psi), rel=1e-13, abs=1e-300)
        assert row["t"] == t

    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_row_matches_reference_3d(self, params, space):
        # 32^3 points are contracted in blocks of the leading axis
        g = GridSpec(3, 32, 48.0)
        ham = build_hamiltonian("dirac-em", _UNIFORM_B, params)
        psi = _packet_3d(g, params).in_space(space)
        t = 0.3
        obs = _Observables(ham, g)
        row = obs.measure(psi, t)
        exprs = {"energy": ham.total}
        labels = {SpinKind.DIRAC: "S_D", SpinKind.FW: "S_FW", SpinKind.PRYCE: "S_Py"}
        for kind, label in labels.items():
            exprs.update((f"{label}_{ax}", s) for ax, s in zip("xyz", obs.spin[kind]))
        exprs.update((f"r_{ax}", r) for ax, r in zip("xyz", obs.r))
        exprs.update((f"p_{ax}", p) for ax, p in zip("xyz", obs.p))
        for name, expr in exprs.items():
            ref = float(np.real(expectation(expr, psi, t, guard=OBSERVABLE_GUARD)))
            scale = psi.norm() * apply_expr(expr, psi, t, OBSERVABLE_GUARD).norm()
            assert abs(row[name] - ref) <= 1e-13 * scale, name

    @pytest.mark.parametrize("weight, refused", [(2e-3, True), (5e-4, False)])
    def test_zero_mode_guard(self, params, weight, refused):
        g = GridSpec(1, 256, 256.0)
        ham = build_free_dirac(params)
        vals = positive_energy_part(gaussian_packet(g, 0.0, 12.0, 1.0, [1, 0, 0, 0]),
                                    params).values.copy()
        vals[(slice(None), *g.origin_index)] = 0.0
        # put the given share of the squared norm into the k = 0 bin
        rest = np.vdot(vals, vals).real
        vals[(0, *g.origin_index)] = np.sqrt(weight * rest / (1.0 - weight))
        psi = SpinorField(g, vals, "momentum")
        assert zero_mode_weight(psi) == pytest.approx(weight, rel=1e-12)
        obs = _Observables(ham, g)
        if refused:
            with pytest.raises(SingularMomentumError,
                               match="S_Py_x is singular at k=0 .* > guard 1.0e-03"):
                obs.measure(psi, 0.0)
        else:
            assert np.isfinite(obs.measure(psi, 0.0)["S_Py_x"])

    def test_row_applies_only_the_energy(self, params, pulse_1d, monkeypatch):
        g = GridSpec(1, 256, 256.0)
        ham = build_hamiltonian("dirac-em", pulse_1d, params)
        psi = positive_energy_part(gaussian_packet(g, 10.0, 12.0, 1.0, [1, 1, 0, 0]), params)
        calls = [0]
        apply = _DiagLeaf._apply

        def counted(self, *args):
            calls[0] += 1
            return apply(self, *args)

        monkeypatch.setattr(_DiagLeaf, "_apply", counted)
        expectation(ham.total, psi, 0.3, guard=OBSERVABLE_GUARD)
        energy, calls[0] = calls[0], 0
        _Observables(ham, g).measure(psi, 0.3)
        assert calls[0] == energy > 0

    @pytest.mark.parametrize("hermitize", [False, True])
    @pytest.mark.parametrize("family", ["free", "zeeman"])
    def test_static_energy_applies_nothing(self, params, monkeypatch, family, hermitize):
        # free is one momentum leaf and the Zeeman-only fw-direct one constant
        # leaf under a static uniform B: the energy is a stack entry, by the
        # stack's construction, so H's monomials are expanded once
        g = GridSpec(1, 256, 256.0)
        ham = (build_free_dirac(params) if family == "free" else
               build_hamiltonian("fw-direct", _UNIFORM_B, params, terms=["zeeman"],
                                 hermitize=hermitize))
        psi = positive_energy_part(gaussian_packet(g, 10.0, 12.0, 1.0, [1, 1, 0, 0]), params)
        expanded, monomials = [], relspin.expr._monomials

        def expand(expr, grid, t):
            expanded.append(expr is ham.total)
            return monomials(expr, grid, t)

        monkeypatch.setattr(relspin.expr, "_monomials", expand)
        obs = _Observables(ham, g)
        assert sum(expanded) == 1 and obs.energy is None
        calls = [0]
        apply = _DiagLeaf._apply

        def counted(self, *args):
            calls[0] += 1
            return apply(self, *args)

        monkeypatch.setattr(_DiagLeaf, "_apply", counted)
        for space in ("position", "momentum"):
            row = obs.measure(psi.in_space(space), 0.3)
            assert calls[0] == 0
        ref = float(np.real(expectation(ham.total, psi, 0.3)))
        scale = psi.norm() * apply_expr(ham.total, psi, 0.3).norm()
        assert abs(row["energy"] - ref) <= 1e-13 * scale

    @pytest.mark.parametrize("model", ["uniform", "pulsed"])
    def test_refused_energy_gathers_no_row(self, params, monkeypatch, model):
        # dirac-em's energy has scalars of both spaces under a uniform B and a
        # time-dependent leaf under a pulse: the momentum stack refuses it
        # before it gathers any row (a row is read from the real and
        # imaginary parts of its scalar), and H is applied per row
        g = GridSpec(1, 256, 256.0)
        ham = build_hamiltonian("dirac-em", _UNIFORM_B if model == "uniform" else _PULSED_B,
                                params)
        real, gathered, refused = np.real, [0], []

        def counted(x):
            gathered[0] += 1
            return real(x)

        class Watched(LeafStack):
            def __init__(self, entries, grid):
                before = gathered[0]
                try:
                    super().__init__(entries, grid)
                except PreconditionError:
                    refused.append(gathered[0] - before)
                    raise

        monkeypatch.setattr(np, "real", counted)
        monkeypatch.setattr(relspin.propagate, "LeafStack", Watched)
        obs = _Observables(ham, g)
        assert refused == [0] and gathered[0] > 0  # the stacks made gathered theirs
        assert obs.energy is ham.total and "energy" not in obs.stacks[0][0]

    def test_norm_and_flux_of_an_unnormalized_state(self, params, boundary_flux):
        # the flux is the shell's share of the squared norm, whatever the norm
        g = GridSpec(1, 256, 256.0)
        psi = 3.0 * gaussian_packet(g, 60.0, 16.0, 1.0, [1, 0, 0, 0])
        row = _Observables(build_free_dirac(params), g).measure(psi, 0.0)
        assert row["norm"] == pytest.approx(3.0, rel=1e-13, abs=0.0)
        assert row["flux"] == pytest.approx(boundary_flux(psi), rel=1e-13, abs=0.0)
        assert row["flux"] > 1e-6

    @pytest.mark.parametrize("offset", [-1e-12, 1e-12])
    def test_guard_decision_matches_zero_mode_weight(self, params, offset):
        # the row's stack reads the weight with zero_mode_weight, as an apply
        # does; placed this close to the guard, it decides from either space
        g = GridSpec(1, 256, 256.0)
        ham = build_free_dirac(params)
        vals = positive_energy_part(gaussian_packet(g, 0.0, 12.0, 1.0, [1, 0, 0, 0]),
                                    params).values.copy()
        vals[(slice(None), *g.origin_index)] = 0.0
        weight = OBSERVABLE_GUARD * (1.0 + offset)
        rest = np.vdot(vals, vals).real
        vals[(0, *g.origin_index)] = np.sqrt(weight * rest / (1.0 - weight))
        obs = _Observables(ham, g)
        for psi in (SpinorField(g, vals, "momentum"),
                    SpinorField(g, vals, "momentum").to_position()):
            refused = zero_mode_weight(psi) > OBSERVABLE_GUARD
            assert refused == (offset > 0)
            if refused:
                with pytest.raises(SingularMomentumError, match="S_Py_x is singular at k=0"):
                    obs.measure(psi, 0.0)
            else:
                assert np.isfinite(obs.measure(psi, 0.0)["S_Py_x"])

    def test_3d_memory(self, params):
        g = GridSpec(3, 32, 48.0)
        ham = build_hamiltonian("dirac-em", _UNIFORM_B, params)
        psi = _packet_3d(g, params)
        obs = _Observables(ham, g)
        obs.measure(psi, 0.3)  # fills the leaf caches
        mom = psi.to_momentum()
        tracemalloc.start()
        try:
            obs.measure(psi, 0.3)
            row_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            obs.stacks[0][1].expectations(mom, guard=OBSERVABLE_GUARD)
            stack_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = psi.values.nbytes  # 2.1 MB
        # the energy's H apply alone peaks at 5.0x the state; the blocked
        # contraction of the twelve momentum observables stays under 2x
        assert row_peak <= 10.5e6
        assert stack_peak <= 2.0 * state


def _zero_mode_state(grid, params, weight):
    """A packet whose k = 0 bin holds ``weight`` of the squared norm."""
    vals = positive_energy_part(gaussian_packet(grid, 0.0, 12.0, 1.0, [1, 0, 0, 0]),
                                params).values.copy()
    vals[(slice(None), *grid.origin_index)] = 0.0
    rest = np.vdot(vals, vals).real
    vals[(0, *grid.origin_index)] = np.sqrt(weight * rest / (1.0 - weight))
    return SpinorField(grid, vals, "momentum")


class TestBlocks:
    """``run`` measures its rows in blocks and records them in time order: a
    row's guard refusal, a flux abort and a step's error come out as they
    would were every row measured when it is reached."""

    _GRID = GridSpec(1, 256, 256.0)  # 16 rows per block

    @pytest.fixture
    def feed(self, monkeypatch):
        """``feed(states, error)``: run's time loop yields the states at
        t = 0.1 i, then raises ``error``."""
        from relspin import propagate

        def feed(states, error=None):
            def evolve(*args):
                for i, psi in enumerate(states):
                    yield 0.1 * i, psi
                if error is not None:
                    raise error
            monkeypatch.setattr(propagate, "_evolve", evolve)
        return feed

    @pytest.fixture
    def states(self, params):
        g = self._GRID
        ok = positive_energy_part(gaussian_packet(g, 0.0, 12.0, 1.0, [1, 0, 0, 0]), params)
        leaking = gaussian_packet(g, 90.0, 8.0, 1.0, [1, 0, 0, 0])
        return ok, leaking, _zero_mode_state(g, params, 2e-3), _zero_mode_state(g, params, 4e-3)

    def _run(self, params):
        # the states come from ``feed``; the one given sets the grid
        return run(build_hamiltonian("dirac-em", _UNIFORM_B, params),
                   SpinorField(self._GRID, np.zeros((4, 256))), 0.1, 1)

    def test_rows_equal_blocks_of_one(self, params):
        # 101 rows in 13 blocks of up to 8, the first in two spaces: each
        # row equals its own block of one
        g = GridSpec(1, 512, 256.0)
        ham = build_free_dirac(params)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 16.0, 0.75, [1, 1, 0, 0]), params)
        got = np.array(run(ham, psi, 0.02, 2500, stride=25).rows)
        obs = _Observables(ham, g)
        rows = [obs.measure(state, t) for t, state in _evolve(ham, psi, 0.02, 2500, 25)]
        want = np.array([[row[c] for c in Trajectory.CSV_COLUMNS] for row in rows])
        assert got.shape == want.shape == (101, len(Trajectory.CSV_COLUMNS))
        assert np.array_equal(got[:, 0], want[:, 0])
        scale = np.maximum(np.max(np.abs(want), axis=0), 1.0)
        assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-13 * scale)

    def test_guard_refusal_mid_block_names_its_row(self, params, feed, states):
        ok, _, refused, worse = states
        feed([ok] * 5 + [refused, ok, worse] + [ok] * 4)
        with pytest.raises(SingularMomentumError,
                           match=r"S_Py_x is singular at k=0 .* 2\.000e-03 > guard 1\.0e-03"):
            self._run(params)

    def test_flux_abort_mid_block(self, params, feed, states):
        ok, leaking, refused, _ = states
        flux = _Observables(build_free_dirac(params), self._GRID).measure(leaking, 0.3)["flux"]
        assert flux > 1e-6
        message = (f"boundary flux {flux:.3e} exceeded 1.0e-06 at t=0.3; "
                   "enlarge the box or shorten the run")
        # the flux abort at row 3 comes before the refusal of row 5, and a
        # leaking first row is no abort
        feed([leaking, ok, ok, leaking, ok, refused] + [ok] * 4)
        with pytest.raises(BoundaryFluxError) as info:
            self._run(params)
        assert str(info.value) == message
        feed([leaking] + [ok] * 20)
        assert len(self._run(params).rows) == 21

    def test_step_error_after_a_leaking_row(self, params, feed, states):
        ok, leaking, _, _ = states
        feed([ok, ok, ok, leaking, ok], KrylovConvergenceError("no", suggested_dt=0.05))
        with pytest.raises(BoundaryFluxError, match="at t=0.3;"):
            self._run(params)
        feed([ok] * 5, KrylovConvergenceError("no", suggested_dt=0.05))
        with pytest.raises(KrylovConvergenceError, match="no"):
            self._run(params)

    def test_1d_block_memory(self, params):
        # a full block of 8 rows of 512 points (256 KB): a stack holds its
        # transposed copy and the densities, 2.5 blocks for the ten a <= b
        # densities of the momentum stack
        g = GridSpec(1, 512, 256.0)
        ham = build_free_dirac(params)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 16.0, 0.75, [1, 1, 0, 0]), params)
        obs = _Observables(ham, g)
        obs.measure(psi, 0.0)  # fills the leaf caches and gathers the stacks
        block = obs.block.nbytes
        assert len(obs.block) == 8
        tracemalloc.start()
        try:
            for i in range(8):
                obs.add(0.1 * i, psi)
            rows = list(obs.rows())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 8
        assert peak <= 4.5 * block


class TestEhrenfest:
    def test_fw_free_closure_at_floor(self, params, battery_1d):
        ham = build_free_dirac(params)
        out = ehrenfest_residual(SpinKind.FW, ham, battery_1d[0], 0.02, 8)
        assert np.max(out["residual"]) <= 1e-10

    def test_dirac_free_second_order(self, params):
        g = GridSpec(1, 512, 512.0)
        mixed = mixed_energy_state(g, params, 0.75, 40.0)
        ham = build_free_dirac(params)
        e0 = np.sqrt(0.75**2 + 1.0)
        period = 2 * np.pi / (2 * e0)
        r1 = ehrenfest_residual(SpinKind.DIRAC, ham, mixed, period / 32, 32)
        r2 = ehrenfest_residual(SpinKind.DIRAC, ham, mixed, period / 64, 64)
        ratio = np.max(r1["residual"]) / np.max(r2["residual"])
        assert ratio == pytest.approx(4.0, abs=0.3)

    def test_pryce_zeeman_direct(self, params, battery_1d):
        b0 = 0.2
        model = UniformB(np.array([0.0, 0.0, b0]))
        ham = build_fw_direct(model, params).subset(["zeeman"])
        dt = 1e-3 * params.m0 / (abs(params.e) * b0)
        out = ehrenfest_residual(SpinKind.PRYCE, ham, battery_1d[1], dt, 10,
                                 krylov_tol=1e-13)
        assert np.max(out["residual"]) <= 1e-6

    def test_steps_once_per_dt(self, params, battery_1d, monkeypatch):
        # the centred difference reads <S> at every step, so even an exact
        # step is taken once per dt, never across several
        from relspin import propagate
        sizes = []
        monkeypatch.setattr(propagate, "strang_step_dirac", lambda ham, psi, t, dt: sizes.append(dt)
                            or strang_step_dirac(ham, psi, t, dt))
        out = ehrenfest_residual(SpinKind.FW, build_free_dirac(params),
                                 battery_1d[0], 0.02, 8)
        assert sizes == [0.02] * 8
        assert len(out["spin"]) == 9

    def test_negative_steps_refused(self, params, battery_1d):
        # the time loop refuses what run refuses, rather than sampling nothing
        with pytest.raises(PreconditionError, match="steps must be >= 0"):
            ehrenfest_residual(SpinKind.FW, build_free_dirac(params), battery_1d[0], 0.02, -1)

    @pytest.mark.parametrize("family, model, krylov", [
        ("free", ZeroField(), False),       # one exact factor
        ("dirac-em", _UNIFORM_B, False),    # two exact factors
        ("fw-direct", _PULSED_B, True),     # Krylov steps under a pulsed B
    ], ids=["free", "dirac-em", "pulsed-fw-direct"])
    def test_spin_is_runs_at_stride_one(self, params, krylov_count, family, model, krylov):
        # both read one time loop and one Krylov tolerance, so at their
        # defaults the sampled <S> are run's S columns
        ham, psi = _leap_case(params, family, model)
        traj = run(ham, psi, 0.037, 12, t0=0.1)
        assert (krylov_count[0] > 0) == krylov
        labels = {SpinKind.DIRAC: "S_D", SpinKind.FW: "S_FW", SpinKind.PRYCE: "S_Py"}
        for kind, label in labels.items():
            out = ehrenfest_residual(kind, ham, psi, 0.037, 12, t0=0.1)
            want = np.stack([traj.column(f"{label}_{ax}") for ax in "xyz"], axis=1)
            assert out["spin"].shape == want.shape == (13, 3)
            assert np.max(np.abs(out["spin"] - want)) <= 1e-14
            assert np.array_equal(out["t"], traj.column("t")[1:-1])

    def test_non_hermitian_extension_closes(self, params):
        # A transverse time-varying uniform B on a 1D grid leaves the printed
        # direct Hamiltonian with a genuine anti-Hermitian part (the grid
        # carries only half of the induced field's curl), which makes it the
        # cheapest honest exercise of the Arnoldi path plus the Ehrenfest
        # identity for a non-Hermitian H.
        from relspin.fields import Envelope
        g = GridSpec(1, 256, 256.0)
        psi = positive_energy_part(gaussian_packet(g, 0.0, 12.0, 1.0, [1, 1, 0, 0]), params)
        env = Envelope(shape="gaussian", amplitude=1.0, center=0.0, width=4.0)
        model = UniformB(np.array([0.0, 0.0, 0.2]), env)
        ham = build_hamiltonian("fw-direct", model, params, hermitize=False)
        assert not ham.assume_hermitian
        out = ehrenfest_residual(SpinKind.FW, ham, psi, 0.04, 6,
                                 krylov_tol=1e-11)
        r1 = np.max(out["residual"])
        out2 = ehrenfest_residual(SpinKind.FW, ham, psi, 0.02, 6,
                                  krylov_tol=1e-11)
        r2 = np.max(out2["residual"])
        assert r1 <= 1e-3 and r2 <= 0.35 * r1
