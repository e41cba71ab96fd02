import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relspin.algebra import (ID4, anticommutator, commutator, dirac_matrices,
                             herm_eigs, herm_eigvals, is_hermitian)
from relspin.errors import PreconditionError
from relspin.propagate import _exp_minus_idt

ALPHA, BETA, SIGMA = dirac_matrices()


def random_hermitian(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return m + m.conj().T


class TestDiracMatrices:
    def test_clifford_relations_entrywise(self):
        mats = list(ALPHA) + [BETA]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                anti = anticommutator(a, b)
                expected = 2.0 * ID4 if i == j else np.zeros((4, 4))
                assert np.max(np.abs(anti - expected)) <= 1e-15

    def test_alpha_squares_exactly(self):
        for a in ALPHA:
            assert np.array_equal(a @ a, ID4)

    def test_alpha_beta_anticommute_exactly(self):
        for a in ALPHA:
            assert np.max(np.abs(a @ BETA + BETA @ a)) == 0.0

    def test_sigma_from_alpha_products(self):
        # Sigma_j = -i alpha_k alpha_l for cyclic (j, k, l)
        for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert np.max(np.abs(-1j * ALPHA[k] @ ALPHA[l] - SIGMA[j])) <= 1e-15

    def test_sigma_block_structure_exact(self):
        for s in SIGMA:
            assert np.array_equal(s[:2, 2:], np.zeros((2, 2)))
            assert np.array_equal(s[2:, :2], np.zeros((2, 2)))
            assert np.array_equal(s[:2, :2], s[2:, 2:])

    def test_beta_diagonal(self):
        assert np.array_equal(BETA, np.diag([1, 1, -1, -1]).astype(complex))

    def test_all_hermitian_unitary(self):
        for m in list(ALPHA) + [BETA] + list(SIGMA):
            assert is_hermitian(m, 1e-15)
            assert np.linalg.norm(m.conj().T @ m - ID4) <= 1e-15 * max(1.0, np.linalg.norm(m))

    def test_returns_copies(self):
        a1, b1, s1 = dirac_matrices()
        a1[0][0, 0] = 99.0
        a2, _, _ = dirac_matrices()
        assert a2[0][0, 0] == 0.0


class TestCommutators:
    def test_sigma_su2(self):
        assert np.max(np.abs(commutator(SIGMA[0], SIGMA[1]) - 2j * SIGMA[2])) <= 1e-15

    def test_sigma_anticommutator(self):
        assert np.max(np.abs(anticommutator(SIGMA[0], SIGMA[0]) - 2 * ID4)) <= 1e-15

    def test_identity_commutes(self, rng):
        for _ in range(5):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert np.max(np.abs(commutator(ID4, m))) == 0.0


class TestHermEigs:
    def test_beta_spectrum(self):
        w, _ = herm_eigs(BETA)
        assert np.allclose(w, [-1, -1, 1, 1], atol=1e-14)

    def test_half_spin_spectrum(self):
        w, _ = herm_eigs(SIGMA[2] / 2)
        assert np.allclose(w, [-0.5, -0.5, 0.5, 0.5], atol=1e-14)

    def test_alpha_x_spectrum(self):
        # alpha_x^2 = 1 forces eigenvalues +-1; trace 0 forces multiplicity 2
        w, _ = herm_eigs(ALPHA[0])
        assert np.allclose(w, [-1, -1, 1, 1], atol=1e-13)

    def test_reconstruction_batch(self, rng):
        for _ in range(1000):
            a = random_hermitian(rng)
            w, v = herm_eigs(a)
            scale = np.linalg.norm(a)
            assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-12 * max(scale, 1)
            assert np.linalg.norm(v.conj().T @ v - ID4) <= 1e-12
            assert np.all(np.diff(w) >= -1e-13)

    def test_eigenpairs(self, rng):
        a = random_hermitian(rng)
        w, v = herm_eigs(a)
        for k in range(4):
            assert np.linalg.norm(a @ v[:, k] - w[k] * v[:, k]) \
                <= 1e-12 * max(np.linalg.norm(a), 1)

    def test_rejects_non_hermitian(self):
        bad = np.array(ID4)
        bad[0, 1] = 1.0
        with pytest.raises(PreconditionError):
            herm_eigs(bad)

    def test_phase_convention(self, rng):
        for _ in range(20):
            _, v = herm_eigs(random_hermitian(rng))
            for k in range(4):
                col = v[:, k]
                first = col[np.argmax(np.abs(col) > 1e-12)]
                assert abs(first.imag) <= 1e-12
                assert first.real > 0


class TestStackedHermEigs:
    """A (..., n, n) stack is decomposed as each matrix on its own."""

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_matrix(self, seed, n):
        r = np.random.default_rng(seed)
        stack = np.stack([random_hermitian(r) for _ in range(2 * n)]).reshape(2, n, 4, 4)
        # a degenerate spectrum exercises the phase convention hardest
        stack[0, 0] = SIGMA[r.integers(3)] / 2
        w, v = herm_eigs(stack)
        assert w.shape == (2, n, 4) and v.shape == (2, n, 4, 4)
        for idx in np.ndindex(2, n):
            w1, v1 = herm_eigs(stack[idx])
            assert np.max(np.abs(w[idx] - w1)) <= 1e-13 * max(1.0, np.max(np.abs(w1)))
            assert np.max(np.abs(v[idx] - v1)) <= 1e-13

    def test_one_non_hermitian_rejects_the_batch(self, rng):
        stack = np.stack([random_hermitian(rng) for _ in range(5)])
        assert is_hermitian(stack)
        stack[3, 0, 1] += 1.0
        assert not is_hermitian(stack)
        with pytest.raises(PreconditionError):
            herm_eigs(stack)

    def test_stacked_commutator(self, rng):
        a = np.stack([random_hermitian(rng) for _ in range(3)])
        b = random_hermitian(rng)
        got = commutator(a, b)
        for i in range(3):
            assert np.array_equal(got[i], commutator(a[i], b))


class TestHermEigvals:
    """The eigenvalue-only solve gives the eigenvalues of ``herm_eigs``."""

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_matches_herm_eigs(self, seed, n):
        r = np.random.default_rng(seed)
        stack = np.stack([random_hermitian(r) for _ in range(2 * n)]).reshape(2, n, 4, 4)
        stack[0, 0] = SIGMA[r.integers(3)] / 2
        # roundoff-level anti-Hermitian noise is accepted and symmetrized away
        stack[1, 0, 0, 1] += 1e-13
        w = herm_eigvals(stack)
        assert w.shape == (2, n, 4)
        assert np.max(np.abs(w - herm_eigs(stack)[0])) <= 1e-14 * max(1.0, np.max(np.abs(w)))
        for idx in np.ndindex(2, n):
            assert np.array_equal(herm_eigvals(stack[idx]), w[idx])

    def test_one_non_hermitian_rejects_the_batch(self, rng):
        stack = np.stack([random_hermitian(rng) for _ in range(5)])
        stack[3, 0, 1] += 1.0
        with pytest.raises(PreconditionError, match="herm_eigvals"):
            herm_eigvals(stack)


def exp_minus_iHt(h, t):
    """The exponential the propagators run, for a trusted-Hermitian h."""
    return _exp_minus_idt(h, t, True)


class TestExpMinusIHt:
    def test_zero_time_is_identity(self, rng):
        assert np.allclose(exp_minus_iHt(random_hermitian(rng), 0.0), ID4,
                           atol=1e-13)

    def test_diagonal_case(self):
        # beta m0 c^2 exponentiates to pure phases on the diagonal
        rest = 1.7
        t = 0.83
        u = exp_minus_iHt(rest * BETA, t)
        expected = np.diag(np.exp(-1j * rest * t * np.array([1, 1, -1, -1])))
        assert np.allclose(u, expected, atol=1e-13)

    def test_group_property(self, rng):
        for _ in range(25):
            h = random_hermitian(rng)
            t = rng.uniform(-3, 3)
            u = exp_minus_iHt(h, t) @ exp_minus_iHt(h, -t)
            assert np.linalg.norm(u - ID4) <= 1e-12

    def test_unitary(self, rng):
        for _ in range(10):
            u = exp_minus_iHt(random_hermitian(rng), 0.37)
            assert np.linalg.norm(u.conj().T @ u - ID4) <= 1e-12 * max(1.0, np.linalg.norm(u))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_preserves_spinor_norm(self, seed, t):
        r = np.random.default_rng(seed)
        h = random_hermitian(r)
        spinor = r.normal(size=4) + 1j * r.normal(size=4)
        out = exp_minus_iHt(h, t) @ spinor
        assert abs(np.linalg.norm(out) - np.linalg.norm(spinor)) <= 1e-12 * np.linalg.norm(spinor)
