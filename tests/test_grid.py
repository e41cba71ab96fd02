import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relspin.dynamics import battery_states, positive_energy_part
from relspin.errors import GridResolutionError, PreconditionError
from relspin.grid import (GridSpec, SpinorField, gaussian_packet, load_field, matrix_entries,
                          pointwise, save_field, suppress_zero_mode, zero_mode_weight)
from relspin.operators import ALPHA, BETA, PhysParams, free_dirac_matrix


def random_field(grid, rng):
    vals = rng.normal(size=(4, *grid.shape)) + 1j * rng.normal(size=(4, *grid.shape))
    return SpinorField(grid, vals)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            GridSpec(2, 64, 10.0)
        with pytest.raises(PreconditionError):
            GridSpec(1, 48, 10.0)   # not a power of two
        with pytest.raises(PreconditionError):
            GridSpec(1, 4, 10.0)    # too small
        with pytest.raises(PreconditionError):
            GridSpec(1, 64, -1.0)

    @pytest.mark.parametrize("length", [float("inf"), float("nan")])
    def test_non_finite_length_refused(self, length):
        # an infinite box would give NaN positions
        with pytest.raises(PreconditionError, match="box length"):
            GridSpec(3, 16, [8.0, length, 8.0])

    @pytest.mark.parametrize("count", [64.7, float("inf"), float("nan")])
    def test_non_integer_count_refused(self, count):
        # int() would truncate 64.7 to 64 and raise its own error on inf or nan
        with pytest.raises(PreconditionError, match=f"finite integer, got {count}"):
            GridSpec(1, count, 8.0)
        with pytest.raises(PreconditionError, match=f"finite integer, got {count}"):
            GridSpec(3, [16, count, 16], 8.0)

    def test_integral_float_count(self):
        assert GridSpec(1, 64.0, 8.0).n == (64,)
        assert GridSpec(3, np.array([16.0, 32.0, 8.0]), 8.0).n == (16, 32, 8)

    def test_lattices(self):
        g = GridSpec(1, 8, 8.0)
        assert np.allclose(g.axis_positions(0), np.arange(-4.0, 4.0))
        k = g.axis_momenta(0)
        assert k[4] == 0.0
        assert np.allclose(np.diff(k), 2 * np.pi / 8.0)

    def test_weight(self):
        g = GridSpec(3, 16, [8.0, 16.0, 32.0])
        assert g.weight == pytest.approx(0.5 * 1.0 * 2.0)

    def test_hashable(self):
        assert GridSpec(1, 64, 8.0) == GridSpec(1, 64, 8.0)
        assert len({GridSpec(1, 64, 8.0), GridSpec(1, 64, 8.0)}) == 1

    def test_inv_k2(self):
        g = GridSpec(3, 8, [8.0, 16.0, 32.0])
        inv = g.inv_k2
        assert inv[g.origin_index] == 0.0
        off = np.ones(g.shape, dtype=bool)
        off[g.origin_index] = False
        assert np.max(np.abs(inv[off] * g.k2[off] - 1.0)) <= 1e-15
        assert g.inv_k2 is inv  # built once per grid


class TestPointwise:
    """The per-entry kernel against a dense einsum of the per-point matrix
    sum_j f_j M_j."""

    _GRIDS = [GridSpec(1, 16, 12.0), GridSpec(3, (8, 16, 8), (8.0, 10.0, 12.0))]

    @staticmethod
    def _matrix(kind, rng):
        if kind == "zero":
            return np.zeros((4, 4))
        if kind == "monomial":  # entries +-1 and +-i, as in alpha, beta, Sigma
            m = np.zeros((4, 4), dtype=complex)
            m[np.arange(4), rng.permutation(4)] = rng.choice([1, -1, 1j, -1j], size=4)
            return m
        m = rng.normal(size=(4, 4)) + (1j * rng.normal(size=(4, 4)) if kind == "complex" else 0)
        if kind == "empty-row":
            m[rng.choice(4, size=rng.integers(1, 4), replace=False)] = 0.0
        return m

    @staticmethod
    def _scalar(kind, real, grid, rng):
        z = lambda *shape: rng.normal(size=shape) + (0 if real else 1j * rng.normal(size=shape))
        if kind == "0-d":
            return z()
        if kind == "mesh":
            shape = [1] * grid.dim
            axis = rng.integers(grid.dim)
            shape[axis] = grid.n[axis]
            return z(*shape)
        return z(*grid.shape)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0, 1]),
           st.lists(st.tuples(
               st.sampled_from(["monomial", "dense", "complex", "zero", "empty-row"]),
               st.sampled_from(["0-d", "mesh", "full"]), st.booleans()),
               max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_einsum(self, seed, grid_index, kinds):
        rng = np.random.default_rng(seed)
        grid = self._GRIDS[grid_index]
        pairs = [(self._matrix(mk, rng), self._scalar(sk, real, grid, rng))
                 for mk, sk, real in kinds]
        psi = random_field(grid, rng).values
        got = pointwise(psi, [(matrix_entries(m), f) for m, f in pairs])
        per_point = sum((np.multiply.outer(np.broadcast_to(f, grid.shape), m) for m, f in pairs),
                        np.zeros((*grid.shape, 4, 4)))
        want = np.einsum("...ab,b...->a...", per_point, psi)
        assert got.shape == psi.shape and not np.shares_memory(got, psi)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_real_entries_are_floats(self):
        entries = matrix_entries(np.diag([1.0, -2.0, 0.0, 3j]))
        assert entries == [(0, 0, 1.0), (1, 1, -2.0), (3, 3, 3j)]
        assert [type(m) for _, _, m in entries[:2]] == [np.float64, np.float64]


class TestTransforms:
    @pytest.mark.parametrize("dim,n,length", [(1, 256, 64.0), (3, 16, 12.0)])
    def test_roundtrip(self, dim, n, length, rng):
        g = GridSpec(dim, n, length)
        f = random_field(g, rng)
        back = f.to_momentum().to_position()
        assert (back - f).norm() <= 1e-12 * f.norm()

    def test_parseval(self, rng):
        g = GridSpec(1, 128, 32.0)
        f = random_field(g, rng)
        assert abs(f.to_momentum().norm() - f.norm()) <= 1e-12 * f.norm()

    def test_plane_wave_single_bin(self):
        g = GridSpec(1, 64, 16.0)
        m = 41
        k = g.axis_momenta(0)[m]
        vals = np.zeros((4, 64), dtype=complex)
        vals[0] = np.exp(1j * k * g.axis_positions(0))
        mom = SpinorField(g, vals).to_momentum()
        mags = np.abs(mom.values[0])
        assert np.argmax(mags) == m
        others = np.delete(mags, m)
        assert np.max(others) <= 1e-12 * mags[m]

    def test_plane_wave_single_bin_3d(self):
        g = GridSpec(3, 16, 8.0)
        target = (10, 8, 5)
        kx = g.axis_momenta(0)[target[0]]
        ky = g.axis_momenta(1)[target[1]]
        kz = g.axis_momenta(2)[target[2]]
        rx, ry, rz = g.r
        vals = np.zeros((4, 16, 16, 16), dtype=complex)
        vals[1] = np.exp(1j * (kx * rx + ky * ry + kz * rz))
        mom = SpinorField(g, vals).to_momentum()
        mags = np.abs(mom.values[1])
        assert np.unravel_index(np.argmax(mags), mags.shape) == target


    @staticmethod
    def _dft_matrix(g):
        """exp(-i k_m r_n) / sqrt(N) over flattened lattice indices."""
        r = np.stack([np.broadcast_to(c, g.shape).ravel() for c in g.r[:g.dim]])
        k = np.stack([np.broadcast_to(c, g.shape).ravel() for c in g.k[:g.dim]])
        return np.exp(-1j * (k.T @ r)) / np.sqrt(g.npoints)

    @pytest.mark.parametrize("dim,n,length", [(1, 16, 5.0), (3, 8, 6.0)])
    def test_matches_direct_dft(self, dim, n, length, rng):
        # psihat_m = N^{-1/2} sum_n psi_n exp(-i k_m r_n) pins phase and scale
        g = GridSpec(dim, n, length)
        f = random_field(g, rng)
        dft = self._dft_matrix(g)
        want = (f.values.reshape(4, -1) @ dft.T).reshape(f.values.shape)
        mom = f.to_momentum()
        assert np.max(np.abs(mom.values - want)) <= 1e-12 * np.max(np.abs(want))
        back = (mom.values.reshape(4, -1) @ dft.conj()).reshape(f.values.shape)
        got = mom.to_position().values
        assert np.max(np.abs(got - back)) <= 1e-12 * np.max(np.abs(back))

    def test_transforms_leave_input_unchanged(self, rng):
        g = GridSpec(3, 8, 6.0)
        f = random_field(g, rng)
        before = f.values.copy()
        mom = f.to_momentum()
        assert np.array_equal(f.values, before)
        mom_before = mom.values.copy()
        mom.to_position()
        assert np.array_equal(mom.values, mom_before)


class TestSpinorField:
    def test_inner_product_weight(self, rng):
        g = GridSpec(1, 64, 32.0)
        f = random_field(g, rng)
        manual = np.vdot(f.values, f.values) * 0.5  # dx = 0.5
        assert f.inner(f) == pytest.approx(manual)
        assert f.inner(f).real >= 0 and abs(f.inner(f).imag) <= 1e-12 * abs(f.inner(f))

    def test_cross_space_inner(self, rng):
        g = GridSpec(1, 64, 32.0)
        a = random_field(g, rng)
        b = random_field(g, rng)
        direct = a.inner(b)
        mixed = a.inner(b.to_momentum())
        assert abs(direct - mixed) <= 1e-12 * abs(direct)

    def test_constructor_folds_a_copy(self, rng):
        # true values are folded into a new array, which .values unfolds
        # exactly; folded data is held as it is
        g = GridSpec(3, 8, 8.0)
        vals = rng.normal(size=(4, *g.shape)) + 1j * rng.normal(size=(4, *g.shape))
        field = SpinorField(g, vals)
        assert not np.shares_memory(field.data, vals)
        assert np.array_equal(field.data, vals * g._phase)
        assert np.array_equal(field.values, vals)
        assert SpinorField(g, field.data, folded=True).data is field.data

    def test_shape_check(self):
        g = GridSpec(1, 64, 32.0)
        with pytest.raises(PreconditionError):
            SpinorField(g, np.zeros((4, 32), dtype=complex))


class TestGaussianPacket:
    def test_normalized(self, grid_1d, params):
        psi = positive_energy_part(gaussian_packet(grid_1d, 0.0, 16.0, 1.0, [1, 0, 0, 0]), params)
        assert abs(psi.norm() - 1.0) <= 1e-12

    @pytest.mark.parametrize("grid, sigma, center, k0", [
        (GridSpec(1, 512, 256.0), 16.0, [3.0, 0.0, 0.0], [-0.7, 0.0, 0.0]),
        (GridSpec(3, [32, 32, 64], [48.0, 48.0, 96.0]), 6.0, [0.0, 0.0, 5.0], [1.25, 0.8, -0.3]),
    ], ids=["1d", "3d"])
    def test_separable_packet_is_the_full_grid_formula(self, grid, sigma, center, k0):
        # the envelope and the plane wave evaluated at every point, normalized
        pol = np.array([1.0, 1.0j, 0.5, 0.0])
        arg = sum((r - c) ** 2 for r, c in zip(grid.r, center))
        phase = sum(k * r for k, r in zip(k0, grid.r))
        scalar = np.broadcast_to(np.exp(-arg / (4 * sigma**2)) * np.exp(1j * phase), grid.shape)
        want = SpinorField(grid, pol.reshape(4, *[1] * grid.dim) * scalar).normalized()
        got = gaussian_packet(grid, center, sigma, k0, pol)
        assert got.space == "position"
        # Both sides round the per-axis products k_j r_j and squares
        # (r_j - c_j)^2 alike.  The full-grid formula then sums each over the
        # axes: dim - 1 roundings of at most u = eps/2 times the sum of the
        # magnitudes, K = sum_j |k_j r_j| for the phase and A = |r - c|^2 /
        # (4 sigma^2) for the exponent, and exp turns an argument's error
        # into the same relative error of its value: (dim - 1) u (K + A) at a
        # point, 37.5 eps where K = 37.5 in 3D, and nothing in 1D, where both
        # sides evaluate the same exps.  Beyond that they differ by the
        # polarization's normalization, its product with the scalar and the
        # scaling to unit norm, 10 u in all, and in 3D by the other axes'
        # exps and the products that join the axes, 6 u per axis after the
        # first.  Both are
        # normalized, which to first order removes the mean of a point's
        # relative change and so adds nothing.
        u = np.finfo(float).eps / 2
        cond = (grid.dim - 1) * (sum(np.abs(k * r) for k, r in zip(k0, grid.r))
                                 + arg / (4 * sigma**2)) + 10 + 6 * (grid.dim - 1)
        bound = u * np.linalg.norm(cond * want.values)
        assert np.linalg.norm(got.values - want.values) <= bound

    def test_resolution_guard(self, grid_1d):
        with pytest.raises(GridResolutionError):
            gaussian_packet(grid_1d, 0.0, 1.0, 1.0, [1, 0, 0, 0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("arg, error", [("sigma", GridResolutionError),
                                            ("center", PreconditionError),
                                            ("k0", PreconditionError),
                                            ("polarization", PreconditionError)])
    def test_non_finite_argument_refused(self, grid_3d, arg, error, bad):
        # a NaN once gave an all-NaN field and no error
        kwargs = dict(center=[0.0, 0.0, 0.0], sigma=6.0, k0=[1.0, 0.0, 0.0],
                      polarization=[1.0, 0.0, 0.0, 0.0])
        kwargs[arg] = bad if arg == "sigma" else [0.0, bad, 0.0, 0.0][:len(kwargs[arg])]
        with pytest.raises(error, match=f"{arg} must be finite"):
            gaussian_packet(grid_3d, **kwargs)

    def test_born_folded_without_a_phase_array(self, params):
        # a packet is folded per axis as it is built, so neither it, its
        # round trip through momentum space nor a battery state makes the
        # grid's full-size checkerboard
        grid = GridSpec(3, 32, 48.0)  # a new grid, whose cached properties are its own
        packet = gaussian_packet(grid, np.zeros(3), 6.0, [0.5, 0.0, 0.0], [1, 0, 0, 0])
        packet.to_momentum().to_position()
        battery_states(grid, params)[0]
        assert "_phase" not in grid.__dict__

    def test_margin_guard(self, grid_1d):
        with pytest.raises(GridResolutionError):
            gaussian_packet(grid_1d, 100.0, 16.0, 1.0, [1, 0, 0, 0])

    def test_1d_requires_axial_momentum(self, grid_1d):
        with pytest.raises(PreconditionError):
            gaussian_packet(grid_1d, 0.0, 16.0, [0.0, 1.0, 0.0], [1, 0, 0, 0])

    def test_zero_mode_weight_bound(self, grid_1d):
        # |k0| >= 6/sigma keeps the zero-mode fraction under the guard
        sigma = 16.0
        psi = gaussian_packet(grid_1d, 0.0, sigma, 6.0 / sigma, [1, 0, 0, 0])
        assert zero_mode_weight(psi) <= 1e-10

    def test_energy_projection_sign_operator(self, grid_1d, params):
        psi = positive_energy_part(gaussian_packet(grid_1d, 0.0, 16.0, 1.0, [1, 0, 0, 0]), params)
        mom = psi.to_momentum()
        e_k = np.sqrt(grid_1d.k2 * params.c**2 + params.rest_energy**2)
        hv = params.rest_energy * np.einsum("ab,b...->a...", BETA, mom.values)
        hv += params.c * grid_1d.k[0] * np.einsum("ab,b...->a...", ALPHA[0], mom.values)
        sign_exp = np.vdot(mom.values, hv / e_k) * grid_1d.weight
        assert abs(sign_exp - 1.0) <= 1e-10

    @pytest.mark.parametrize("grid", [GridSpec(1, 64, 48.0),
                                      GridSpec(3, 16, [8.0, 10.0, 12.0])])
    def test_positive_energy_part_matches_dense_projector(self, grid, rng):
        # (1 + H_free(k)/E_k)/2 as a dense 4x4 matrix at every lattice k,
        # H_free from operators, E_k its positive eigenvalue
        params = PhysParams(m0=0.8, c=1.7)
        psi = random_field(grid, rng)
        got = positive_energy_part(psi, params)
        kvec = np.stack([np.broadcast_to(k, grid.shape) for k in grid.k], axis=-1)
        e_k = np.sqrt(grid.k2 * params.c**2 + params.rest_energy**2)[..., None, None]
        proj = 0.5 * (np.eye(4) + free_dirac_matrix(kvec, params) / e_k)
        want = np.einsum("...ab,b...->a...", proj, psi.to_momentum().values)
        want /= np.sqrt(np.vdot(want, want).real * grid.weight)
        assert got.space == "momentum"
        assert np.max(np.abs(got.values - want)) <= 1e-14 * np.max(np.abs(want))
        # a projector: projecting twice moves the state by roundoff only
        assert (positive_energy_part(got, params) - got).norm() <= 1e-14

    def test_positive_energy_part_skips_the_round_trip(self, grid_3d, params, fft_count):
        # a position packet is moved to momentum space once (one call) and
        # projected there, where the result stays; a momentum state takes none
        packet = gaussian_packet(grid_3d, np.zeros(3), 6.0, [0.8, 0.4, 0.0], [1, 0, 0, 1])
        mom = packet.to_momentum()
        fft_count.reset()
        got = positive_energy_part(packet, params)
        want = positive_energy_part(mom, params)
        assert fft_count.calls == 1
        assert got.space == want.space == "momentum"
        assert np.max(np.abs(got.values - want.values)) <= 1e-13 * np.max(np.abs(want.values))

    def test_packet_momentum_mean(self, grid_1d):
        psi = gaussian_packet(grid_1d, 0.0, 16.0, 1.25, [1, 0, 0, 0])
        mom = psi.to_momentum()
        mean_k = np.sum(np.abs(mom.values) ** 2 * grid_1d.k[0]) * grid_1d.weight
        assert abs(mean_k - 1.25) <= 1e-6


class TestZeroMode:
    def test_plane_wave_zero(self):
        g = GridSpec(1, 64, 16.0)
        k = g.axis_momenta(0)[40]
        vals = np.zeros((4, 64), dtype=complex)
        vals[0] = np.exp(1j * k * g.axis_positions(0))
        assert zero_mode_weight(SpinorField(g, vals)) <= 1e-25

    def test_constant_field_is_pure_zero_mode(self):
        g = GridSpec(1, 64, 16.0)
        vals = np.ones((4, 64), dtype=complex)
        assert zero_mode_weight(SpinorField(g, vals)) == pytest.approx(1.0)

    def test_matches_direct_summation_oracle(self, grid_1d):
        psi = gaussian_packet(grid_1d, 10.0, 16.0, 0.0, [1, 1j, 0, 0])
        # oracle: k=0 DFT coefficient is the plain sum over samples / sqrt(N)
        vals = psi.values
        coeff = np.sum(vals, axis=1) / np.sqrt(grid_1d.npoints)
        oracle = float(np.sum(np.abs(coeff) ** 2) / np.sum(np.abs(vals) ** 2))
        assert zero_mode_weight(psi) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("grid", [GridSpec(1, 64, 16.0), GridSpec(3, 16, 12.0)])
    def test_matches_abs_squared_sums(self, grid, rng):
        # the reference: |x|^2 summed over the k = 0 bin and the whole field
        def reference(field):
            mom = field.to_momentum()
            w0 = np.sum(np.abs(mom.values[(slice(None), *grid.origin_index)]) ** 2)
            return float(w0 / np.sum(np.abs(mom.values) ** 2))
        for _ in range(4):
            psi = random_field(grid, rng)
            for field in (psi, psi.to_momentum(), psi.to_momentum().to_position(),
                          SpinorField(grid, psi.values, "momentum")):
                assert zero_mode_weight(field) == pytest.approx(reference(field), rel=1e-14,
                                                                abs=0.0)

    def test_suppress_zero_mode(self, grid_1d):
        psi = gaussian_packet(grid_1d, 10.0, 16.0, 0.0, [1, 0, 0, 0])
        clean = suppress_zero_mode(psi)
        assert zero_mode_weight(clean) <= 1e-28
        assert abs(clean.norm() - 1.0) <= 1e-12


class TestBinaryDump:
    def test_roundtrip(self, tmp_path, rng):
        g = GridSpec(1, 64, 32.0)
        f = random_field(g, rng).to_momentum()
        path = tmp_path / "field.rspn"
        save_field(f, path)
        loaded = load_field(path)
        assert loaded.space == "momentum"
        assert loaded.grid == g
        assert np.array_equal(loaded.values, f.values)

    @staticmethod
    def _payload(path, grid):
        """The complex payload of a dump, read past its header."""
        return np.fromfile(path, dtype="<c16", offset=8 + 12 * grid.dim).reshape(
            (4, *grid.shape))

    @pytest.mark.parametrize("dim,n,length", [(1, 16, 5.0), (3, 8, 6.0)])
    def test_dump_holds_true_values(self, tmp_path, rng, dim, n, length):
        # a field built from known values, and the transform of one, in both
        # spaces: the payload is the true values, not the stored ones
        g = GridSpec(dim, n, length)
        vals = random_field(g, rng).values
        dft = TestTransforms._dft_matrix(g)
        vals_k = (vals.reshape(4, -1) @ dft.T).reshape(vals.shape)
        path = tmp_path / "field.rspn"
        for field, want, exact in [(SpinorField(g, vals), vals, True),
                                   (SpinorField(g, vals_k, "momentum"), vals_k, True),
                                   (SpinorField(g, vals).to_momentum(), vals_k, False),
                                   (SpinorField(g, vals_k, "momentum").to_position(), vals, False),
                                   (SpinorField(g, vals).to_momentum().to_position(), vals, False)]:
            save_field(field, path)
            got = self._payload(path, g)
            if exact:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_load_gives_the_payload(self, tmp_path, rng):
        g = GridSpec(1, 16, 5.0)
        vals = random_field(g, rng).values
        path = tmp_path / "field.rspn"
        with open(path, "wb") as fh:
            fh.write(b"RSPN" + bytes([1, ord("<"), 1, 0]))
            np.array([16], dtype="<u4").tofile(fh)
            np.array([5.0], dtype="<f8").tofile(fh)
            vals.astype("<c16").tofile(fh)
        loaded = load_field(path)
        assert loaded.space == "position"
        assert np.array_equal(loaded.values, vals)
        dft = TestTransforms._dft_matrix(g)
        want = vals @ dft.T
        got = loaded.to_momentum().values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.rspn"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(PreconditionError):
            load_field(path)

    @staticmethod
    def _dump(tmp_path, rng):
        path = tmp_path / "field.rspn"
        save_field(random_field(GridSpec(1, 8, 4.0), rng), path)
        return path, path.read_bytes()

    @pytest.mark.parametrize("cut,what", [(6, "8-byte header"),
                                          (8 + 7, "per-axis fields")])
    def test_rejects_truncated_header(self, tmp_path, rng, cut, what):
        path, data = self._dump(tmp_path, rng)
        path.write_bytes(data[:cut])
        with pytest.raises(PreconditionError, match=what):
            load_field(path)

    def test_rejects_truncated_payload(self, tmp_path, rng):
        path, data = self._dump(tmp_path, rng)
        path.write_bytes(data[:-1])
        with pytest.raises(PreconditionError, match="truncated"):
            load_field(path)

    def test_rejects_trailing_bytes(self, tmp_path, rng):
        path, data = self._dump(tmp_path, rng)
        path.write_bytes(data + b"\x00" * 16)
        with pytest.raises(PreconditionError, match="trailing bytes"):
            load_field(path)

    def test_rejects_unknown_space_byte(self, tmp_path, rng):
        path, data = self._dump(tmp_path, rng)
        path.write_bytes(data[:7] + bytes([2]) + data[8:])
        with pytest.raises(PreconditionError, match="space byte"):
            load_field(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_payload(self, tmp_path, rng, bad):
        # planted in the dump itself: a field folds (and save_field unfolds)
        # by multiplying with the complex P = +-1 + 0j, which would put a NaN
        # beside an Inf
        path, data = self._dump(tmp_path, rng)
        payload = self._payload(path, GridSpec(1, 8, 4.0))
        payload[2, 5] = bad
        path.write_bytes(data[:8 + 12] + payload.tobytes())
        with pytest.raises(PreconditionError, match="NaN or Inf"):
            load_field(path)


class TestBoundaryFlux:
    def test_centered_packet_negligible(self, grid_1d, boundary_flux):
        psi = gaussian_packet(grid_1d, 0.0, 8.0, 1.0, [1, 0, 0, 0])
        assert boundary_flux(psi) <= 1e-12

    def test_edge_packet_flagged(self, boundary_flux):
        g = GridSpec(1, 256, 256.0)
        psi = gaussian_packet(g, 60.0, 16.0, 1.0, [1, 0, 0, 0])
        assert boundary_flux(psi) > 1e-6
