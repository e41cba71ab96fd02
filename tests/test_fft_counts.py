"""Exact transform counts of fixed operations.

Transforms dominate large-grid applies, so a change that adds one shows up
here as a failure instead of only as a slower run.
"""

import numpy as np

from relspin.dynamics import build_hamiltonian, spin_expr, verify
from relspin.expr import apply_expr, expectation
from relspin.fields import UniformB
from relspin.grid import GridSpec, SpinorField
from relspin.operators import SpinKind

_MODEL = UniformB([0.0, 0.0, 0.05])


def _position_state(grid):
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(4, *grid.shape)) + 1j * rng.normal(size=(4, *grid.shape))
    return SpinorField(grid, vals).normalized()


def test_round_trip(fft_count):
    psi = _position_state(GridSpec(3, 16, 24.0))
    psi.to_momentum().to_position()
    assert fft_count[0] == 2


def test_dirac_spin_expectation(params, fft_count):
    # S_D = Sigma/2 is a constant matrix: it acts in the state's own space
    psi = _position_state(GridSpec(3, 16, 24.0))
    for comp in spin_expr(SpinKind.DIRAC, params):
        expectation(comp, psi)
    assert fft_count[0] == 0


def test_dirac_em_apply(params, fft_count):
    grid = GridSpec(3, 16, 24.0)
    psi = _position_state(grid)
    ham = build_hamiltonian("dirac-em", _MODEL, params, grid)
    fft_count[0] = 0
    apply_expr(ham.total, psi)
    # kinetic c alpha.p acts in momentum (1); the gauge and mass terms act
    # in position and their results join the momentum accumulator (1 each);
    # the absent scalar potential is a zero constant and is skipped; the sum
    # returns to position (1)
    assert fft_count[0] == 4


def test_pryce_dirac_em_verify(params, battery_3d, fft_count):
    ham = build_hamiltonian("dirac-em", _MODEL, params, battery_3d[0].grid)
    fft_count[0] = 0
    verify(SpinKind.PRYCE, ham, battery_3d)
    # per state: H psi (4), then per axis
    #   S (H psi) and S psi, momentum-diagonal:      2 + 2
    #   H (S psi):                                   4
    #   printed terms, each applied once:
    #     sigma-cross-b-alpha-p  alpha.p in momentum, back          2
    #     alpha-r-gradient       p_i, alpha.r, 1/p^2, back          4
    #     r-p-alpha-b            p_i, three r_j p_j products in
    #                            position, 1/p^2, back              6
    # so 4 + 3 * (4 + 4 + 12) = 64 per state, 128 for the two-packet battery
    assert len(battery_3d) == 2
    assert fft_count[0] == 128
