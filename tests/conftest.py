import numpy as np
import pytest

from relspin.grid import GridSpec
from relspin.operators import PhysParams


@pytest.fixture(scope="session")
def params():
    return PhysParams()


@pytest.fixture(scope="session")
def grid_1d():
    return GridSpec(1, 512, 256.0)


@pytest.fixture(scope="session")
def grid_3d():
    return GridSpec(3, 32, 48.0)


@pytest.fixture(scope="session")
def battery_1d(grid_1d, params):
    from relspin.dynamics import standard_battery
    return standard_battery(grid_1d, params)


@pytest.fixture(scope="session")
def battery_3d(grid_3d, params):
    from relspin.dynamics import standard_battery
    return standard_battery(grid_3d, params)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(771)


@pytest.fixture(scope="session")
def hermiticity_residual():
    """``hermiticity_residual(expr, states, t=0.0)``: the largest
    |<psi, E psi> - conj(<psi, E psi>)| over the given states."""
    from relspin.expr import expectation

    def residual(expr, states, t=0.0):
        return max((abs(v - np.conj(v)) for v in (expectation(expr, f, t) for f in states)),
                   default=0.0)
    return residual


@pytest.fixture(scope="session")
def boundary_flux():
    """``boundary_flux(field)``: the fraction of the squared norm sitting in
    the boundary margin shell, summed directly; the reference for the
    trajectory's flux column."""
    def flux(field):
        dens = np.sum(np.abs(field.to_position().data) ** 2, axis=0)
        total = float(np.sum(dens))
        if total == 0:
            return 0.0
        return float(np.sum(dens[field.grid.boundary_shell_mask]) / total)
    return flux


@pytest.fixture(scope="session")
def apply_matrix():
    """``apply_matrix(mat, values)``: a constant 4x4 matrix applied at every
    point of spinor values (4, *shape), densely; the reference for the
    per-entry kernel ``grid.pointwise``."""
    return lambda mat, values: np.einsum("ab,b...->a...", mat, values)


class FFTCount:
    """Transforms since the last ``reset``: ``calls`` of scipy.fft.fftn/ifftn
    and axis ``passes``, the sum of len(axes) over the calls (one 1D
    transform along one axis of the field is one pass)."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = self.passes = 0


@pytest.fixture
def fft_count(monkeypatch):
    """Counts scipy.fft.fftn/ifftn calls and axis passes; read
    ``fft_count.calls`` and ``fft_count.passes``."""
    import scipy.fft
    count = FFTCount()

    def counted(fn):
        def wrapper(x, *args, **kwargs):
            axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
            count.calls += 1
            count.passes += np.ndim(x) if axes is None else len(axes)
            return fn(x, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.fft, "fftn", counted(scipy.fft.fftn))
    monkeypatch.setattr(scipy.fft, "ifftn", counted(scipy.fft.ifftn))
    return count


@pytest.fixture
def mesh_count(monkeypatch):
    """Counts the calls of every ``*_mesh`` method of the FieldModel classes,
    by method name; read ``mesh_count["b_mesh"]``.  A leaf built on a mesh
    method keeps the method it was given, so build after the fixture is set."""
    from collections import Counter

    from relspin.fields import FieldModel
    count = Counter()

    def classes(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from classes(sub)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in classes(FieldModel):
        for name, fn in list(vars(cls).items()):
            if name.endswith("_mesh") and callable(fn):
                monkeypatch.setattr(cls, name, counted(name, fn))
    return count


@pytest.fixture
def krylov_count(monkeypatch):
    """Counts ``propagate.krylov_step`` calls, the Arnoldi steps a run
    takes; read ``krylov_count[0]``."""
    from relspin import propagate
    count = [0]
    step = propagate.krylov_step

    def counted(*args, **kwargs):
        count[0] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(propagate, "krylov_step", counted)
    return count
