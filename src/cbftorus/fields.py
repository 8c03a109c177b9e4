"""Vector fields on the torus in physical and spectral representation.

Both field types are immutable snapshots: the wrapped arrays are marked
read-only and every operation returns a new field, so values are safe to
share across threads.

Spectral coefficients follow the convention u(x) = sum_m u_hat(m) e^{i k_m.x}
with k_m = 2*pi*m/L, i.e. ``fftn(samples) / N^d``.  Real-valued fields then
satisfy the Hermitian symmetry u_hat(-m) = conj(u_hat(m)), which
:func:`to_physical` enforces before inverting.  Transforms are real, on the
half spectrum (last-axis modes 0..N/2), where the solver also keeps its
state; a :class:`SpectralField` stores the full array, which
:func:`hermitian_expand` rebuilds from the half.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidFieldError, SymmetryError
from .grid import TorusGrid

SYMMETRY_TOL = 1e-10


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PhysicalField:
    """Real samples on the grid, shape (ncomp, N, ..., N)."""

    grid: TorusGrid
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim == self.grid.dim:
            data = data[np.newaxis]
        if data.shape[1:] != self.grid.shape:
            raise InvalidFieldError(
                f"sample shape {data.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidFieldError("non-finite samples")
        object.__setattr__(self, "data", _freeze(data))

    @property
    def ncomp(self):
        return self.data.shape[0]

    @property
    def is_vector(self):
        return self.ncomp == self.grid.dim

    def magnitude(self):
        """Pointwise Euclidean magnitude |u(x)|."""
        return magnitude(self.data)


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients, shape (ncomp, N, ..., N)."""

    grid: TorusGrid
    coeffs: np.ndarray
    divergence_free: bool = False

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim == self.grid.dim:
            coeffs = coeffs[np.newaxis]
        if coeffs.shape[1:] != self.grid.shape:
            raise InvalidFieldError(
                f"coefficient shape {coeffs.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidFieldError("non-finite coefficients")
        object.__setattr__(self, "coeffs", _freeze(coeffs))

    @property
    def ncomp(self):
        return self.coeffs.shape[0]

    @property
    def is_vector(self):
        return self.ncomp == self.grid.dim

    def symmetry_defect(self):
        """max |u_hat(-k) - conj(u_hat(k))| over all modes and components."""
        defect = 0.0
        for c in self.coeffs:
            defect = max(defect, float(np.max(np.abs(c - self.grid.conj_reflect(c)))))
        return defect

    def scale(self):
        """Coefficient norm ||c||_2 used to normalize tolerances, summed
        relative to the peak |c|: squares of |c| > 1e154 would overflow."""
        mags = np.abs(self.coeffs)
        peak = float(np.max(mags))
        if peak == 0.0:
            return 0.0
        return peak * float(np.sqrt(np.sum((mags / peak) ** 2)))

    @classmethod
    def from_half(cls, grid, half, divergence_free=False):
        """Exactly Hermitian field of half-spectrum coefficients (ncomp, N,
        ..., N/2+1).  Columns 0 and N/2, each its own mirror image, are
        replaced by their Hermitian parts (c + conj(c(-m)))/2; the other
        columns are mirrored.  Raises :class:`InvalidFieldError` unless the
        half is finite, and then skips the scan of the full array, whose
        entries are all finite."""
        if not np.all(np.isfinite(half)):
            raise InvalidFieldError("non-finite coefficients")
        full = hermitian_expand(half, grid)
        columns = full[..., ::grid.n_points // 2]  # 0 and N/2, as a view
        columns[...] = 0.5 * (columns + _conj_mirror(
            columns, tuple(range(-grid.dim, -1))))
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "coeffs", _freeze(full))
        object.__setattr__(field, "divergence_free", divergence_free)
        return field

    def replace(self, coeffs, divergence_free=None):
        if divergence_free is None:
            divergence_free = self.divergence_free
        return SpectralField(self.grid, coeffs, divergence_free)

    def __add__(self, other):
        require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs,
                             self.divergence_free and other.divergence_free)

    def __sub__(self, other):
        require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs,
                             self.divergence_free and other.divergence_free)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * float(scalar), self.divergence_free)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def squared_magnitude(data: np.ndarray) -> np.ndarray:
    """Pointwise |u|^2 summed over the leading (component) axis."""
    return np.sum(data * data, axis=0)


def magnitude(data: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean norm over the leading (component) axis."""
    return np.sqrt(squared_magnitude(data))


def require_same_grid(a, b):
    if not a.grid.compatible(b.grid):
        raise GridMismatchError("fields live on incompatible grids")


def zero_field(grid, ncomp=None):
    ncomp = grid.dim if ncomp is None else ncomp
    return SpectralField(grid, np.zeros((ncomp,) + grid.shape, dtype=complex),
                         divergence_free=True)


def half_spectrum(coeffs, grid):
    """View of the last-axis modes 0..N/2: the half that ``rfftn`` keeps."""
    return coeffs[..., :grid.n_points // 2 + 1]


def real_inverse(half, grid):
    """Real samples from half-spectrum coefficients over the trailing axes."""
    axes = tuple(range(-grid.dim, 0))
    return np.fft.irfftn(half, s=grid.shape, axes=axes, norm="forward")


def real_forward(samples, grid):
    """Half-spectrum coefficients fftn(samples)/N^d over the trailing axes."""
    return np.fft.rfftn(samples, axes=tuple(range(-grid.dim, 0)), norm="forward")


def _conj_mirror(a, axes, out=None):
    """conj(a(-m)) over ``axes``, -m mod N: a flip followed by a roll by one."""
    return np.conjugate(np.roll(np.flip(a, axis=axes), 1, axis=axes), out=out)


def hermitian_expand(half, grid):
    """Full spectrum from its half by u_hat(-m) = conj(u_hat(m)), -m mod N."""
    n, h = grid.n_points, grid.n_points // 2 + 1
    full = np.empty(half.shape[:-1] + (n,), dtype=complex)
    full[..., :h] = half
    # Column j > N/2 is conj(column N - j) mirrored on the other axes.
    _conj_mirror(np.flip(half[..., 1:n - h + 1], axis=-1),
                 tuple(range(-grid.dim, -1)), out=full[..., h:])
    return full


def to_spectral(field: PhysicalField) -> SpectralField:
    """Forward transform; coefficients are fftn(samples)/N^d per component."""
    grid = field.grid
    return SpectralField(grid, hermitian_expand(real_forward(field.data, grid), grid))


def require_hermitian(field: SpectralField):
    """Raise :class:`SymmetryError` unless the coefficients are Hermitian
    symmetric relative to the overall coefficient scale."""
    if field.symmetry_defect() > SYMMETRY_TOL * max(field.scale(), 1e-300):
        raise SymmetryError("coefficients violate Hermitian symmetry")


def to_physical(field: SpectralField) -> PhysicalField:
    """Inverse transform back to real samples.

    Raises :class:`SymmetryError` by :func:`require_hermitian`; internal
    pipelines, symmetric by construction, call :func:`real_inverse` without
    the check.
    """
    require_hermitian(field)
    grid = field.grid
    return PhysicalField(grid, real_inverse(half_spectrum(field.coeffs, grid), grid))
