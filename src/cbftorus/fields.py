"""Vector fields on the torus in physical and spectral representation.

Both field types are immutable snapshots: the wrapped arrays are marked
read-only and every operation returns a new field, so values are safe to
share across threads.

Spectral coefficients follow the convention u(x) = sum_m u_hat(m) e^{i k_m.x}
with k_m = 2*pi*m/L, i.e. ``fftn(samples) / N^d``.  Real-valued fields
satisfy the Hermitian symmetry u_hat(-m) = conj(u_hat(m)), so a
:class:`SpectralField` stores only the half spectrum that ``rfftn`` keeps
(last-axis modes 0..N/2), and transforms are real.  Full arrays appear only
at the boundaries: :meth:`SpectralField.from_full` takes one in and runs the
one Hermitian check (raising :class:`SymmetryError`), and
:meth:`SpectralField.full` expands for output; snapshot files store the full
array.  A :class:`ModeBox` stores the modes that dealiasing and truncation
keep more compactly still, and transforms only the lines they touch.
"""

import itertools
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


def _norm(mags, weights=1.0):
    """sqrt(sum(weights * mags^2)), summed relative to the peak magnitude:
    squares of magnitudes above about 1e154 would overflow."""
    peak = float(np.max(mags))
    if peak == 0.0:
        return 0.0
    return peak * float(np.sqrt(np.sum(weights * (mags / peak) ** 2)))


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients on the half spectrum, shape (ncomp, N,
    ..., N/2+1); the modes -m it leaves out are conj(u_hat(m))."""

    grid: TorusGrid
    coeffs: np.ndarray
    divergence_free: bool = False

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim == self.grid.dim:
            coeffs = coeffs[np.newaxis]
        if coeffs.shape[1:] != self.grid.half_shape:
            raise InvalidFieldError(
                f"coefficient shape {coeffs.shape} does not match the half "
                f"spectrum {self.grid.half_shape} of grid {self.grid.shape}")
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
        """max |u_hat(-m) - conj(u_hat(m))| on columns 0 and N/2, the only
        columns that hold both m and -m."""
        columns = self.coeffs[..., ::self.grid.n_points // 2]
        return float(np.max(np.abs(
            columns - conj_mirror(columns, _leading_axes(self.grid)))))

    def scale(self):
        """Coefficient norm ||c||_2 over the full spectrum, used to normalize
        tolerances; a Plancherel sum of the half."""
        return _norm(np.abs(self.coeffs), self.grid.plancherel_weights)

    def full(self):
        """The full coefficient array (ncomp, N, ..., N), a new array."""
        return hermitian_expand(self.coeffs, self.grid)

    @classmethod
    def from_full(cls, grid, full, divergence_free=False):
        """Field of a full coefficient array (ncomp, N, ..., N), which keeps
        its half.  Raises :class:`InvalidFieldError` unless the array is
        finite, and :class:`SymmetryError` unless it is Hermitian symmetric
        relative to its norm: the one symmetry check of the package."""
        full = np.asarray(full, dtype=complex)
        if full.shape[1:] != grid.shape or not np.all(np.isfinite(full)):
            raise InvalidFieldError(f"need finite coefficients of shape "
                                    f"(ncomp,) + {grid.shape}, got {full.shape}")
        defect = float(np.max(np.abs(full - conj_mirror(
            full, tuple(range(-grid.dim, 0))))))
        if defect > SYMMETRY_TOL * max(_norm(np.abs(full)), 1e-300):
            raise SymmetryError("coefficients violate Hermitian symmetry")
        return cls(grid, full[..., :grid.n_points // 2 + 1], divergence_free)

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
    """Pointwise |u|^2 summed over the leading (component) axis in order,
    in place: the sum that ``np.sum(data * data, axis=0)`` forms."""
    out = data[0] * data[0]
    for x in data[1:]:
        out += x * x
    return out


def magnitude(data: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean norm over the leading (component) axis."""
    return np.sqrt(squared_magnitude(data))


def require_same_grid(a, b):
    if not a.grid.compatible(b.grid):
        raise GridMismatchError("fields live on incompatible grids")


def zero_field(grid, ncomp=None):
    ncomp = grid.dim if ncomp is None else ncomp
    return SpectralField(grid, np.zeros((ncomp,) + grid.half_shape, dtype=complex),
                         divergence_free=True)


def real_inverse(half, grid):
    """Real samples from half-spectrum coefficients over the trailing axes."""
    axes = tuple(range(-grid.dim, 0))
    return np.fft.irfftn(half, s=grid.shape, axes=axes, norm="forward")


def real_forward(samples, grid):
    """Half-spectrum coefficients fftn(samples)/N^d over the trailing axes."""
    return np.fft.rfftn(samples, axes=tuple(range(-grid.dim, 0)), norm="forward")


def _leading_axes(grid):
    return tuple(range(-grid.dim, -1))


def symmetrize_columns(c, grid):
    """Replace column 0 of half-spectrum or compact coefficients ``c``, and
    column N/2 when ``c`` holds it, by its Hermitian part (c + conj(c(-m)))/2
    in place: the only columns that hold both m and -m.  Returns ``c``."""
    columns = c[..., ::grid.n_points // 2]  # a view
    columns[...] = 0.5 * (columns + conj_mirror(columns, _leading_axes(grid)))
    return c


def conj_mirror(a, axes, out=None):
    """conj(a(-m)) over ``axes``, -m mod N: a flip followed by a roll by one."""
    return np.conjugate(np.roll(np.flip(a, axis=axes), 1, axis=axes), out=out)


def hermitian_expand(half, grid):
    """Full spectrum from its half by u_hat(-m) = conj(u_hat(m)), -m mod N."""
    n, h = grid.n_points, grid.n_points // 2 + 1
    full = np.empty(half.shape[:-1] + (n,), dtype=complex)
    full[..., :h] = half
    # Column j > N/2 is conj(column N - j) mirrored on the other axes.
    conj_mirror(np.flip(half[..., 1:n - h + 1], axis=-1), _leading_axes(grid),
                 out=full[..., h:])
    return full


# numpy >= 2 runs rfftn's passes over the leading axes last to first, numpy 1
# first to last; ModeBox.forward follows it, to match rfftn to the bit.
_FORWARD_ORDER = (reversed if np.lib.NumpyVersion(np.__version__) >= "2.0.0"
                  else tuple)


class ModeBox:
    """The modes with every |m_i| <= R of the half spectrum, stored
    compactly: rows 0..R and N-R..N-1 of each leading axis (a cyclic order
    of length 2R+1) and columns 0..R; at R = N/2, the half as it is.
    ``mask`` marks the band in the box (None: all of it)."""

    def __init__(self, grid, radius, band_radius, ball_n):
        self.grid, self.radius = grid, radius
        self.covers_half = radius == grid.n_points // 2
        self.wavenumbers = tuple(self.gather(k) for k in grid.wavenumbers)
        self.k_squared = self.gather(grid.k_squared)
        self.inv_k_squared = self.gather(grid.inv_k_squared)
        self.plancherel_weights = grid.plancherel_weights[:radius + 1]
        masks = []
        if band_radius < radius:
            masks.append(self.gather(grid.mode_inf_norm) <= band_radius)
        if ball_n > 0:
            masks.append(self.gather(grid.mode_sq_norm) <= ball_n * ball_n)
        self.mask = np.logical_and.reduce(masks) if masks else None

    @staticmethod
    def _on(axis, rows):
        """Index of the slice ``rows`` on the (negative) ``axis``."""
        return (Ellipsis, rows) + (slice(None),) * (-axis - 1)

    def _take_rows(self, a, axis):
        """Rows 0..R and N-R..N-1 of ``a`` on ``axis``."""
        n, r = self.grid.n_points, self.radius
        return np.concatenate((a[self._on(axis, slice(0, r + 1))],
                               a[self._on(axis, slice(n - r, n))]), axis=axis)

    def _put_rows(self, c, axis, length):
        """``c`` padded to ``length`` rows on ``axis`` by zeros after its row
        R: rows 0..R and N-R..N-1 on a leading axis, columns 0..R last."""
        gap = list(c.shape)
        gap[axis] = length - c.shape[axis]
        return np.concatenate((c[self._on(axis, slice(0, self.radius + 1))],
                               np.zeros(gap, c.dtype),
                               c[self._on(axis, slice(self.radius + 1, None))]),
                              axis=axis)

    def gather(self, half):
        """Compact coefficients of a half-spectrum array (axes of length 1,
        as in broadcast multipliers, stay); the array itself when the box
        covers the half."""
        if self.covers_half:
            return half
        c = half[..., :self.radius + 1]
        for axis in _leading_axes(self.grid):
            if c.shape[axis] > 1:
                c = self._take_rows(c, axis)
        return c

    def expand(self, c):
        """Half-spectrum array of compact coefficients, zero off the box: a
        zero half with the box's blocks copied in."""
        if self.covers_half:
            return c
        n, r = self.grid.n_points, self.radius
        out = np.zeros(c.shape[:-self.grid.dim] + self.grid.half_shape, c.dtype)
        blocks = ((slice(0, r + 1),) * 2, (slice(r + 1, None), slice(n - r, n)))
        for rows in itertools.product(blocks, repeat=self.grid.dim - 1):
            box_rows, half_rows = zip(*rows)
            out[(..., *half_rows, slice(0, r + 1))] = c[(..., *box_rows, slice(None))]
        return out

    def inverse(self, c):
        """Real samples of compact coefficients: the 1-D passes of irfftn in
        its order, each on the lines that the box touches only."""
        if self.covers_half:
            return real_inverse(c, self.grid)
        for axis in _leading_axes(self.grid):
            c = np.fft.ifft(self._put_rows(c, axis, self.grid.n_points),
                            axis=axis, norm="forward")
        return np.fft.irfft(c, n=self.grid.n_points, axis=-1, norm="forward")

    def forward(self, samples):
        """Compact coefficients fftn(samples)/N^d: the 1-D passes of rfftn in
        its order, each keeping the box's columns or rows only."""
        if self.covers_half:
            return real_forward(samples, self.grid)
        c = np.fft.rfft(samples, axis=-1, norm="forward")[..., :self.radius + 1]
        for axis in _FORWARD_ORDER(_leading_axes(self.grid)):
            c = self._take_rows(np.fft.fft(c, axis=axis, norm="forward"), axis)
        return c


def band_box(grid, apply_dealias=True, galerkin_n=0, galerkin_shape="box",
             whole=False):
    """The box of the modes that 2/3-rule dealiasing and Galerkin truncation
    (off at ``galerkin_n = 0``) keep, built once per grid and arguments;
    with ``whole``, the half with that band as its mask.  Dealiasing keeps
    |m_i| <= K = (N-1)//3: the aliases of a product of two such fields land
    at |m_i| >= N - 2K > K, as 3K < N (which floor(N/3) breaks at 3 | N)."""
    key = (apply_dealias, galerkin_n, galerkin_shape, whole)
    if key not in grid.boxes:
        n = grid.n_points
        band = min([n // 2] + [(n - 1) // 3] * apply_dealias
                   + [galerkin_n] * (galerkin_n > 0))
        grid.boxes[key] = ModeBox(grid, n // 2 if whole else band, band,
                                  galerkin_n if galerkin_shape == "ball" else 0)
    return grid.boxes[key]


def to_spectral(field: PhysicalField) -> SpectralField:
    """Forward transform; coefficients are fftn(samples)/N^d per component,
    on the half spectrum."""
    return SpectralField(field.grid, real_forward(field.data, field.grid))


def to_physical(field: SpectralField) -> PhysicalField:
    """Inverse transform back to real samples."""
    return PhysicalField(field.grid, real_inverse(field.coeffs, field.grid))
