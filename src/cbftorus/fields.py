"""Vector fields on the torus in physical and spectral representation.

Both field types, and the solver's states, keep one array contract
(``_settled``): finite, C-contiguous and read-only, of their grid's or mode
box's shape.  Every operation returns a new field, so values are safe to
share across threads.  A field is its grid and its samples or coefficients
and carries no other claim: whether it is divergence-free is measured
where that matters (``operators``), not stored.

Spectral coefficients follow the convention u(x) = sum_m u_hat(m) e^{i k_m.x}
with k_m = 2*pi*m/L, i.e. ``fftn(samples) / N^d``.  Real-valued fields
satisfy the Hermitian symmetry u_hat(-m) = conj(u_hat(m)), so a
:class:`SpectralField` stores only the half spectrum that ``rfftn`` keeps
(last-axis modes 0..N/2), and transforms are real.  Full arrays appear only
at the boundaries: :meth:`SpectralField.from_full` takes one in and runs the
one Hermitian check (raising :class:`SymmetryError`), and
:meth:`SpectralField.full` expands for output; snapshot files store the full
array.  A :class:`ModeBox` stores the modes that dealiasing and truncation
keep more compactly still, and transforms only the lines they touch; it is
the one transform and the one owner of the spectral multipliers, and the
box that covers the half serves :func:`to_physical`, :func:`to_spectral`
and every operation on whole half-spectrum fields.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidFieldError, SymmetryError
from .grid import TWO_PI, TorusGrid

SYMMETRY_TOL = 1e-10


def _settled(a, dtype, shape, what):
    """``a`` under the one array contract of fields and states: a
    C-contiguous, read-only array of ``dtype``, a component axis added to a
    single component.  Raises :class:`InvalidFieldError`, naming ``what``
    (samples or coefficients), unless it is finite of shape (ncomp,) +
    ``shape``."""
    a = np.ascontiguousarray(a, dtype=dtype)
    if a.ndim == len(shape):
        a = a[np.newaxis]
    if a.shape[1:] != shape or not np.all(np.isfinite(a)):
        raise InvalidFieldError(f"need finite {what} of shape (ncomp,) + "
                                f"{shape}, got {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PhysicalField:
    """Real samples on the grid, shape (ncomp, N, ..., N)."""

    grid: TorusGrid
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _settled(
            self.data, float, self.grid.shape, "samples"))

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

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _settled(
            self.coeffs, complex, self.grid.half_shape, "coefficients"))

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
        return _norm(np.abs(self.coeffs),
                     band_box(self.grid, False).plancherel_weights)

    def full(self):
        """The full coefficient array (ncomp, N, ..., N), a new array."""
        return hermitian_expand(self.coeffs, self.grid)

    @classmethod
    def from_full(cls, grid, full):
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
        return cls(grid, full[..., :grid.n_points // 2 + 1])

    def __add__(self, other):
        require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        require_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * float(scalar))

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
    return SpectralField(grid, np.zeros((ncomp,) + grid.half_shape, dtype=complex))


def _leading_axes(grid):
    return tuple(range(-grid.dim, -1))


def symmetrize_columns(c, grid):
    """Replace column 0 of half-spectrum or compact coefficients ``c``, and
    column N/2 when ``c`` holds it, by its Hermitian part (c + conj(c(-m)))/2
    in place: the only columns that hold both m and -m.  Returns ``c``."""
    columns = c[..., ::grid.n_points // 2]  # a view
    mirror = _mirror_index(columns.shape[-grid.dim:-1])
    columns[...] = 0.5 * (columns + np.conjugate(columns[mirror]))
    return c


@functools.lru_cache(maxsize=16)
def _mirror_index(lengths):
    """Index of the rows -m mod L on leading axes of the given ``lengths``:
    the permutation of :func:`conj_mirror`, cheaper on small arrays."""
    rows = np.ix_(*((-np.arange(n)) % n for n in lengths))
    return (Ellipsis,) + rows + (slice(None),)


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
    compactly, in an array of ``shape``: rows 0..R and N-R..N-1 of each
    leading axis (a cyclic order of length 2R+1) and columns 0..R; at
    R = N/2, the half as it is.  It owns the multipliers on them: the
    wavenumbers 2*pi*m/L with the unmatched Nyquist entries zeroed (so ik*c
    stays Hermitian), |k|^2 and 1/|k|^2 (0 at k = 0), both built on first
    read, the columns' Plancherel weights (1 on columns 0 and N/2, their
    own mirrors, 2 elsewhere) and, times the volume, ``volume_weights``;
    ``mask`` marks a Galerkin ball of radius ``ball_n`` (None: no ball, all
    of the box)."""

    def __init__(self, grid, radius, ball_n):
        self.grid, self.radius = grid, radius
        n = grid.n_points
        self.covers_half = radius == n // 2
        modes = [self.gather(m) for m in grid.mode_grids]
        self.shape = np.broadcast_shapes(*(m.shape for m in modes))
        self.wavenumbers = tuple(np.where(np.abs(m) == n // 2, 0.0,
                                          m * (TWO_PI / grid.period)) for m in modes)
        self.ik = tuple(1j * k for k in self.wavenumbers)
        columns = modes[-1].ravel()
        self.plancherel_weights = np.where((columns == 0) | (columns == n // 2),
                                           1.0, 2.0)
        self.volume_weights = self.plancherel_weights * grid.volume
        self.mask = (sum(m * m for m in modes) <= ball_n * ball_n
                     if ball_n > 0 else None)

    @functools.cached_property
    def k_squared(self):
        return sum(k * k for k in self.wavenumbers)

    @functools.cached_property
    def inv_k_squared(self):
        return np.divide(1.0, self.k_squared, where=self.k_squared > 0,
                         out=np.zeros_like(self.k_squared))

    def masked(self, c):
        """Coefficients ``c`` on the box zeroed off its Galerkin ball: a new
        array, or ``c`` itself when the box has no ball."""
        return c if self.mask is None else c * self.mask

    @staticmethod
    def _on(axis, rows):
        """Index of the slice ``rows`` on the (negative) ``axis``."""
        return (Ellipsis, rows) + (slice(None),) * (-axis - 1)

    def _take_rows(self, a, axis):
        """Rows 0..R and N-R..N-1 of ``a`` on ``axis``; ``a`` itself when the
        box covers the half."""
        if self.covers_half:
            return a
        n, r = self.grid.n_points, self.radius
        return np.concatenate((a[self._on(axis, slice(0, r + 1))],
                               a[self._on(axis, slice(n - r, n))]), axis=axis)

    def _put_rows(self, c, axis, length):
        """``c`` copied into a zero array of ``length`` rows on ``axis``, its
        rows after R at the end: rows 0..R and N-R..N-1 on a leading axis,
        columns 0..R last; ``c`` itself when the box covers the half."""
        if self.covers_half:
            return c
        shape, split = list(c.shape), self.radius + 1
        shape[axis] = length
        out = np.zeros(shape, c.dtype)
        out[self._on(axis, slice(0, split))] = c[self._on(axis, slice(0, split))]
        out[self._on(axis, slice(length - c.shape[axis] + split, None))] = c[
            self._on(axis, slice(split, None))]
        return out

    def gather(self, half):
        """Compact coefficients of a half-spectrum array (axes of length 1,
        as in broadcast multipliers, stay); a view of all of it when the box
        covers the half."""
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
        for axis in _leading_axes(self.grid):
            c = np.fft.ifft(self._put_rows(c, axis, self.grid.n_points),
                            axis=axis, norm="forward")
        return np.fft.irfft(c, n=self.grid.n_points, axis=-1, norm="forward")

    def forward(self, samples):
        """Compact coefficients fftn(samples)/N^d: the 1-D passes of rfftn in
        its order, each keeping the box's columns or rows only."""
        c = np.fft.rfft(samples, axis=-1, norm="forward")[..., :self.radius + 1]
        for axis in _FORWARD_ORDER(_leading_axes(self.grid)):
            c = self._take_rows(np.fft.fft(c, axis=axis, norm="forward"), axis)
        return c


def band_box(grid, apply_dealias=True, galerkin_n=0, galerkin_shape="box"):
    """The box of the modes that 2/3-rule dealiasing and Galerkin truncation
    (off at ``galerkin_n = 0``, whatever the shape) keep, built once per grid
    and band.  Dealiasing keeps |m_i| <= K = (N-1)//3: the aliases of a
    product of two such fields land at |m_i| >= N - 2K > K, as 3K < N (which
    floor(N/3) breaks at 3 | N)."""
    key = (apply_dealias, galerkin_n, galerkin_shape if galerkin_n else "box")
    if key not in grid.boxes:
        n = grid.n_points
        band = min([n // 2] + [(n - 1) // 3] * apply_dealias
                   + [galerkin_n] * (galerkin_n > 0))
        grid.boxes[key] = ModeBox(grid, band,
                                  galerkin_n if galerkin_shape == "ball" else 0)
    return grid.boxes[key]


def to_spectral(field: PhysicalField) -> SpectralField:
    """Forward transform; coefficients are fftn(samples)/N^d per component,
    on the half spectrum: the passes of the box that covers it."""
    return SpectralField(field.grid, band_box(field.grid, False).forward(field.data))


def to_physical(field: SpectralField) -> PhysicalField:
    """Inverse transform back to real samples, by the box that covers the
    half."""
    return PhysicalField(field.grid, band_box(field.grid, False).inverse(field.coeffs))
