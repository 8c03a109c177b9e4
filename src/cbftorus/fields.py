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
the one transform, the one owner of the spectral multipliers, the Leray
projection and Plancherel sums that read them, and of the layout: one
index of its rows (from which it builds its modes), of their mirror, of
its place in the half and of a smaller box's modes in it.
:func:`mode_box` builds each once per grid value; the one that covers the
half serves :func:`to_physical`, :func:`to_spectral` and every operation on
whole half-spectrum fields.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (GridMismatchError, InvalidArgumentsError,
                     InvalidFieldError, SymmetryError)
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
    """Real samples on the grid, shape (ncomp, N, ..., N), read as ``data``:
    pointwise functions take the array (``magnitude(data)``)."""

    grid: TorusGrid
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _settled(
            self.data, float, self.grid.shape, "samples"))


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
        full = _settled(full, complex, grid.shape, "coefficients")
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


def abs_sq(coeffs):
    """|c|^2 as c.real^2 + c.imag^2, with no square root taken."""
    return coeffs.real ** 2 + coeffs.imag ** 2


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


def _index_in(n_rows, box):
    """Index of the modes of ``box`` in a compact layout of ``n_rows`` rows
    per leading axis, row m at m mod ``n_rows``, and columns 0..R of
    ``box``: the layout of every box, the half (``n_rows`` = N) included."""
    rows = box.grid.modes[box.rows] % n_rows
    return (Ellipsis, *np.ix_(*[rows] * (box.grid.dim - 1)),
            slice(0, box.radius + 1))


class ModeBox:
    """The modes with every |m_i| <= R of the half spectrum, stored
    compactly, in an array of ``shape``: the rows ``rows`` of each leading
    axis, 0..R and N-R..N-1 (a cyclic order of length 2R+1), and columns
    0..R; at R = N/2, the half as it is, ``rows`` all N.  ``mirror`` indexes
    the rows -m of those rows m on every leading axis, ``index`` the box in
    the half, :meth:`index_of` a smaller box in it.  It owns the
    multipliers on them, and the projection and Plancherel sums that read
    them: the wavenumbers 2*pi*m/L with the unmatched Nyquist entries
    zeroed (so ik*c stays Hermitian), |k|^2 and 1/|k|^2 (0 at k = 0), both
    built on first read, the columns' Plancherel weights (1 on columns 0
    and N/2, their own mirrors, 2 elsewhere) and, times the volume,
    ``volume_weights``; ``mask`` marks a Galerkin ball of radius ``ball_n``
    (None: no ball).  Only :func:`mode_box` builds it."""

    def __init__(self, grid, radius, ball_n):
        self.grid, self.radius = grid, radius
        n = grid.n_points
        self.covers_half = radius == n // 2
        self.rows = (np.arange(n) if self.covers_half
                     else np.r_[0:radius + 1, n - radius:n])
        mirror = -np.arange(len(self.rows)) % len(self.rows)
        self.mirror = (Ellipsis, *np.ix_(*[mirror] * (grid.dim - 1)), slice(None))
        self.index = _index_in(n, self)
        modes = np.ix_(*[grid.modes[self.rows]] * (grid.dim - 1),
                       np.arange(radius + 1))
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

    def project(self, c):
        """The Leray projection (I - k k^T/|k|^2)c of vector coefficients."""
        k = self.wavenumbers
        if len(c) != len(k):
            raise InvalidArgumentsError("Leray projection needs a vector field")
        factor = self.inv_k_squared * sum(k[i] * c[i] for i in range(len(k)))
        out = np.empty(c.shape, factor.dtype)
        for i, out_i in enumerate(out):
            np.subtract(c[i], np.multiply(k[i], factor, out=out_i), out=out_i)
        return out

    def mode_power(self, c):
        """L2 energy per mode of ``c`` on the box, summed over components."""
        return self.volume_weights * abs_sq(c).sum(axis=0)

    def mode_pairing(self, fc, uc):
        """Plancherel sum of f.u: the integral of f.u, given its coefficients."""
        return float((self.volume_weights * (
            fc.real * uc.real + fc.imag * uc.imag).sum(axis=0)).sum())

    def masked(self, c):
        """Coefficients ``c`` on the box zeroed off its Galerkin ball: a new
        array, or ``c`` itself when the box has no ball."""
        return c if self.mask is None else c * self.mask

    def symmetrize(self, c):
        """Replace column 0 of coefficients ``c`` on the box, and column N/2
        when the box holds it, by its Hermitian part (c + conj(c(-m)))/2 in
        place: the only columns that hold both m and -m.  Returns ``c``."""
        columns = c[..., ::self.grid.n_points // 2]  # a view
        columns[...] = 0.5 * (columns + np.conjugate(columns[self.mirror]))
        return c

    def _take_rows(self, a, axis):
        """The box's rows of ``a`` on a leading ``axis``; ``a`` itself when
        the box covers the half."""
        return a if self.covers_half else np.take(a, self.rows, axis)

    def _put_rows(self, c, axis):
        """``c`` copied into a zero array of N rows on a leading ``axis``, at
        the box's rows; ``c`` itself when the box covers the half."""
        if self.covers_half:
            return c
        shape = list(c.shape)
        shape[axis] = self.grid.n_points
        out = np.zeros(shape, c.dtype)
        out[(Ellipsis, self.rows) + (slice(None),) * (-axis - 1)] = c
        return out

    def index_of(self, box):
        """Index of the modes of ``box``, a box of no larger radius on the
        same grid, in this box's compact layout; all of this box (a view)
        when the radii are equal."""
        if box.radius == self.radius:
            return (Ellipsis,)
        return _index_in(len(self.rows), box)

    def gather(self, half):
        """Compact coefficients of a half-spectrum array, a new array; the
        half itself when the box covers it."""
        return half if self.covers_half else half[self.index]

    def expand(self, c):
        """Half-spectrum array of compact coefficients, zero off the box."""
        if self.covers_half:
            return c
        out = np.zeros(c.shape[:-self.grid.dim] + self.grid.half_shape, c.dtype)
        out[self.index] = c
        return out

    def inverse(self, c):
        """Real samples of compact coefficients: the 1-D passes of irfftn in
        its order, each on the lines that the box touches only."""
        for axis in _leading_axes(self.grid):
            c = np.fft.ifft(self._put_rows(c, axis), axis=axis, norm="forward")
        return np.fft.irfft(c, n=self.grid.n_points, axis=-1, norm="forward")

    def forward(self, samples):
        """Compact coefficients fftn(samples)/N^d: the 1-D passes of rfftn in
        its order, each keeping the box's columns or rows only."""
        c = np.fft.rfft(samples, axis=-1, norm="forward")[..., :self.radius + 1]
        for axis in _FORWARD_ORDER(_leading_axes(self.grid)):
            c = self._take_rows(np.fft.fft(c, axis=axis, norm="forward"), axis)
        return c


@functools.lru_cache(maxsize=None)
def mode_box(grid, radius, ball_n=0):
    """The :class:`ModeBox` of ``radius`` on ``grid``, masked to the
    Galerkin ball of radius ``ball_n`` (0: no ball), built once per grid
    value: equal grids, and equal boxes asked for by other names, share one
    object."""
    return ModeBox(grid, radius, ball_n)


def band_box(grid, apply_dealias=True, galerkin_n=0, galerkin_shape="box"):
    """The :func:`mode_box` of the modes that 2/3-rule dealiasing and
    Galerkin truncation (off at ``galerkin_n = 0``, whatever the shape)
    keep.  Dealiasing keeps |m_i| <= K = (N-1)//3: the aliases of a product
    of two such fields land at |m_i| >= N - 2K > K, as 3K < N (which
    floor(N/3) breaks at 3 | N)."""
    n = grid.n_points
    band = min([n // 2] + [(n - 1) // 3] * apply_dealias
               + [galerkin_n] * (galerkin_n > 0))
    return mode_box(grid, band, galerkin_n if galerkin_shape == "ball" else 0)


def to_spectral(field: PhysicalField) -> SpectralField:
    """Forward transform; coefficients are fftn(samples)/N^d per component,
    on the half spectrum: the passes of the box that covers it."""
    return SpectralField(field.grid, band_box(field.grid, False).forward(field.data))


def to_physical(field: SpectralField) -> PhysicalField:
    """Inverse transform back to real samples, by the box that covers the
    half."""
    return PhysicalField(field.grid, band_box(field.grid, False).inverse(field.coeffs))
