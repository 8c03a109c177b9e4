"""Full-array references: the spectral operations on all N^d modes, written
out with complex transforms and full-spectrum multipliers, as the package
computed them before spectral fields stored the half spectrum, and the
random field family as it was drawn and weighted on the full spectrum."""

import numpy as np

from cbftorus.errors import InvalidArgumentsError
from cbftorus.fields import SpectralField, abs_sq
from cbftorus.spectral import dealias, leray_project


def modes(grid):
    """Integer mode indices in FFT order as an open mesh over the full
    spectrum (Nyquist = -N/2)."""
    return np.ix_(*([grid.modes] * grid.dim))


def wavenumbers(grid):
    """2*pi*m/L per axis with the Nyquist entry zeroed, broadcast to the
    full spectrum."""
    k = grid.modes * (2.0 * np.pi / grid.period)
    k[grid.n_points // 2] = 0.0
    return tuple(k.reshape([-1 if b == a else 1 for b in range(grid.dim)])
                 for a in range(grid.dim))


def k_squared(grid):
    out = np.zeros(grid.shape)
    for k in wavenumbers(grid):
        out = out + k * k
    return out


def inv_k_squared(grid):
    k2 = k_squared(grid)
    return np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)


def plancherel_weights(grid):
    """Full-spectrum columns that each half-spectrum column j stands for:
    j and its mirror N - j, one column where they coincide (j = 0, N/2)."""
    j = np.arange(grid.n_points // 2 + 1)
    return np.where(j == (grid.n_points - j) % grid.n_points, 1.0, 2.0)


def inf_norm(grid):
    return np.max(np.broadcast_arrays(*(np.abs(m) for m in modes(grid))), axis=0)


def sq_norm(grid):
    return sum(m * m for m in modes(grid))


def mode_inf_norm(grid):
    """max_i |m_i| per mode of the half spectrum (box radius of the index)."""
    half = np.ix_(*[grid.modes] * (grid.dim - 1),
                  np.arange(grid.n_points // 2 + 1))
    return np.max(np.broadcast_arrays(*(np.abs(m) for m in half)), axis=0)


def restrict(c, fine, coarse):
    """The full coefficients ``c`` on ``fine`` at the modes of ``coarse``,
    kept where every |m_i| < N/2 of ``coarse`` and zero on its Nyquist modes."""
    rows = np.ix_(*([coarse.modes % fine.n_points] * fine.dim))
    return c[(Ellipsis,) + rows] * (inf_norm(coarse) < coarse.n_points // 2)


def dealias_mask(grid):
    return inf_norm(grid) <= (grid.n_points - 1) // 3


def band(grid, apply_dealias=True, galerkin_n=0, galerkin_shape="box"):
    mask = np.ones(grid.shape, dtype=bool)
    if apply_dealias:
        mask &= dealias_mask(grid)
    if galerkin_n > 0:
        mask &= (inf_norm(grid) <= galerkin_n if galerkin_shape == "box"
                 else sq_norm(grid) <= galerkin_n ** 2)
    return mask


def project(c, grid):
    """(I - k k^T/|k|^2) c on a (dim, N, ..., N) array."""
    k, inv = wavenumbers(grid), inv_k_squared(grid)
    factor = inv * sum(k[i] * c[i] for i in range(grid.dim))
    return np.stack([c[i] - k[i] * factor for i in range(grid.dim)])


def forward(data, grid):
    """fftn(samples)/N^d over the trailing axes."""
    axes = tuple(range(-grid.dim, 0))
    return np.fft.fftn(data, axes=axes) / grid.n_points ** grid.dim


def inverse(c, grid):
    """Real part of the inverse of full coefficients over the trailing axes."""
    axes = tuple(range(-grid.dim, 0))
    return np.fft.ifftn(c * grid.n_points ** grid.dim, axes=axes).real


def half_inverse(half, grid):
    """Real samples of half-spectrum coefficients: numpy's irfftn over the
    trailing axes."""
    axes = tuple(range(-grid.dim, 0))
    return np.fft.irfftn(half, s=grid.shape, axes=axes, norm="forward")


def half_forward(data, grid):
    """Half-spectrum coefficients fftn(samples)/N^d: numpy's rfftn over the
    trailing axes."""
    return np.fft.rfftn(data, axes=tuple(range(-grid.dim, 0)), norm="forward")


def jacobian(c, grid):
    """i*k_a*c, shape (ncomp, dim, N, ..., N)."""
    return np.stack([np.stack([1j * k * ci for k in wavenumbers(grid)]) for ci in c])


def conj_mirror(a, axes):
    """conj(a(-m)) over ``axes``, -m mod N: a flip followed by a roll by one."""
    return np.conjugate(np.roll(np.flip(a, axis=axes), 1, axis=axes))


def random_band_limited(grid, seed, band_limit=8, spectrum_slope=2.0,
                        amplitude=1.0, project=True):
    """``families.random_band_limited`` with its arithmetic on the full
    spectrum."""
    if band_limit < 1 or band_limit > grid.n_points // 2:
        raise InvalidArgumentsError("band_limit must be in [1, N/2]")
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) + grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # The draw covers the full spectrum, and so do its weights.
    modes = np.ix_(*([grid.modes] * grid.dim))
    sq_norm = sum(m * m for m in modes)
    inf_norm = np.max(np.broadcast_arrays(*(np.abs(m) for m in modes)), axis=0)
    mask = (inf_norm <= band_limit) & (sq_norm > 0)
    weight = np.where(sq_norm > 0, np.asarray(sq_norm, dtype=float), 1.0)
    raw = raw * mask * weight ** (-spectrum_slope / 2.0)
    # Hermitian part of the raw draw gives a real-valued field.
    full = 0.5 * (raw + conj_mirror(raw, tuple(range(-grid.dim, 0))))
    field = SpectralField(grid, full[..., :grid.n_points // 2 + 1])
    if project:
        field = leray_project(field)
    field = dealias(field)
    # Summed over the full array, in its order, so that a seed gives the
    # same field to the bit whatever the layout of the norms.
    norm = float(np.sqrt(grid.volume * np.sum(abs_sq(field.full()))))
    if norm == 0.0:
        raise InvalidArgumentsError("degenerate random field (zero norm)")
    return SpectralField(grid, field.coeffs * (amplitude / norm))
