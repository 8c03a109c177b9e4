"""Named analytic field families used for initial conditions and forcing;
the seeded random family draws on the full spectrum and computes on the
rows that dealiasing keeps."""

import functools

import numpy as np

from .errors import InvalidArgumentsError
from .fields import (PhysicalField, SpectralField, abs_sq, band_box,
                     conj_mirror, to_spectral)
from .grid import TorusGrid, TWO_PI


def taylor_green(grid: TorusGrid, amplitude: float = 1.0) -> SpectralField:
    """Taylor-Green vortex (cos x sin y, -sin x cos y), z-independent in 3D.

    Divergence-free; under pure viscous decay it evolves as
    amplitude * e^{-2 mu t} on the unit torus scale 2*pi/L.
    """
    return to_spectral(taylor_green_exact(grid, 0.0, 0.0, amplitude))


def taylor_green_exact(grid: TorusGrid, mu: float, t: float,
                       amplitude: float = 1.0) -> PhysicalField:
    """Closed-form Navier-Stokes solution e^{-2 mu t} * Taylor-Green."""
    scale = TWO_PI / grid.period
    mesh = grid.meshgrid()
    x, y = mesh[0] * scale, mesh[1] * scale
    amp = amplitude * np.exp(-2.0 * mu * scale * scale * t)
    data = np.zeros((grid.dim,) + grid.shape)
    data[0] = amp * np.cos(x) * np.sin(y)
    data[1] = -amp * np.sin(x) * np.cos(y)
    return PhysicalField(grid, data)


def single_mode(grid: TorusGrid, mode, component: int = 0,
                amplitude: float = 1.0, phase: float = 0.0) -> SpectralField:
    """Real single-mode field amplitude*cos(k.x + phase) in one component;
    each |m_i| must lie below N/2, where the grid resolves cos(k.x + phase)."""
    mode = tuple(int(m) for m in mode)
    if len(mode) != grid.dim:
        raise InvalidArgumentsError("mode index length must equal grid.dim")
    if any(abs(m) >= grid.n_points // 2 for m in mode):
        raise InvalidArgumentsError(
            f"mode {mode} needs every |m_i| < N/2 = {grid.n_points // 2}")
    if not 0 <= component < grid.dim:
        raise InvalidArgumentsError(
            f"component must be in [0, {grid.dim}), got {component}")
    coeffs = np.zeros((grid.dim,) + grid.half_shape, dtype=complex)
    c = 0.5 * amplitude * np.exp(1j * phase)
    for m, value in ((mode, c), (tuple(-m for m in mode), np.conj(c))):
        idx = tuple(x % grid.n_points for x in m)
        if idx[-1] <= grid.n_points // 2:  # the half holds it
            coeffs[(component,) + idx] += value
    return SpectralField(grid, coeffs)


def check_band_limit(band_limit, n_points, section=None):
    """The band rule of a random field: 1 <= band_limit <= N/2 of ``n_points``."""
    key = f"{section}.band_limit" if section else "band_limit"
    if not 1 <= band_limit <= n_points // 2:
        raise InvalidArgumentsError(f"{key} {band_limit} " + (
            "is below 1" if band_limit < 1 else f"exceeds N/2 = {n_points // 2}"))


def check_seed(seed):
    """``seed``; a negative integer seed is an argument error."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InvalidArgumentsError(f"seed {seed} is negative")
    return seed


def random_band_limited(grid: TorusGrid, seed: int, band_limit: int = 8,
                        spectrum_slope: float = 2.0, amplitude: float = 1.0,
                        project: bool = True) -> SpectralField:
    """Seeded Gaussian field with power-law spectrum |m|^(-slope).

    Modes fill the index box 0 < max|m_i| <= band_limit; the mean mode is
    excluded so samples are mean-free.  The result is Leray-projected (unless
    ``project=False``), dealiased (which removes nothing when band_limit <=
    (N-1)//3), and normalized so its L2 norm equals ``amplitude``.  ``seed``
    is an integer or a ``numpy.random.SeedSequence``.  The draw covers the
    full spectrum; the arithmetic after it, in its full-spectrum order, only
    the rows |m_i| <= (N-1)//3 that dealiasing keeps, so the bytes match.
    """
    check_band_limit(band_limit, grid.n_points)
    box, rows, half, mirror, mask, scale = _band_layout(grid, band_limit,
                                                        spectrum_slope)
    rng = np.random.default_rng(check_seed(seed))
    shape = (grid.dim,) + grid.shape
    real, imag = rng.standard_normal(shape), rng.standard_normal(shape)
    raw = (real[rows] + 1j * imag[rows]) * mask * scale
    # Hermitian part of the raw draw gives a real-valued field.
    c = (0.5 * (raw + conj_mirror(raw, tuple(range(-grid.dim, 0)))))[
        ..., :box.radius + 1]
    if project:
        c = box.project(c)
    # |c|^2 summed over the full layout, in its order, so that a seed gives
    # the same field to the bit whatever the layout of the norms; the half
    # leaves out columns -1..-K, whose |c(-m)|^2 is |c(m)|^2.
    power, sq = np.zeros(shape), abs_sq(c)
    power[half], power[mirror] = sq, sq[..., 1:]
    norm = float(np.sqrt(grid.volume * np.sum(power)))
    if norm == 0.0:
        raise InvalidArgumentsError("degenerate random field (zero norm)")
    return SpectralField(grid, box.expand(c) * (amplitude / norm))


@functools.lru_cache(maxsize=16)
def _band_layout(grid, band_limit, spectrum_slope):
    """The dealias box; the index of its rows on every axis of the full
    spectrum, of its half there and of the mirror -m of that half's columns
    1..K; and there the band mask and the weight |m|^(-slope)."""
    box = band_box(grid)
    n, k, rows = grid.n_points, box.radius, box.rows
    lead, mirror_lead = [rows] * (grid.dim - 1), [(-rows) % n] * (grid.dim - 1)
    modes = np.ix_(*([grid.modes[rows]] * grid.dim))
    sq_norm = sum(m * m for m in modes)
    inf_norm = np.max(np.broadcast_arrays(*(np.abs(m) for m in modes)), axis=0)
    mask = (inf_norm <= band_limit) & (sq_norm > 0)
    weight = np.where(sq_norm > 0, np.asarray(sq_norm, dtype=float), 1.0)
    return (box, _mesh(*lead, rows), _mesh(*lead, rows[:k + 1]),
            _mesh(*mirror_lead, n - rows[1:k + 1]), mask,
            weight ** (-spectrum_slope / 2.0))


def _mesh(*rows):
    """All components, and the open mesh of ``rows`` on the spatial axes."""
    return (slice(None),) + np.ix_(*rows)


def kolmogorov(grid: TorusGrid, mode: int = 1, amplitude: float = 1.0) -> SpectralField:
    """Steady shear forcing amplitude*(sin(m * 2 pi y / L), 0, ...), for
    |m| < N/2."""
    if abs(mode) >= grid.n_points // 2:
        raise InvalidArgumentsError(
            f"mode {mode} needs |mode| < N/2 = {grid.n_points // 2}")
    scale = TWO_PI / grid.period
    mesh = grid.meshgrid()
    data = np.zeros((grid.dim,) + grid.shape)
    data[0] = amplitude * np.sin(mode * scale * mesh[1])
    return to_spectral(PhysicalField(grid, data))

