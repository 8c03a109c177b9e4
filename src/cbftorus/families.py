"""Named analytic field families used for initial conditions and forcing."""

import numpy as np

from .errors import InvalidArgumentsError
from .fields import PhysicalField, SpectralField, conj_mirror, to_spectral
from .grid import TorusGrid, TWO_PI
from .spectral import abs_sq, dealias, leray_project


def taylor_green(grid: TorusGrid, amplitude: float = 1.0) -> SpectralField:
    """Taylor-Green vortex (cos x sin y, -sin x cos y), z-independent in 3D.

    Divergence-free; under pure viscous decay it evolves as
    amplitude * e^{-2 mu t} on the unit torus scale 2*pi/L.
    """
    field = to_spectral(taylor_green_exact(grid, 0.0, 0.0, amplitude))
    return SpectralField(grid, field.coeffs, divergence_free=True)


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


def random_band_limited(grid: TorusGrid, seed: int, band_limit: int = 8,
                        spectrum_slope: float = 2.0, amplitude: float = 1.0,
                        project: bool = True) -> SpectralField:
    """Seeded Gaussian field with power-law spectrum |m|^(-slope).

    Modes fill the index box 0 < max|m_i| <= band_limit; the mean mode is
    excluded so samples are mean-free.  The result is Leray-projected (unless
    ``project=False``), dealiased (which removes nothing when band_limit <=
    (N-1)//3), and normalized so its L2 norm equals ``amplitude``.  ``seed``
    is an integer or a ``numpy.random.SeedSequence``.
    """
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
    return field.replace(field.coeffs * (amplitude / norm))


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

