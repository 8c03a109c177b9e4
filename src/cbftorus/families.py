"""Named analytic field families used for initial conditions and forcing."""

import numpy as np

from .errors import InvalidArgumentsError
from .fields import PhysicalField, SpectralField, to_spectral
from .grid import TorusGrid, TWO_PI
from .spectral import dealias, l2_norm, leray_project


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
    """Real single-mode field amplitude*cos(k.x + phase) in one component."""
    mode = tuple(int(m) for m in mode)
    if len(mode) != grid.dim:
        raise InvalidArgumentsError("mode index length must equal grid.dim")
    coeffs = np.zeros((grid.dim,) + grid.shape, dtype=complex)
    idx = tuple(m % grid.n_points for m in mode)
    conj_idx = tuple((-m) % grid.n_points for m in mode)
    half = 0.5 * amplitude * np.exp(1j * phase)
    coeffs[(component,) + idx] += half
    coeffs[(component,) + conj_idx] += np.conj(half)
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
    mask = (grid.mode_inf_norm <= band_limit) & (grid.mode_sq_norm > 0)
    weight = np.where(grid.mode_sq_norm > 0,
                      np.asarray(grid.mode_sq_norm, dtype=float), 1.0)
    weight = weight ** (-spectrum_slope / 2.0)
    raw = raw * mask * weight
    # Hermitian part of the raw draw gives a real-valued field.
    coeffs = np.stack([0.5 * (c + grid.conj_reflect(c)) for c in raw])
    field = SpectralField(grid, coeffs)
    if project:
        field = leray_project(field)
    field = dealias(field)
    norm = l2_norm(field)
    if norm == 0.0:
        raise InvalidArgumentsError("degenerate random field (zero norm)")
    return field.replace(field.coeffs * (amplitude / norm))


def kolmogorov(grid: TorusGrid, mode: int = 1, amplitude: float = 1.0) -> SpectralField:
    """Steady shear forcing amplitude*(sin(m * 2 pi y / L), 0, ...)."""
    scale = TWO_PI / grid.period
    mesh = grid.meshgrid()
    data = np.zeros((grid.dim,) + grid.shape)
    data[0] = amplitude * np.sin(mode * scale * mesh[1])
    return to_spectral(PhysicalField(grid, data))

