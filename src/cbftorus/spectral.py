"""Spectral calculus: projection, differentiation, filtering, norms.

Every operation acts on the half spectrum that a :class:`SpectralField`
stores, with the multipliers of the box that covers it.  They are built
from derivative wavenumbers with the unmatched Nyquist entries zeroed, which
keeps the discrete identities exact: the Leray projector annihilates
discrete gradients, <Au,u> equals the quadrature of |grad u|^2, and
Plancherel sums, which weight each column that stands for its mirror image
by 2, match physical quadrature to rounding.
"""

import numpy as np

from .errors import InvalidExponentError, InvalidArgumentsError
from .fields import (ModeBox, PhysicalField, SpectralField, band_box,
                     require_same_grid, to_physical)


def leray_project(u: SpectralField) -> SpectralField:
    """Orthogonal projection onto divergence-free fields.

    Mode-wise u_hat <- (I - k k^T/|k|^2) u_hat; modes with k = 0 (the mean
    mode, and Nyquist-only indices under the zeroed-derivative convention)
    pass through unchanged.
    """
    if not u.is_vector:
        raise InvalidArgumentsError("Leray projection needs a vector field")
    half = band_box(u.grid, False)
    coeffs = project_coeffs(u.coeffs, half.wavenumbers, half.inv_k_squared)
    return SpectralField(u.grid, coeffs)


def project_coeffs(coeffs, k, inv_k2):
    """(I - k k^T/|k|^2) applied to a (dim, ...) coefficient array, given the
    wavenumbers and 1/|k|^2 broadcast to its modes."""
    factor = inv_k2 * sum(k[i] * coeffs[i] for i in range(len(k)))
    out = np.empty(coeffs.shape, factor.dtype)
    for i, out_i in enumerate(out):
        np.subtract(coeffs[i], np.multiply(k[i], factor, out=out_i), out=out_i)
    return out


def divergence_defect(u: SpectralField) -> float:
    """max_k |k . u_hat(k)| normalized by the coefficient scale."""
    scale = u.scale()
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(divergence(u).coeffs))) / scale


def jacobian(coeffs, box, out=None) -> np.ndarray:
    """Spectral partial derivatives i*k_a*c of a (ncomp, ...) coefficient
    array on the mode ``box``, shape (ncomp, dim, ...), into ``out`` when
    given."""
    if out is None:
        out = np.empty((len(coeffs), len(box.ik)) + coeffs.shape[1:], complex)
    for c, out_c in zip(coeffs, out):
        for ik, out_ca in zip(box.ik, out_c):
            np.multiply(ik, c, out=out_ca)
    return out


def gradient(u: SpectralField) -> SpectralField:
    """Gradient of a scalar field (or flattened Jacobian of a vector)."""
    grid = u.grid
    return SpectralField(grid, jacobian(u.coeffs, band_box(grid, False)).reshape(
        (-1,) + grid.half_shape))


def divergence(u: SpectralField) -> SpectralField:
    """Divergence of a vector field (scalar output)."""
    if not u.is_vector:
        raise InvalidArgumentsError("divergence needs a vector field")
    return SpectralField(u.grid, sum(
        ik * c for ik, c in zip(band_box(u.grid, False).ik, u.coeffs)))


def laplacian(u: SpectralField) -> SpectralField:
    return SpectralField(u.grid, -band_box(u.grid, False).k_squared * u.coeffs)


def dealias(u: SpectralField) -> SpectralField:
    """Zero all modes with any |m_i| above the 2/3-rule band floor((N-1)/3)."""
    box = band_box(u.grid)
    return SpectralField(u.grid, box.expand(box.gather(u.coeffs)))


def truncate_modes(u: SpectralField, n: int, shape: str = "box") -> SpectralField:
    """Galerkin truncation to the index box [-n, n]^d (or ball |m| <= n):
    the gather and expansion of the mode box of radius n, masked to its ball."""
    if n < 0 or shape not in ("box", "ball"):
        raise InvalidArgumentsError(f"need n >= 0, box or ball: {n}, {shape!r}")
    box = ModeBox(u.grid, min(n, u.grid.n_points // 2), n if shape == "ball" else 0)
    return SpectralField(u.grid, box.expand(box.masked(box.gather(u.coeffs))))


def exp_filter(u: SpectralField, n: float) -> SpectralField:
    """Exponential spectral filter: e^{-|k|^2/n} below the |k|^2 < n^2 cutoff.

    Non-expansive in the L2 norm for every n > 0, with residual
    ||(I - F_n)u|| <= (max|k|^2 / n)||u|| for band-limited input.
    """
    if not n > 0:
        raise InvalidArgumentsError("filter parameter must be positive")
    lam = band_box(u.grid, False).k_squared
    mult = np.where(lam < n * n, np.exp(-lam / n), 0.0)
    return SpectralField(u.grid, mult * u.coeffs)


def abs_sq(coeffs):
    """|c|^2 as c.real^2 + c.imag^2, with no square root taken."""
    return coeffs.real ** 2 + coeffs.imag ** 2


def power_spectrum(u: SpectralField) -> np.ndarray:
    """L2 energy per half-spectrum mode, summed over components: its sum is
    ||u||^2, and with multiplier weights it gives the Sobolev norms."""
    return mode_power(u.coeffs, band_box(u.grid, False).volume_weights)


def mode_power(coeffs, weights):
    """Energy per mode, summed over components, given column ``weights``."""
    return weights * abs_sq(coeffs).sum(axis=0)


def mode_pairing(fc, uc, weights):
    """Plancherel sum of f.u, given column ``weights``."""
    return float((weights * (fc.real * uc.real + fc.imag * uc.imag).sum(
        axis=0)).sum())


def l2_norm(u) -> float:
    """L2 norm; spectral Plancherel sum or physical quadrature."""
    if isinstance(u, PhysicalField):
        return float(np.sqrt(np.sum(u.data ** 2) * u.grid.cell_volume))
    return float(np.sqrt(np.sum(power_spectrum(u))))


def grad_norm(u: SpectralField) -> float:
    """Gradient seminorm ||grad u||_{L2}, computed spectrally."""
    k2 = band_box(u.grid, False).k_squared
    return float(np.sqrt(np.sum(k2 * power_spectrum(u))))


def h1_norm(u: SpectralField) -> float:
    """Full H1 norm (sum of squared L2 norm and gradient seminorm)."""
    k2 = band_box(u.grid, False).k_squared
    return float(np.sqrt(np.sum((1.0 + k2) * power_spectrum(u))))


def dual_norm(u: SpectralField) -> float:
    """H1-dual norm: coefficients weighted by (1 + |k|^2)^{-1/2}."""
    k2 = band_box(u.grid, False).k_squared
    return float(np.sqrt(np.sum(power_spectrum(u) / (1.0 + k2))))


def lp_norm(u, p: float) -> float:
    """L^p norm of the pointwise magnitude, by grid-point quadrature."""
    if not 1 <= p < np.inf:
        raise InvalidExponentError(f"p must be finite and >= 1, got {p}")
    phys = u if isinstance(u, PhysicalField) else to_physical(u)
    mag = phys.magnitude()
    return float(np.sum(mag ** p) * phys.grid.cell_volume) ** (1.0 / p)


def l2_pairing(f: SpectralField, u: SpectralField) -> float:
    """Duality pairing <f, u> = integral of f.u, as a Plancherel sum."""
    require_same_grid(f, u)
    return mode_pairing(f.coeffs, u.coeffs, band_box(f.grid, False).volume_weights)


def embed_modes(u: SpectralField, fine_grid) -> SpectralField:
    """The same trigonometric polynomial on a finer grid (same period): the
    coarse modes, each Nyquist mode split evenly onto -N/2 and +N/2, as
    compact coefficients of the fine grid's box of radius N/2, so that the
    fine field is real and equals u at the coarse grid points."""
    if fine_grid.dim != u.grid.dim or fine_grid.n_points < u.grid.n_points:
        raise InvalidArgumentsError("target grid must refine the source grid")
    n, h = u.grid.n_points, u.grid.n_points // 2
    if fine_grid.n_points == n:
        return SpectralField(fine_grid, u.coeffs)
    rows = np.r_[:h + 1, h:n]  # modes 0..N/2, then -N/2..-1: N/2 taken twice
    split = np.where(rows == h, 0.5, 1.0)
    c = u.coeffs * split[:h + 1]  # column +N/2 stands for -N/2 too
    for axis in range(-u.grid.dim, -1):
        c = np.take(c, rows, axis) * split.reshape((-1,) + (1,) * (-axis - 1))
    return SpectralField(fine_grid, band_box(fine_grid, False, h).expand(c))


def restrict_modes(u: SpectralField, coarse_grid) -> SpectralField:
    """The modes of u with every |m_i| < N/2 on a coarser grid (same period,
    N points per axis): that box's gather on u's grid, expanded on the coarse."""
    if coarse_grid.dim != u.grid.dim or coarse_grid.n_points > u.grid.n_points:
        raise InvalidArgumentsError("target grid must coarsen the source grid")
    radius = coarse_grid.n_points // 2 - 1
    c = band_box(u.grid, False, radius).gather(u.coeffs)
    return SpectralField(coarse_grid, band_box(coarse_grid, False, radius).expand(c))
