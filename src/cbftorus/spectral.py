"""Spectral calculus: projection, differentiation, filtering, norms.

Every multiplier here is built from the grid's derivative wavenumbers (with
the unmatched Nyquist entry zeroed), which keeps the discrete identities
exact: the Leray projector annihilates discrete gradients, <Au,u> equals the
quadrature of |grad u|^2, and Plancherel sums match physical quadrature to
rounding.
"""

import numpy as np

from .errors import InvalidExponentError, InvalidArgumentsError
from .fields import PhysicalField, SpectralField, require_same_grid, to_physical

__all__ = [
    "leray_project", "project_coeffs", "gradient", "jacobian", "divergence",
    "laplacian", "dealias", "truncate_modes", "truncation_mask", "band_mask",
    "exp_filter",
    "l2_norm", "h1_norm", "grad_norm", "lp_norm", "dual_norm", "l2_pairing",
    "divergence_defect",
]


def leray_project(u: SpectralField) -> SpectralField:
    """Orthogonal projection onto divergence-free fields.

    Mode-wise u_hat <- (I - k k^T/|k|^2) u_hat; modes with k = 0 (the mean
    mode, and Nyquist-only indices under the zeroed-derivative convention)
    pass through unchanged.
    """
    grid = u.grid
    if not u.is_vector:
        raise InvalidArgumentsError("Leray projection needs a vector field")
    coeffs = project_coeffs(u.coeffs, grid.wavenumbers, grid.inv_k_squared)
    return SpectralField(grid, coeffs, divergence_free=True)


def project_coeffs(coeffs, k, inv_k2):
    """(I - k k^T/|k|^2) applied to a (dim, ...) coefficient array, given the
    wavenumbers and 1/|k|^2 broadcast to its modes (full or half spectrum)."""
    factor = inv_k2 * sum(k[i] * coeffs[i] for i in range(len(k)))
    return np.stack([coeffs[i] - k[i] * factor for i in range(len(k))])


def divergence_defect(u: SpectralField) -> float:
    """max_k |k . u_hat(k)| normalized by the coefficient scale."""
    scale = u.scale()
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(divergence(u).coeffs))) / scale


def jacobian(u: SpectralField) -> np.ndarray:
    """Spectral partial derivatives, shape (ncomp, dim, N, ..., N)."""
    grid = u.grid
    return np.stack(
        [np.stack([1j * grid.wavenumbers[a] * u.coeffs[c] for a in range(grid.dim)])
         for c in range(u.ncomp)])


def gradient(u: SpectralField) -> SpectralField:
    """Gradient of a scalar field (or flattened Jacobian of a vector)."""
    grid = u.grid
    jac = jacobian(u)
    return SpectralField(grid, jac.reshape((-1,) + grid.shape))


def divergence(u: SpectralField) -> SpectralField:
    """Divergence of a vector field (scalar output)."""
    grid = u.grid
    if not u.is_vector:
        raise InvalidArgumentsError("divergence needs a vector field")
    out = sum(1j * grid.wavenumbers[i] * u.coeffs[i] for i in range(grid.dim))
    return SpectralField(grid, out[np.newaxis])


def laplacian(u: SpectralField) -> SpectralField:
    return u.replace(-u.grid.k_squared * u.coeffs)


def dealias(u: SpectralField) -> SpectralField:
    """Zero all modes with any |m_i| above the 2/3-rule band floor((N-1)/3)."""
    return u.replace(u.coeffs * u.grid.dealias_mask)


def truncate_modes(u: SpectralField, n: int, shape: str = "box") -> SpectralField:
    """Galerkin truncation to the index box [-n, n]^d (or ball |m| <= n)."""
    return u.replace(u.coeffs * truncation_mask(u.grid, n, shape))


def truncation_mask(grid, n: int, shape: str = "box"):
    """True on the modes of the index box [-n, n]^d (or ball |m| <= n)."""
    if n < 0:
        raise InvalidArgumentsError("truncation radius must be >= 0")
    if shape == "box":
        return grid.mode_inf_norm <= n
    if shape == "ball":
        return grid.mode_sq_norm <= n * n
    raise InvalidArgumentsError(f"unknown truncation shape {shape!r}")


def band_mask(grid, apply_dealias: bool = True, galerkin_n: int = 0,
              galerkin_shape: str = "box"):
    """Modes kept by 2/3-rule dealiasing and Galerkin truncation (off at
    ``galerkin_n = 0``); None when both are off."""
    mask = grid.dealias_mask if apply_dealias else None
    if galerkin_n > 0:
        trunc = truncation_mask(grid, galerkin_n, galerkin_shape)
        mask = trunc if mask is None else mask & trunc
    return mask


def exp_filter(u: SpectralField, n: float) -> SpectralField:
    """Exponential spectral filter: e^{-|k|^2/n} below the |k|^2 < n^2 cutoff.

    Non-expansive in the L2 norm for every n > 0, with residual
    ||(I - F_n)u|| <= (max|k|^2 / n)||u|| for band-limited input.
    """
    if not n > 0:
        raise InvalidArgumentsError("filter parameter must be positive")
    lam = u.grid.k_squared
    mult = np.where(lam < n * n, np.exp(-lam / n), 0.0)
    return u.replace(mult * u.coeffs)


def l2_norm(u) -> float:
    """L2 norm; spectral Plancherel sum or physical quadrature."""
    if isinstance(u, PhysicalField):
        return float(np.sqrt(np.sum(u.data ** 2) * u.grid.cell_volume))
    return float(np.sqrt(u.grid.volume * np.sum(np.abs(u.coeffs) ** 2)))


def grad_norm(u: SpectralField) -> float:
    """Gradient seminorm ||grad u||_{L2}, computed spectrally."""
    return float(np.sqrt(u.grid.volume
                         * np.sum(u.grid.k_squared * np.abs(u.coeffs) ** 2)))


def h1_norm(u: SpectralField) -> float:
    """Full H1 norm (sum of squared L2 norm and gradient seminorm)."""
    w = 1.0 + u.grid.k_squared
    return float(np.sqrt(u.grid.volume * np.sum(w * np.abs(u.coeffs) ** 2)))


def dual_norm(u: SpectralField) -> float:
    """H1-dual norm: coefficients weighted by (1 + |k|^2)^{-1/2}."""
    w = 1.0 / (1.0 + u.grid.k_squared)
    return float(np.sqrt(u.grid.volume * np.sum(w * np.abs(u.coeffs) ** 2)))


def lp_norm(u, p: float) -> float:
    """L^p norm of the pointwise magnitude, by grid-point quadrature."""
    if p < 1:
        raise InvalidExponentError(f"p must be >= 1, got {p}")
    phys = u if isinstance(u, PhysicalField) else to_physical(u)
    mag = phys.magnitude()
    return float(np.sum(mag ** p) * phys.grid.cell_volume) ** (1.0 / p)


def l2_pairing(f: SpectralField, u: SpectralField) -> float:
    """Duality pairing <f, u> = integral of f.u, as a Plancherel sum."""
    require_same_grid(f, u)
    return float(f.grid.volume * np.real(np.sum(f.coeffs * np.conj(u.coeffs))))


def embed_modes(u: SpectralField, fine_grid) -> SpectralField:
    """Copy coefficients into a finer grid by mode index (same period)."""
    if fine_grid.dim != u.grid.dim or fine_grid.n_points < u.grid.n_points:
        raise InvalidArgumentsError("target grid must refine the source grid")
    coarse = u.grid
    out = np.zeros((u.ncomp,) + fine_grid.shape, dtype=complex)
    src = [m.ravel() for m in np.meshgrid(*([coarse.modes] * coarse.dim),
                                          indexing="ij")]
    dst = tuple(m % fine_grid.n_points for m in src)
    flat = u.coeffs.reshape(u.ncomp, -1)
    for c in range(u.ncomp):
        out[(c,) + dst] = flat[c]
    return SpectralField(fine_grid, out, u.divergence_free)
