"""Operator algebra of the damped Navier-Stokes system.

The full operator applied to a divergence-free field u is

    G(u) = mu * A u + B(u, u) + beta * C_r(u) + alpha * u

with A the (negative) Laplacian restricted to divergence-free fields, B the
Leray-projected advection and C_r the projected pointwise damping
|u|^{r-1} u.  Nonlinear terms are evaluated pseudo-spectrally: physical-space
products, forward transform, 2/3-rule dealiasing, then Leray projection, the
last three on the half spectrum in one place.  :func:`nonlinear_term` is the
one kernel that the solver, :func:`cbf_operator` and :func:`recover_pressure`
share; :func:`advection` and :func:`damping` end in the same forward tail.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ContractViolationError, InvalidArgumentsError,
                     InvalidExponentError, NotApplicableError)
from .fields import (SpectralField, half_spectrum, hermitian_expand, magnitude,
                     real_forward, real_inverse, require_same_grid, to_physical)
from .spectral import (band_mask, dealias, divergence, divergence_defect,
                       project_coeffs)

DIV_FREE_TOL = 1e-10


@dataclass(frozen=True)
class CbfParams:
    """Physical parameters: viscosity mu, Darcy alpha, Forchheimer beta,
    absorption exponent r."""

    mu: float = 1.0
    alpha: float = 0.0
    beta: float = 1.0
    r: float = 3.0

    def __post_init__(self):
        if not self.mu > 0:
            raise InvalidArgumentsError(f"mu must be positive, got {self.mu}")
        if self.beta < 0:
            raise InvalidArgumentsError(f"beta must be >= 0, got {self.beta}")
        if self.alpha < 0:
            raise InvalidArgumentsError(f"alpha must be >= 0, got {self.alpha}")
        if self.r < 1:
            raise InvalidExponentError(f"r must be >= 1, got {self.r}")

    @property
    def critical_regime(self) -> bool:
        """True at the critical exponent r=3 with 2*beta*mu >= 1."""
        return self.r == 3.0 and 2.0 * self.beta * self.mu >= 1.0


def _require_div_free(u: SpectralField, what: str):
    if u.divergence_free:
        return
    if divergence_defect(u) > DIV_FREE_TOL:
        raise ContractViolationError(f"{what} requires a divergence-free field")


def stokes(u: SpectralField) -> SpectralField:
    """A u = -P(Laplacian u): multiplier |k|^2 on divergence-free fields."""
    _require_div_free(u, "stokes operator")
    return u.replace(u.grid.k_squared * u.coeffs)


def pointwise_power(mag: np.ndarray, p: float) -> np.ndarray:
    """mag**p taken as 0 where mag = 0, and 1 everywhere for p = 0."""
    if p == 0.0:
        return np.ones_like(mag)
    positive = mag > 0
    return np.where(positive, np.where(positive, mag, 1.0) ** p, 0.0)


def damping_pointwise(data: np.ndarray, r: float) -> np.ndarray:
    """|u|^{r-1} u evaluated on samples, with |u|^{r-1}u := 0 where u = 0."""
    if r < 1:
        raise InvalidExponentError(f"r must be >= 1, got {r}")
    return pointwise_power(magnitude(data), r - 1.0) * data


def damping(u: SpectralField, r: float, apply_dealias: bool = True) -> SpectralField:
    """C_r(u) = P(|u|^{r-1} u), evaluated pointwise then dealiased/projected."""
    return _spectral_term(damping_pointwise(to_physical(u).data, r), u.grid,
                          band_mask(u.grid, apply_dealias))


def advect_samples(u_phys: np.ndarray, v_jac_phys: np.ndarray) -> np.ndarray:
    """(u . grad) v on samples given u and the physical Jacobian of v."""
    return np.einsum("i...,ji...->j...", u_phys, v_jac_phys)


def _half_wavenumbers(grid):
    return [half_spectrum(k, grid) for k in grid.wavenumbers]


def _jacobian_samples(half, grid):
    """Samples of the partial derivatives of half-spectrum coefficients."""
    k = _half_wavenumbers(grid)
    return real_inverse(np.stack([np.stack([1j * ka * c for ka in k])
                                  for c in half]), grid)


def physical_jacobian(v: SpectralField) -> np.ndarray:
    """Partial derivatives of v evaluated on the grid, shape (ncomp, dim, ...)."""
    return _jacobian_samples(half_spectrum(v.coeffs, v.grid), v.grid)


def _rotational_samples(half, u_phys, grid):
    """omega x u on samples, omega = curl u (its z-component alone in 2D)."""
    k = _half_wavenumbers(grid)

    def curl(i, j):
        return 1j * (k[i] * half[j] - k[j] * half[i])

    if grid.dim == 2:
        w = real_inverse(curl(0, 1), grid)
        return np.stack([-w * u_phys[1], w * u_phys[0]])
    w = real_inverse(np.stack([curl(1, 2), curl(2, 0), curl(0, 1)]), grid)
    return np.stack([w[1] * u_phys[2] - w[2] * u_phys[1],
                     w[2] * u_phys[0] - w[0] * u_phys[2],
                     w[0] * u_phys[1] - w[1] * u_phys[0]])


def _spectral_term(samples, grid, mask, project=True):
    """Field of the samples' coefficients restricted to ``mask`` (a
    :func:`band_mask`) and Leray-projected, all on the half spectrum."""
    if project and len(samples) != grid.dim:
        raise InvalidArgumentsError("Leray projection needs a vector field")
    out = real_forward(samples, grid)
    if mask is not None:
        out = out * half_spectrum(mask, grid)
    if project:
        out = project_coeffs(out, _half_wavenumbers(grid),
                             half_spectrum(grid.inv_k_squared, grid))
    return SpectralField(grid, hermitian_expand(out, grid), divergence_free=project)


def nonlinear_term(u: SpectralField, params: CbfParams,
                   apply_dealias: bool = True, galerkin_n: int = 0,
                   galerkin_shape: str = "box", project: bool = True,
                   u_phys: np.ndarray = None):
    """(B(u) + beta*C_r(u), samples of u), both on the band of
    :func:`band_mask`; pass ``u_phys`` when those samples are known.

    Projected and dealiased, advection takes the rotational form omega x u,
    equal to (u.grad)u up to grad(|u|^2/2), which the projection removes;
    otherwise the convective form.  Only the result leaves the half spectrum.
    """
    grid = u.grid
    mask = band_mask(grid, apply_dealias, galerkin_n, galerkin_shape)
    half = half_spectrum(u.coeffs, grid)
    if mask is not None:
        half = half * half_spectrum(mask, grid)
    if u_phys is None:
        u_phys = real_inverse(half, grid)
    if apply_dealias and project:
        term = _rotational_samples(half, u_phys, grid)
    else:
        term = advect_samples(u_phys, _jacobian_samples(half, grid))
    term = term + params.beta * damping_pointwise(u_phys, params.r)
    return _spectral_term(term, grid, mask, project), u_phys


def advection(u: SpectralField, v: SpectralField = None,
              apply_dealias: bool = True) -> SpectralField:
    """B(u, v) = P[(u . grad) v]; B(u) = B(u, u) when v is omitted."""
    if v is None:
        v = u
    require_same_grid(u, v)
    _require_div_free(u, "advection")
    if apply_dealias:
        u, v = dealias(u), dealias(v)
    term = advect_samples(to_physical(u).data, physical_jacobian(v))
    return _spectral_term(term, u.grid, band_mask(u.grid, apply_dealias))


def advection_form(u: SpectralField, v: SpectralField, w: SpectralField) -> float:
    """Trilinear form b(u, v, w) = integral of (u . grad) v . w."""
    require_same_grid(u, v)
    require_same_grid(u, w)
    u_phys = to_physical(u).data
    w_phys = to_physical(w).data
    term = advect_samples(u_phys, physical_jacobian(v))
    return float(np.sum(term * w_phys) * u.grid.cell_volume)


def cbf_operator(u: SpectralField, params: CbfParams,
                 apply_dealias: bool = True) -> SpectralField:
    """G(u) = mu*A u + B(u) + beta*C(u) + alpha*u."""
    _require_div_free(u, "cbf operator")
    nl, _ = nonlinear_term(u, params, apply_dealias)
    coeffs = (params.mu * u.grid.k_squared + params.alpha) * u.coeffs + nl.coeffs
    return SpectralField(u.grid, coeffs, divergence_free=True)


def monotonicity_shift(params: CbfParams, variant: str = "theorem") -> float:
    """Shift rho making G + rho*I monotone for r > 3.

    ``variant="theorem"`` (default) returns
    (r-3)/(2 mu (r-1)) * (2/(beta mu (r-1)))^{2/(r-3)}.
    ``variant="proof_step"`` exposes the alternative prefactor (r-3)/(r-1)
    that appears in one derivation step; the two disagree and the default is
    the one backed by the full estimate chain.  For r <= 3 the shift is 0
    (global monotonicity regime when 2*beta*mu >= 1).
    """
    r, mu, beta = params.r, params.mu, params.beta
    if r <= 3.0:
        return 0.0
    if beta == 0.0:
        raise NotApplicableError("monotonicity shift needs beta > 0")
    tail = (2.0 / (beta * mu * (r - 1.0))) ** (2.0 / (r - 3.0))
    if variant == "theorem":
        return (r - 3.0) / (2.0 * mu * (r - 1.0)) * tail
    if variant == "proof_step":
        return (r - 3.0) / (r - 1.0) * tail
    raise InvalidArgumentsError(f"unknown variant {variant!r}")


def regularity_rate(params: CbfParams) -> float:
    """Exponential rate rho* in the gradient-norm a-priori bound (r > 3)."""
    r, mu, beta = params.r, params.mu, params.beta
    if r <= 3.0:
        raise NotApplicableError("regularity rate is defined for r > 3 only")
    if beta == 0.0:
        raise NotApplicableError("regularity rate needs beta > 0")
    return (2.0 * (r - 3.0) / (mu * (r - 1.0))
            * (4.0 / (beta * mu * (r - 1.0))) ** (2.0 / (r - 3.0)))


def recover_pressure(u: SpectralField, f: SpectralField,
                     params: CbfParams, apply_dealias: bool = True) -> SpectralField:
    """Mean-zero pressure from Delta p = div(f - (u.grad)u - beta|u|^{r-1}u)."""
    _require_div_free(u, "pressure recovery")
    require_same_grid(u, f)
    grid = u.grid
    rhs, _ = nonlinear_term(u, params, apply_dealias, project=False)
    return SpectralField(grid, -grid.inv_k_squared * divergence(f - rhs).coeffs)
