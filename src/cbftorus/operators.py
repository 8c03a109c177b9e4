"""Operator algebra of the damped Navier-Stokes system.

The full operator applied to a divergence-free field u is

    G(u) = mu * A u + B(u, u) + beta * C_r(u) + alpha * u

with A the (negative) Laplacian restricted to divergence-free fields, B the
Leray-projected advection and C_r the projected pointwise damping
|u|^{r-1} u.  Nonlinear terms are evaluated pseudo-spectrally: physical-space
products, then one forward tail: a transform onto the compact box of the
modes that 2/3-rule dealiasing and Galerkin truncation keep
(``fields.band_box``), then Leray projection.  :func:`nonlinear_term` is the
one kernel, on the box, that the solver, :func:`cbf_operator` and
:func:`recover_pressure` share; :func:`advection` and :func:`damping` end in
the same forward tail.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ContractViolationError, InvalidArgumentsError,
                     InvalidExponentError, NotApplicableError)
from .fields import (SpectralField, band_box, real_inverse, require_same_grid,
                     squared_magnitude, to_physical)
from .spectral import divergence_defect, jacobian, project_coeffs

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
    if p > 0.0:
        return mag ** p  # 0**p = 0 already
    positive = mag > 0
    return np.where(positive, np.where(positive, mag, 1.0) ** p, 0.0)


def damping_weight(u_sq: np.ndarray, r: float) -> np.ndarray:
    """|u|^{r-1} = (|u|^2)^{(r-1)/2} from samples of |u|^2, 0 where u = 0."""
    return pointwise_power(u_sq, 0.5 * (r - 1.0))


class Samples(NamedTuple):
    """u on the grid with |u|^2 and the damping weight |u|^{r-1} there."""

    phys: np.ndarray
    sq: np.ndarray
    weight: np.ndarray


def pointwise_samples(u_phys: np.ndarray, r: float) -> Samples:
    """Form |u|^2 once, and the weight from it."""
    u_sq = squared_magnitude(u_phys)
    return Samples(u_phys, u_sq, damping_weight(u_sq, r))


def damping_pointwise(data: np.ndarray, r: float) -> np.ndarray:
    """|u|^{r-1} u evaluated on samples, with |u|^{r-1}u := 0 where u = 0."""
    if r < 1:
        raise InvalidExponentError(f"r must be >= 1, got {r}")
    return damping_weight(squared_magnitude(data), r) * data


def damping(u: SpectralField, r: float, apply_dealias: bool = True) -> SpectralField:
    """C_r(u) = P(|u|^{r-1} u), evaluated pointwise then dealiased/projected."""
    samples = damping_pointwise(to_physical(u).data, r)
    box = band_box(u.grid, apply_dealias)
    return SpectralField(u.grid, box.expand(_forward(samples, box)),
                         divergence_free=True)


def advect_samples(u_phys: np.ndarray, v_jac_phys: np.ndarray) -> np.ndarray:
    """(u . grad) v on samples given u and the physical Jacobian of v."""
    return np.einsum("i...,ji...->j...", u_phys, v_jac_phys)


def physical_jacobian(v: SpectralField) -> np.ndarray:
    """Partial derivatives of v evaluated on the grid, shape (ncomp, dim, ...)."""
    return real_inverse(jacobian(v.coeffs, v.grid), v.grid)


def _rotational_samples(coeffs, u_phys, box):
    """omega x u on samples, omega = curl u (its z-component alone in 2D)."""
    k = box.wavenumbers

    def curl(i, j):
        return 1j * (k[i] * coeffs[j] - k[j] * coeffs[i])

    out = np.empty_like(u_phys)
    if box.grid.dim == 2:
        w = box.inverse(curl(0, 1))
        np.multiply(np.negative(w), u_phys[1], out=out[0])
        np.multiply(w, u_phys[0], out=out[1])
        return out
    w = box.inverse(np.stack([curl(1, 2), curl(2, 0), curl(0, 1)]))
    for i in range(3):
        a, b = (i + 1) % 3, (i + 2) % 3
        np.multiply(w[a], u_phys[b], out=out[i])
        out[i] -= w[b] * u_phys[a]
    return out


def _forward(samples, box, project=True):
    """Coefficients of the samples on ``box``, restricted to its mask and
    Leray-projected."""
    if project and len(samples) != box.grid.dim:
        raise InvalidArgumentsError("Leray projection needs a vector field")
    out = box.forward(samples)
    if box.mask is not None:
        out = out * box.mask
    if project:
        out = project_coeffs(out, box.wavenumbers, box.inv_k_squared)
    return out


def nonlinear_term(coeffs: np.ndarray, box, params: CbfParams,
                   apply_dealias: bool = True, project: bool = True,
                   samples: Samples = None):
    """(B(u) + beta*C_r(u), :class:`Samples` of u) for the u of coefficients
    ``coeffs`` on ``box`` (a ``fields.band_box``), restricted to its band;
    the result is coefficients on the box too.  Pass ``samples`` when they
    are known; u must then lie in the band already.

    Projected and dealiased, advection takes the rotational form omega x u,
    equal to (u.grad)u up to grad(|u|^2/2), which the projection removes;
    otherwise the convective form.
    """
    if samples is None:
        if box.mask is not None:
            coeffs = coeffs * box.mask
        samples = pointwise_samples(box.inverse(coeffs), params.r)
    if apply_dealias and project:
        term = _rotational_samples(coeffs, samples.phys, box)
    else:
        term = advect_samples(samples.phys, box.inverse(jacobian(coeffs, box)))
    term += params.beta * samples.weight * samples.phys
    return _forward(term, box, project), samples


def advection(u: SpectralField, v: SpectralField = None,
              apply_dealias: bool = True) -> SpectralField:
    """B(u, v) = P[(u . grad) v]; B(u) = B(u, u) when v is omitted."""
    if v is None:
        v = u
    require_same_grid(u, v)
    _require_div_free(u, "advection")
    box = band_box(u.grid, apply_dealias)
    term = advect_samples(box.inverse(box.gather(u.coeffs)),
                          box.inverse(jacobian(box.gather(v.coeffs), box)))
    return SpectralField(u.grid, box.expand(_forward(term, box)),
                         divergence_free=True)


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
    grid = u.grid
    box = band_box(grid, apply_dealias)
    nl, _ = nonlinear_term(box.gather(u.coeffs), box, params, apply_dealias)
    coeffs = (params.mu * grid.k_squared + params.alpha) * u.coeffs + box.expand(nl)
    return SpectralField(grid, coeffs, divergence_free=True)


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
    box = band_box(grid, apply_dealias)
    rhs, _ = nonlinear_term(box.gather(u.coeffs), box, params, apply_dealias,
                            project=False)
    div = sum(1j * k * c for k, c in zip(grid.wavenumbers,
                                         f.coeffs - box.expand(rhs)))
    return SpectralField(grid, -grid.inv_k_squared * div)
