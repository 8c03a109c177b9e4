"""Operator algebra of the damped Navier-Stokes system.

The full operator applied to a divergence-free field u is

    G(u) = mu * A u + B(u, u) + beta * C_r(u) + alpha * u

with A the (negative) Laplacian restricted to divergence-free fields, B the
Leray-projected advection and C_r the projected pointwise damping
|u|^{r-1} u.  A, B, G and pressure recovery measure the relative divergence
defect of their input on every call and raise
:class:`ContractViolationError` above ``DIV_FREE_TOL``.  Nonlinear terms
are evaluated pseudo-spectrally: physical-space products, then one forward
tail: a transform onto the compact box of the modes that 2/3-rule
dealiasing and Galerkin truncation keep (``fields.band_box``), then Leray
projection.  :func:`nonlinear_term` is the one kernel, on the box, that the
solver, :func:`cbf_operator` and :func:`recover_pressure` share, and
:func:`grid_samples` the one builder of the samples of u it reads;
:func:`advection` and :func:`damping` end in the same forward tail.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ContractViolationError, InvalidArgumentsError,
                     InvalidExponentError, RegimeError)
from .fields import (SpectralField, band_box, require_same_grid,
                     squared_magnitude, to_physical)
from .spectral import divergence, divergence_defect, jacobian

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
        if not 0 < self.mu < math.inf:
            raise InvalidArgumentsError(
                f"mu must be finite and > 0, got {self.mu}")
        if not 0 <= self.beta < math.inf:
            raise InvalidArgumentsError(
                f"beta must be finite and >= 0, got {self.beta}")
        if not 0 <= self.alpha < math.inf:
            raise InvalidArgumentsError(
                f"alpha must be finite and >= 0, got {self.alpha}")
        if not 1 <= self.r < math.inf:
            raise InvalidExponentError(
                f"r must be finite and >= 1, got {self.r}")

    @property
    def critical_regime(self) -> bool:
        """True at the critical exponent r=3 with 2*beta*mu >= 1."""
        return self.r == 3.0 and 2.0 * self.beta * self.mu >= 1.0


def _require_div_free(u: SpectralField, what: str):
    if divergence_defect(u) > DIV_FREE_TOL:
        raise ContractViolationError(f"{what} requires a divergence-free field")


def stokes(u: SpectralField) -> SpectralField:
    """A u = -P(Laplacian u): multiplier |k|^2 on divergence-free fields."""
    _require_div_free(u, "stokes operator")
    return SpectralField(u.grid, band_box(u.grid, False).k_squared * u.coeffs)


def pointwise_power(mag: np.ndarray, p: float) -> np.ndarray:
    """mag**p taken as 0 where mag = 0, and 1 everywhere for p = 0."""
    if p >= 0.0:
        return mag ** p  # 0**p = 0 already, and 0**0 = 1
    positive = mag > 0
    return np.where(positive, np.where(positive, mag, 1.0) ** p, 0.0)


class Samples(NamedTuple):
    """u on the grid with |u|^2 and the damping weight |u|^{r-1} there."""

    phys: np.ndarray
    sq: np.ndarray
    weight: np.ndarray


def pointwise_samples(u_phys: np.ndarray, r: float) -> Samples:
    """Form |u|^2 once, and from it the weight |u|^{r-1}, 0 where u = 0."""
    u_sq = squared_magnitude(u_phys)
    return Samples(u_phys, u_sq, pointwise_power(u_sq, 0.5 * (r - 1.0)))


def grid_samples(c, box, r: float, with_jacobian: bool = False):
    """(:class:`Samples` of the u of coefficients ``c`` on ``box``, samples
    of its Jacobian when ``with_jacobian`` or None) from one inverse
    transform of [c] or [c; grad c], stacked in place."""
    d, shape = box.grid.dim, c.shape[1:]
    stacked = np.empty((d + with_jacobian * d * d,) + shape, complex)
    stacked[:d] = c
    jacobian(c, box, out=stacked[d:].reshape((-1, d) + shape))
    phys = box.inverse(stacked)
    jac = phys[d:].reshape((d, d) + box.grid.shape) if with_jacobian else None
    return pointwise_samples(phys[:d], r), jac


def damping_pointwise(data: np.ndarray, r: float) -> np.ndarray:
    """|u|^{r-1} u evaluated on samples, with |u|^{r-1}u := 0 where u = 0."""
    if not 1 <= r < math.inf:
        raise InvalidExponentError(f"r must be finite and >= 1, got {r}")
    return pointwise_samples(data, r).weight * data


def damping(u: SpectralField, r: float, apply_dealias: bool = True) -> SpectralField:
    """C_r(u) = P(|u|^{r-1} u), pointwise on the dealiased u, then dealiased."""
    box = band_box(u.grid, apply_dealias)
    samples = damping_pointwise(box.inverse(box.gather(u.coeffs)), r)
    return SpectralField(u.grid, box.expand(_forward(samples, box)))


def advect_samples(u_phys: np.ndarray, v_jac_phys: np.ndarray) -> np.ndarray:
    """(u . grad) v on samples given u and the physical Jacobian of v."""
    return np.einsum("i...,ji...->j...", u_phys, v_jac_phys)


def physical_jacobian(v: SpectralField) -> np.ndarray:
    """Partial derivatives of v evaluated on the grid, shape (ncomp, dim, ...)."""
    half = band_box(v.grid, False)
    return half.inverse(jacobian(v.coeffs, half))


def _rotational_samples(coeffs, u_phys, box):
    """omega x u on samples: each curl pair i < j, w = d_i u_j - d_j u_i,
    adds -w u_j to component i and w u_i to component j."""
    k = box.wavenumbers
    pairs = list(itertools.combinations(range(box.grid.dim), 2))
    w = np.empty((len(pairs),) + coeffs.shape[1:], complex)
    for w_ij, (i, j) in zip(w, pairs):  # 1j * (k_i c_j - k_j c_i), in place
        np.subtract(np.multiply(k[i], coeffs[j], out=w_ij), k[j] * coeffs[i],
                    out=w_ij)
        np.multiply(1j, w_ij, out=w_ij)
    w = box.inverse(w)
    out = np.zeros_like(u_phys)
    for w_ij, (i, j) in zip(w, pairs):
        out_i, out_j = out[i], out[j]  # views, updated in place: no write-back
        out_i -= w_ij * u_phys[j]
        out_j += w_ij * u_phys[i]
    return out


def _forward(samples, box, project=True):
    """Coefficients of the samples on ``box``, restricted to its mask and
    Leray-projected."""
    out = box.masked(box.forward(samples))
    return box.project(out) if project else out


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
        coeffs = box.masked(coeffs)
        samples, _ = grid_samples(coeffs, box, params.r)
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
    return SpectralField(u.grid, box.expand(_forward(term, box)))


def advection_form(u: SpectralField, v: SpectralField, w: SpectralField) -> float:
    """Trilinear form b(u, v, w) = integral of (u . grad) v . w."""
    require_same_grid(u, v)
    require_same_grid(u, w)
    u_phys = to_physical(u).data
    w_phys = to_physical(w).data
    term = advect_samples(u_phys, physical_jacobian(v))
    return u.grid.integral(term * w_phys)


def cbf_operator(u: SpectralField, params: CbfParams,
                 apply_dealias: bool = True) -> SpectralField:
    """G(u) = mu*A u + B(u) + beta*C(u) + alpha*u."""
    _require_div_free(u, "cbf operator")
    grid = u.grid
    box = band_box(grid, apply_dealias)
    nl, _ = nonlinear_term(box.gather(u.coeffs), box, params, apply_dealias)
    lam = params.mu * band_box(grid, False).k_squared + params.alpha
    coeffs = lam * u.coeffs + box.expand(nl)
    return SpectralField(grid, coeffs)


def finite_constant(name, value, **at):
    """``value()``, a constant of a bound at the parameters ``at``, if it is
    a finite float; a :class:`RegimeError` naming the overflow otherwise."""
    try:
        out = value()
    except (OverflowError, ZeroDivisionError):
        out = math.inf
    if not math.isfinite(out):
        where = ", ".join(f"{key} = {v:g}" for key, v in at.items())
        raise RegimeError(f"{name} overflows a float at {where}")
    return out


def monotonicity_shift(params: CbfParams) -> float:
    """Shift rho making G + rho*I monotone, in the regime the theorem covers:
    (r-3)/(2 mu (r-1)) * (2/(beta mu (r-1)))^{2/(r-3)} for r > 3 with
    beta > 0, the prefactor the full estimate chain backs, and 0 for r = 3
    with 2*beta*mu >= 1.  Any other regime, or a shift that overflows a
    float, is a :class:`RegimeError`.
    """
    r, mu, beta = params.r, params.mu, params.beta
    if params.critical_regime:
        return 0.0
    if r <= 3.0:
        raise RegimeError("monotonicity is proven for r > 3, or r = 3 with "
                          "2*beta*mu >= 1")
    if beta == 0.0:
        raise RegimeError("monotonicity shift needs beta > 0")
    return finite_constant("monotonicity shift", lambda: (
        (r - 3.0) / (2.0 * mu * (r - 1.0))
        * (2.0 / (beta * mu * (r - 1.0))) ** (2.0 / (r - 3.0))), **vars(params))


def regularity_rate(params: CbfParams) -> float:
    """Exponential rate rho* in the gradient-norm a-priori bound (r > 3);
    a rate that overflows a float is a :class:`RegimeError`."""
    r, mu, beta = params.r, params.mu, params.beta
    if r <= 3.0:
        raise RegimeError("regularity rate is defined for r > 3 only")
    if beta == 0.0:
        raise RegimeError("regularity rate needs beta > 0")
    return finite_constant("regularity rate", lambda: (
        2.0 * (r - 3.0) / (mu * (r - 1.0))
        * (4.0 / (beta * mu * (r - 1.0))) ** (2.0 / (r - 3.0))), **vars(params))


def recover_pressure(u: SpectralField, f: SpectralField,
                     params: CbfParams, apply_dealias: bool = True) -> SpectralField:
    """Mean-zero pressure from Delta p = div(f - (u.grad)u - beta|u|^{r-1}u)."""
    _require_div_free(u, "pressure recovery")
    require_same_grid(u, f)
    grid = u.grid
    box = band_box(grid, apply_dealias)
    rhs, _ = nonlinear_term(box.gather(u.coeffs), box, params, apply_dealias,
                            project=False)
    div = divergence(f - SpectralField(grid, box.expand(rhs))).coeffs
    return SpectralField(grid, -band_box(grid, False).inv_k_squared * div)
