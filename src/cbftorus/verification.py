"""Executable certification of the operator inequalities and stability bounds.

Each check draws seeded random divergence-free fields, evaluates one
inequality or identity of the damped Navier-Stokes operator algebra, and
aggregates the worst slack into a :class:`CheckReport`.  Margins are
normalized by an explicit scale (a sum of the magnitudes entering the
expression) so tolerances are dimensionless; ``passed`` is exactly
``worst_margin >= -tolerance``.  Checks whose parameter regime carries no
proven statement run in exploratory mode: margins are reported, nothing is
asserted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, InvalidArgumentsError, RegimeError)
from .families import random_band_limited
from .fields import SpectralField, magnitude, to_physical
from .grid import TorusGrid
from .operators import (CbfParams, advection, advection_form, cbf_operator,
                        damping_pointwise, monotonicity_shift, physical_jacobian,
                        pointwise_power, regularity_rate)
from .solver import (Forcing, SolverConfig, initialize_state, step)
from .spectral import (dual_norm, embed_modes, exp_filter, grad_norm, l2_norm,
                       l2_pairing, laplacian, lp_norm)

DEFAULT_TOL = 1e-9
TINY = 1e-300

# The checks of ``cbftorus verify``, in report order.
CHECKS = (
    "trilinear", "monotone_shifted", "monotone_critical",
    "advection_splitting", "local_2d", "damping_monotone",
    "damping_lipschitz", "mvt", "dissipation_identity", "interpolation",
    "advection_bounds", "filter", "operator_continuity", "gronwall",
    "continuous_dependence", "apriori", "regularity",
)


@dataclass
class CheckReport:
    """Outcome of one verification check."""

    name: str
    samples: int
    worst_margin: float
    worst_case_seed: int
    passed: bool
    tolerance: float = DEFAULT_TOL
    exploratory: bool = False
    notes: str = ""

    def __str__(self):
        status = "EXPLORATORY" if self.exploratory else (
            "PASS" if self.passed else "FAIL")
        return (f"check {self.name}\n"
                f"  samples      {self.samples}\n"
                f"  worst_margin {self.worst_margin:.6e}\n"
                f"  worst_seed   {self.worst_case_seed}\n"
                f"  tolerance    {self.tolerance:.1e}\n"
                f"  status       {status}"
                + (f"\n  notes        {self.notes}" if self.notes else ""))


def _report(name, margins, seeds, tolerance=DEFAULT_TOL, exploratory=False,
            notes=""):
    worst = int(np.argmin(margins))
    worst_margin = float(margins[worst])
    return CheckReport(
        name=name, samples=len(margins), worst_margin=worst_margin,
        worst_case_seed=int(seeds[worst]),
        passed=bool(exploratory or worst_margin >= -tolerance),
        tolerance=tolerance, exploratory=exploratory, notes=notes)


def _sampled(name, sampler, n_samples, margin, tolerance, pairs=True, **report):
    """Report the worst of ``margin`` over samples i = 0..n_samples-1.

    Sample i is ``sampler.pair(i)``, passed as ``margin(u, v, s)``, or with
    ``pairs=False`` ``sampler.single(i)``, passed as ``margin(u, s)``.  One
    sample is drawn at a time; ``report`` goes on to :func:`_report`.
    """
    margins, seeds = [], []
    for i in range(n_samples):
        *fields, s = sampler.pair(i) if pairs else sampler.single(i)
        margins.append(margin(*fields, s))
        seeds.append(s)
    return _report(name, margins, seeds, tolerance, **report)


@dataclass(frozen=True)
class FieldSampler:
    """Deterministic generator of divergence-free band-limited test fields.

    ``field_from_seed(s)`` is a pure function of ``s``; sample i of a check
    uses seeds ``seed + 2i`` and ``seed + 2i + 1`` (``pair``), or ``seed + i``
    (``single``), so the reported worst_case_seed reproduces the failing
    sample standalone (trilinear and advection_bounds excepted: their third
    field's seed also depends on n_samples).
    """

    grid: TorusGrid
    seed: int = 0
    band_limit: int = 8
    spectrum_slope: float = 2.0
    amplitude: float = 1.0

    def field_from_seed(self, s: int) -> SpectralField:
        return random_band_limited(self.grid, seed=s, band_limit=self.band_limit,
                                   spectrum_slope=self.spectrum_slope,
                                   amplitude=self.amplitude)

    def single(self, i: int):
        s = self.seed + i
        return self.field_from_seed(s), s

    def pair(self, i: int):
        s = self.seed + 2 * i
        return self.field_from_seed(s), self.field_from_seed(s + 1), s


def _weighted_l2_sq(weight_mag, diff_phys, cell_volume, half_power):
    """|| |w|^half_power d ||_{L2}^2 = int |w|^{2*half_power} |d|^2 dx."""
    w = pointwise_power(weight_mag, 2.0 * half_power)
    return float(np.sum(w * np.sum(diff_phys * diff_phys, axis=0)) * cell_volume)


def _damping_pairing(u_phys, v_phys, r, cell_volume):
    """<C(u)-C(v), u-v> = int (|u|^{r-1}u - |v|^{r-1}v).(u-v) dx."""
    return float(np.sum((damping_pointwise(u_phys, r) - damping_pointwise(v_phys, r))
                        * (u_phys - v_phys)) * cell_volume)


# ---------------------------------------------------------------------------
# trilinear form identities


def check_trilinear(sampler: FieldSampler, n_samples: int = 100,
                    tolerance: float = 1e-10) -> CheckReport:
    """b(u,v,v) = 0, b(u,v,w) = -b(u,w,v), <B(u),u> = 0 for solenoidal u."""
    def margin(u, v, s):
        w = sampler.field_from_seed(s + n_samples * 2 + 17)
        scale = (l2_norm(u) * grad_norm(v) * (l2_norm(v) + l2_norm(w)) + TINY)
        worst = max(abs(advection_form(u, v, v)),
                    abs(advection_form(u, v, w) + advection_form(u, w, v)),
                    abs(l2_pairing(advection(u), u)))
        return -worst / scale
    return _sampled("trilinear", sampler, n_samples, margin, tolerance,
                    notes="antisymmetry and energy neutrality of advection")


# ---------------------------------------------------------------------------
# monotonicity of the full operator


def _pair_quantities(u, v, params):
    """Shared quantities for the monotonicity checks."""
    delta = u - v
    gu = cbf_operator(u, params)
    gv = cbf_operator(v, params)
    pairing = l2_pairing(gu - gv, delta)
    scale = (abs(l2_pairing(gu, delta)) + abs(l2_pairing(gv, delta))
             + params.mu * grad_norm(delta) ** 2 + l2_norm(delta) ** 2 + TINY)
    return delta, pairing, scale


def check_monotone_shifted(sampler: FieldSampler, params: CbfParams,
                           n_samples: int = 500,
                           tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Shifted monotonicity for r > 3:

    <G(u)-G(v), u-v> + rho ||u-v||^2 - (mu/2) ||grad(u-v)||^2 >= 0.
    """
    if params.r <= 3.0:
        raise RegimeError("shifted monotonicity requires r > 3")
    rho = monotonicity_shift(params)
    def margin(u, v, s):
        delta, pairing, scale = _pair_quantities(u, v, params)
        m = (pairing + rho * l2_norm(delta) ** 2
             - 0.5 * params.mu * grad_norm(delta) ** 2)
        return m / scale
    return _sampled("monotone_shifted", sampler, n_samples, margin, tolerance,
                    notes=f"rho = {rho:.6g}")


def check_monotone_critical(sampler: FieldSampler, params: CbfParams,
                            n_samples: int = 500,
                            tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Critical-exponent monotonicity (r = 3):

    <G(u)-G(v), u-v> >= (1/2)(beta - 1/(2 mu)) || |v| (u-v) ||^2,
    proven for 2*beta*mu >= 1; exploratory (report-only) otherwise.
    """
    if params.r != 3.0:
        raise RegimeError("critical monotonicity requires r = 3")
    exploratory = not params.critical_regime
    coeff = 0.5 * (params.beta - 1.0 / (2.0 * params.mu))
    cell = sampler.grid.cell_volume
    def margin(u, v, s):
        delta, pairing, scale = _pair_quantities(u, v, params)
        v_mag = to_physical(v).magnitude()
        d_phys = to_physical(delta).data
        lower = coeff * _weighted_l2_sq(v_mag, d_phys, cell, 1.0)
        return (pairing - lower) / scale
    notes = "2*beta*mu < 1: no proven bound, margins reported only" \
        if exploratory else f"lower-bound coefficient {coeff:.6g}"
    return _sampled("monotone_critical", sampler, n_samples, margin, tolerance,
                    exploratory=exploratory, notes=notes)


def check_advection_splitting(sampler: FieldSampler, params: CbfParams,
                              n_samples: int = 500,
                              tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Young-inequality splitting of the advection cross term (r > 3):

    |b(d,d,v)| <= (mu/2)||grad d||^2 + (beta/2)|| |v|^{(r-1)/2} d ||^2
                  + rho ||d||^2   with d = u - v.
    """
    if params.r <= 3.0:
        raise RegimeError("advection splitting bound requires r > 3")
    rho = monotonicity_shift(params)
    cell = sampler.grid.cell_volume
    def margin(u, v, s):
        delta = u - v
        lhs = abs(advection_form(delta, delta, v))
        v_mag = to_physical(v).magnitude()
        d_phys = to_physical(delta).data
        rhs = (0.5 * params.mu * grad_norm(delta) ** 2
               + 0.5 * params.beta
               * _weighted_l2_sq(v_mag, d_phys, cell, 0.5 * (params.r - 1.0))
               + rho * l2_norm(delta) ** 2)
        return (rhs - lhs) / (rhs + lhs + TINY)
    return _sampled("advection_splitting", sampler, n_samples, margin, tolerance)


def check_local_bound_2d(sampler: FieldSampler, mu: float,
                         n_samples: int = 500,
                         tolerance: float = DEFAULT_TOL) -> CheckReport:
    """2D local bound via Ladyzhenskaya's inequality (mean-free fields):

    |b(d,d,v)| <= (mu/2)||grad d||^2 + 27/(16 mu^3) ||v||_{L4}^4 ||d||^2.
    """
    if sampler.grid.dim != 2:
        raise RegimeError("local bound check is 2D only")
    def margin(u, v, s):
        delta = u - v
        lhs = abs(advection_form(delta, delta, v))
        rhs = (0.5 * mu * grad_norm(delta) ** 2
               + 27.0 / (16.0 * mu ** 3) * lp_norm(v, 4) ** 4
               * l2_norm(delta) ** 2)
        return (rhs - lhs) / (rhs + lhs + TINY)
    return _sampled("local_2d", sampler, n_samples, margin, tolerance)


# ---------------------------------------------------------------------------
# damping operator estimates


def check_damping_monotone(sampler: FieldSampler, r: float,
                           n_samples: int = 500,
                           tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Strong monotonicity of the damping nonlinearity:

    <C(u)-C(v), u-v> >= (1/2)|| |u|^{(r-1)/2}(u-v) ||^2
                       + (1/2)|| |v|^{(r-1)/2}(u-v) ||^2  (>= 0).
    """
    cell = sampler.grid.cell_volume
    expo = 0.5 * (r - 1.0)
    def margin(u, v, s):
        u_phys = to_physical(u).data
        v_phys = to_physical(v).data
        d_phys = u_phys - v_phys
        pairing = _damping_pairing(u_phys, v_phys, r, cell)
        rhs = 0.5 * (_weighted_l2_sq(magnitude(u_phys), d_phys, cell, expo)
                     + _weighted_l2_sq(magnitude(v_phys), d_phys, cell, expo))
        scale = abs(pairing) + rhs + TINY
        return min(pairing - rhs, pairing) / scale
    return _sampled("damping_monotone", sampler, n_samples, margin, tolerance)


def check_damping_lipschitz(sampler: FieldSampler, r: float,
                            n_samples: int = 500,
                            tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Local Lipschitz upper bound for the damping pairing:

    <C(u)-C(v), u-v> <= r (||u||_{r+1} + ||v||_{r+1})^{r-1} ||u-v||_{r+1}^2.
    """
    cell = sampler.grid.cell_volume
    def margin(u, v, s):
        u_phys = to_physical(u).data
        v_phys = to_physical(v).data
        pairing = _damping_pairing(u_phys, v_phys, r, cell)
        diff_lp = float(np.sum(magnitude(u_phys - v_phys) ** (r + 1.0))
                        * cell) ** (2.0 / (r + 1.0))
        rhs = r * (lp_norm(u, r + 1.0) + lp_norm(v, r + 1.0)) ** (r - 1.0) * diff_lp
        return (rhs - pairing) / (abs(pairing) + rhs + TINY)
    return _sampled("damping_lipschitz", sampler, n_samples, margin, tolerance)


def check_pointwise_mvt(sampler: FieldSampler, r: float,
                        n_samples: int = 200,
                        tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Pointwise mean-value bound on the damping nonlinearity:

    | |y|^{r-1}y - |z|^{r-1}z | <= r (|y| + |z|)^{r-1} |y - z| at every
    grid point of each sampled pair.
    """
    def margin(u, v, s):
        y = to_physical(u).data
        z = to_physical(v).data
        lhs = magnitude(damping_pointwise(y, r) - damping_pointwise(z, r))
        rhs = r * (magnitude(y) + magnitude(z)) ** (r - 1.0) * magnitude(y - z)
        scale = float(np.max(rhs)) + TINY
        return float(np.min(rhs - lhs)) / scale
    return _sampled("pointwise_mvt", sampler, n_samples, margin, tolerance)


# ---------------------------------------------------------------------------
# dissipation identity and chain


def dissipation_identity_forms(u: SpectralField, r: float):
    """Three quadrature forms of the torus identity for <C(u), A u>.

    Returns (I1, I2, I3, mid) where
      I1  = int (-Lap u) . |u|^{r-1} u
      I2  = mid + 4 (r-1)/(r+1)^2 int |grad |u|^{(r+1)/2}|^2
      I3  = mid + (r-1)/4 int |u|^{r-3} |grad |u|^2|^2
      mid = int |grad u|^2 |u|^{r-1}

    For r >= 3 the composite gradients are assembled by the pointwise chain
    rule from the spectral Jacobian; the composite power itself is not
    band-limited, so differentiating it spectrally would alias.
    """
    grid = u.grid
    cell = grid.cell_volume
    u_phys = to_physical(u).data
    jac = physical_jacobian(u)
    mag = magnitude(u_phys)
    neg_lap = to_physical(laplacian(u) * -1.0).data
    c_phys = damping_pointwise(u_phys, r)
    i1 = float(np.sum(neg_lap * c_phys) * cell)

    grad_sq = np.sum(jac * jac, axis=(0, 1))
    weight = pointwise_power(mag, r - 1.0)
    mid = float(np.sum(weight * grad_sq) * cell)

    # grad(|u|^2) = 2 sum_i u_i grad u_i, exact for band-limited u.
    half_grad_mag2 = np.einsum("i...,ia...->a...", u_phys, jac)
    grad_mag2_sq = 4.0 * np.sum(half_grad_mag2 ** 2, axis=0)

    if r >= 3.0:
        # |grad |u|^{(r+1)/2}|^2 = ((r+1)/2)^2 |u|^{r-3} |u.grad u|^2
        w = pointwise_power(mag, r - 3.0)
        grad_pow_sq = (0.5 * (r + 1.0)) ** 2 * w * np.sum(half_grad_mag2 ** 2, axis=0)
    else:
        from .fields import PhysicalField, to_spectral
        pow_field = to_spectral(PhysicalField(grid, mag ** (0.5 * (r + 1.0))))
        grad_pow = physical_jacobian(pow_field)[0]
        grad_pow_sq = np.sum(grad_pow ** 2, axis=0)
    i2 = mid + 4.0 * (r - 1.0) / (r + 1.0) ** 2 * float(np.sum(grad_pow_sq) * cell)

    if r == 1.0:
        third = 0.0
    else:
        third = float(np.sum(pointwise_power(mag, r - 3.0) * grad_mag2_sq) * cell)
    i3 = mid + 0.25 * (r - 1.0) * third
    return i1, i2, i3, mid


def check_dissipation_identity(sampler: FieldSampler, r: float,
                               n_samples: int = 200,
                               rel_tolerance: float = 1e-6,
                               chain_tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Agreement of the three identity forms and the ordering chain

    0 <= int |grad u|^2 |u|^{r-1} <= <C(u), A u> <= r int |grad u|^2 |u|^{r-1}.

    For odd integer r every integrand is a polynomial of degree r+1 in the
    samples of u and grad u, whose modes lie in the band
    K = min(band_limit, (N-1)//3).  Quadrature on N points is exact when
    (r+1)K < N; otherwise the forms are evaluated on the smallest even
    N' > (r+1)K (modes copied by :func:`embed_modes`), and the tolerances
    are asserted.  For any other r the |u|^{r-1}-type integrands are not
    band-limited, their quadrature aliasing tail dominates the tolerances at
    desk resolutions, and the check runs exploratory: margins are the
    report, nothing fails.
    """
    exact_power = r == round(r) and round(r) % 2 == 1
    grid = sampler.grid
    degree_band = int(r + 1.0) * min(sampler.band_limit, (grid.n_points - 1) // 3)
    fine = None
    if exact_power and degree_band >= grid.n_points:
        fine = TorusGrid(grid.dim, degree_band + 1 + (degree_band + 1) % 2, grid.period)
    def margin(u, s):
        i1, i2, i3, mid = dissipation_identity_forms(
            u if fine is None else embed_modes(u, fine), r)
        scale = max(abs(i1), abs(i2), abs(i3), TINY)
        disagree = max(abs(i1 - i2), abs(i1 - i3), abs(i2 - i3)) / scale
        m_forms = rel_tolerance - disagree
        chain_scale = r * mid + abs(i1) + TINY
        m_chain = (min(mid, i1 - mid, r * mid - i1) / chain_scale
                   + chain_tolerance)
        return min(m_forms, m_chain)
    notes = f"forms within {rel_tolerance:g} rel; chain slack {chain_tolerance:g}*scale"
    if fine is not None:
        notes += f"; forms on N = {fine.n_points} for exact quadrature"
    if not exact_power:
        notes += ("; non-odd-integer r: composite-power quadrature tail "
                  "reported, not asserted (refine N to shrink)")
    return _sampled("dissipation_identity", sampler, n_samples, margin, 0.0,
                    pairs=False, exploratory=not exact_power, notes=notes)


# ---------------------------------------------------------------------------
# interpolation inequality


def check_interpolation(sampler: FieldSampler, s_exp: float, rho_exp: float,
                        t_exp: float, n_samples: int = 500,
                        tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Lebesgue interpolation ||u||_rho <= ||u||_s^theta ||u||_t^{1-theta}."""
    if not (1.0 <= s_exp <= rho_exp <= t_exp) or not math.isfinite(t_exp):
        raise InvalidArgumentsError(
            f"need 1 <= s <= rho <= t < inf, got ({s_exp}, {rho_exp}, {t_exp})")
    if s_exp == t_exp:
        theta = 0.5
    else:
        theta = (1.0 / rho_exp - 1.0 / t_exp) / (1.0 / s_exp - 1.0 / t_exp)
    def margin(u, s):
        lhs = lp_norm(u, rho_exp)
        rhs = lp_norm(u, s_exp) ** theta * lp_norm(u, t_exp) ** (1.0 - theta)
        return (rhs - lhs) / (rhs + TINY)
    return _sampled(f"interpolation_{s_exp:g}_{rho_exp:g}_{t_exp:g}", sampler,
                    n_samples, margin, tolerance, pairs=False,
                    notes=f"theta = {theta:.6g}")


# ---------------------------------------------------------------------------
# advection bounds


def check_advection_bounds(sampler: FieldSampler, r: float,
                           n_samples: int = 500,
                           tolerance: float = 1e-8) -> CheckReport:
    """Holder bounds on the advection operator:

    ||B(u,v)||_{V'} <= ||u||_{r+1} ||v||_{2(r+1)/(r-1)}            (r >= 3)
    |<B(u,u), v>| <= ||u||_{r+1}^{(r+1)/(r-1)} ||u||^{(r-3)/(r-1)}
                      ||grad v||                                    (r > 3)
    |b(u,v,w)| <= ||u||_{r+1} ||v||_{2(r+1)/(r-1)} ||grad w||       (r >= 3)
    """
    if r < 3.0:
        raise RegimeError("advection bounds require r >= 3")
    q = 2.0 * (r + 1.0) / (r - 1.0)
    def margin(u, v, s):
        w = sampler.field_from_seed(s + n_samples * 2 + 31)
        ms = []
        lhs = dual_norm(advection(u, v))
        rhs = lp_norm(u, r + 1.0) * lp_norm(v, q)
        ms.append((rhs * (1.0 + tolerance) - lhs) / (rhs + TINY))
        lhs = abs(advection_form(u, v, w))
        rhs = lp_norm(u, r + 1.0) * lp_norm(v, q) * grad_norm(w)
        ms.append((rhs * (1.0 + tolerance) - lhs) / (rhs + TINY))
        if r > 3.0:
            lhs = abs(advection_form(u, u, v))
            rhs = (lp_norm(u, r + 1.0) ** ((r + 1.0) / (r - 1.0))
                   * l2_norm(u) ** ((r - 3.0) / (r - 1.0)) * grad_norm(v))
            ms.append((rhs * (1.0 + tolerance) - lhs) / (rhs + TINY))
        return min(ms)
    return _sampled("advection_bounds", sampler, n_samples, margin, 0.0,
                    notes=f"relative slack {tolerance:g} folded into margins")


# ---------------------------------------------------------------------------
# spectral filter properties


def check_filter_props(sampler: FieldSampler, n_values,
                       n_samples: int = 50,
                       tolerance: float = 1e-13) -> CheckReport:
    """Exponential-filter laws: non-expansiveness for every n, residual
    monotone decreasing along increasing n, and the band-limit bound
    ||(I - F_n)u|| <= (Lambda/n_max)||u|| for band limit Lambda = max|k|^2."""
    n_values = list(n_values)
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise InvalidArgumentsError("n_values must be strictly increasing")
    grid = sampler.grid
    lam_max = float((2.0 * np.pi / grid.period) ** 2
                    * grid.dim * sampler.band_limit ** 2)
    def margin(u, s):
        norm_u = l2_norm(u)
        residuals = []
        ms = []
        for n in n_values:
            fu = exp_filter(u, n)
            ms.append((norm_u - l2_norm(fu)) / (norm_u + TINY))
            residuals.append(l2_norm(u - fu))
        for a, b in zip(residuals, residuals[1:]):
            ms.append((a - b) / (norm_u + TINY))
        bound = lam_max / n_values[-1] * norm_u
        ms.append((bound - residuals[-1]) / (bound + TINY))
        return min(ms)
    return _sampled("filter", sampler, n_samples, margin, tolerance, pairs=False,
                    notes=f"n values {n_values}, band eigenvalue {lam_max:g}")


# ---------------------------------------------------------------------------
# demicontinuity consequence


def check_operator_continuity(sampler: FieldSampler, params: CbfParams,
                              n_samples: int = 20,
                              eps_values=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                              tolerance: float = 0.0) -> CheckReport:
    """First-order continuity of G under field perturbation:

    ||G(u + eps w) - G(u)|| shrinks to zero linearly in eps along random
    directions w (difference-to-eps ratio stays within 3x of its large-eps
    value and the difference itself decreases monotonically).
    """
    def margin(u, w, s):
        gu = cbf_operator(u, params)
        diffs = [l2_norm(cbf_operator(u + eps * w, params) - gu)
                 for eps in eps_values]
        ratios = [d / eps for d, eps in zip(diffs, eps_values)]
        ms = [(a - b) / (diffs[0] + TINY) for a, b in zip(diffs, diffs[1:])]
        ms.append((3.0 * ratios[0] - max(ratios)) / (ratios[0] + TINY))
        return min(ms)
    return _sampled("operator_continuity", sampler, n_samples, margin, tolerance,
                    notes=f"eps ladder {list(eps_values)}")


# ---------------------------------------------------------------------------
# Gronwall envelopes


def _cumulative_trapezoid(values, t_grid):
    values = np.asarray(values, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(t_grid))
    return out


def _validate_gronwall_inputs(t_grid, *sample_arrays):
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise InvalidArgumentsError("t_grid must be strictly increasing")
    outs = []
    for arr in sample_arrays:
        arr = np.broadcast_to(np.asarray(arr, dtype=float), t_grid.shape).copy()
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise InvalidArgumentsError("integrands must be non-negative and finite")
        outs.append(arr)
    return (t_grid, *outs)


def gronwall_envelope(a: float, f1_samples, f2_samples, t_grid) -> np.ndarray:
    """Integral-inequality envelope (a + int f1) * exp(int f2) on t_grid."""
    if a < 0:
        raise InvalidArgumentsError("constant a must be non-negative")
    t_grid, f1, f2 = _validate_gronwall_inputs(t_grid, f1_samples, f2_samples)
    return (a + _cumulative_trapezoid(f1, t_grid)) * np.exp(
        _cumulative_trapezoid(f2, t_grid))


def nonlinear_gronwall_envelope(c: float, a_samples, b_samples,
                                alpha_exp: float, t_grid) -> np.ndarray:
    """Envelope of y <= c + int (a y + b y^alpha), alpha in [0, 1):

    { c^{1-alpha} e^{(1-alpha) int a}
      + (1-alpha) int b(s) e^{(1-alpha) int_s^t a} ds }^{1/(1-alpha)}.
    """
    if not (0.0 <= alpha_exp < 1.0):
        raise InvalidArgumentsError(f"alpha must be in [0, 1), got {alpha_exp}")
    if c < 0:
        raise InvalidArgumentsError("constant c must be non-negative")
    t_grid, a, b = _validate_gronwall_inputs(t_grid, a_samples, b_samples)
    one = 1.0 - alpha_exp
    big_a = _cumulative_trapezoid(a, t_grid)
    damped = b * np.exp(-one * big_a)
    inner = _cumulative_trapezoid(damped, t_grid)
    core = c ** one * np.exp(one * big_a) + one * np.exp(one * big_a) * inner
    return core ** (1.0 / one)


def check_gronwall(t_end: float = 1.0, n_points: int = 2001,
                   tolerance: float = 1e-8) -> CheckReport:
    """Envelope domination over synthetic ODE trajectories.

    Linear: y' = f2 y + f1 (constant rates) against the linear envelope.
    Nonlinear: y' = a y + b y^alpha, alpha = 1/2, whose Bernoulli solution
    saturates the nonlinear envelope up to quadrature error.  Constant
    coefficients keep the trapezoidal quadrature one-sided (convex
    integrands), so margins measure lemma slack, not quadrature noise.
    """
    t = np.linspace(0.0, t_end, n_points)
    margins = []

    a0, f1, f2 = 0.7, 0.8, 1.3
    y = _rk4_scalar(lambda tt, yy: f2 * yy + f1, a0, t)
    env = gronwall_envelope(a0, np.full_like(t, f1), np.full_like(t, f2), t)
    margins.append(float(np.min((env * (1.0 + tolerance) - y) / env)))

    c, a_rate, b_rate, alpha = 0.5, 0.9, 0.6, 0.5
    y = _rk4_scalar(lambda tt, yy: a_rate * yy + b_rate * max(yy, 0.0) ** alpha,
                    c, t)
    env = nonlinear_gronwall_envelope(c, np.full_like(t, a_rate),
                                      np.full_like(t, b_rate), alpha, t)
    margins.append(float(np.min((env * (1.0 + tolerance) - y) / env)))

    # alpha = 0 degeneracy against the linear lemma with f1 = b, a == 0.
    b_var = 0.4 + 0.3 * np.sin(2.0 * np.pi * t / t_end) ** 2
    env_nl = nonlinear_gronwall_envelope(c, np.zeros_like(t), b_var, 0.0, t)
    env_lin = gronwall_envelope(c, b_var, np.zeros_like(t), t)
    mismatch = float(np.max(np.abs(env_nl - env_lin) / env_lin))
    margins.append(1e-10 - mismatch)

    return _report("gronwall", margins, [0, 1, 2], tolerance=0.0,
                   notes="linear / nonlinear domination, alpha=0 degeneracy")


def _rk4_scalar(f, y0, t_grid):
    y = np.empty_like(t_grid)
    y[0] = y0
    for i in range(len(t_grid) - 1):
        h = t_grid[i + 1] - t_grid[i]
        ti, yi = t_grid[i], y[i]
        k1 = f(ti, yi)
        k2 = f(ti + 0.5 * h, yi + 0.5 * h * k1)
        k3 = f(ti + 0.5 * h, yi + 0.5 * h * k2)
        k4 = f(ti + h, yi + h * k3)
        y[i + 1] = yi + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


# ---------------------------------------------------------------------------
# trajectory checks


def check_continuous_dependence(params: CbfParams, config: SolverConfig,
                                ic: SpectralField, perturbation: SpectralField,
                                forcing: Forcing = None,
                                slack: float = 1e-6) -> CheckReport:
    """Two trajectories from ic and ic + perturbation:

    r > 3:  ||u1(t) - u2(t)||^2 <= ||d0||^2 e^{2 rho t} at every sample;
    r = 3 with 2*beta*mu >= 1: the distance is non-increasing (flat envelope).
    """
    if params.r > 3.0:
        rho = monotonicity_shift(params)
    elif params.critical_regime:
        rho = 0.0
    else:
        raise RegimeError("continuous dependence is proven for r > 3, or "
                          "r = 3 with 2*beta*mu >= 1")
    forcing = forcing if forcing is not None else Forcing.zero()
    s1 = initialize_state(ic, params, config, forcing)
    s2 = initialize_state(ic + perturbation, params, config, forcing)
    d0_sq = l2_norm(s2.u - s1.u) ** 2
    if d0_sq == 0.0:
        return CheckReport("continuous_dependence", 1, 0.0, 0, True,
                           tolerance=0.0, notes="zero perturbation")
    n_steps = int(round(config.t_end / config.dt))
    margins = [slack]
    prev_sq = d0_sq
    for m in range(1, n_steps + 1):
        s1 = step(s1, params, config, forcing)
        s2 = step(s2, params, config, forcing)
        if m % config.diagnostics_every == 0 or m == n_steps:
            d_sq = l2_norm(s2.u - s1.u) ** 2
            env = d0_sq * np.exp(2.0 * rho * s1.t)
            margins.append((env * (1.0 + slack) - d_sq) / env)
            if rho == 0.0:
                margins.append((prev_sq * (1.0 + slack) - d_sq) / d0_sq)
            prev_sq = d_sq
    seeds = list(range(len(margins)))
    notes = (f"rho = {rho:.6g}, envelope slack {slack:g}"
             + ("" if rho > 0 else "; monotone non-increase asserted"))
    return _report("continuous_dependence", margins, seeds, tolerance=0.0,
                   notes=notes)


def _forcing_integrals(forcing: Forcing, times, norm_fn):
    vals = np.zeros(len(times))
    if forcing is not None and not forcing.is_zero:
        vals = np.array([norm_fn(forcing.at(t)) ** 2 for t in times])
    return _cumulative_trapezoid(vals, np.asarray(times))


def check_apriori(diagnostics, params: CbfParams, forcing: Forcing = None,
                  slack: float = 1e-6) -> CheckReport:
    """Energy estimate along a trajectory, pointwise in time:

    ||u(t)||^2 + mu int_0^t ||grad u||^2 + 2 beta int_0^t ||u||_{r+1}^{r+1}
        <= ||u0||^2 + (1/mu) int_0^t ||f||_{V'}^2.
    """
    times = [d.t for d in diagnostics]
    if times[0] != 0.0:
        raise InvalidArgumentsError("diagnostics must start at t = 0")
    f_int = _forcing_integrals(forcing, times, dual_norm)
    e0 = diagnostics[0].energy
    margins = []
    for d, fi in zip(diagnostics, f_int):
        lhs = (d.energy + params.mu * d.int_dissipation
               + 2.0 * params.beta * d.int_damping)
        rhs = e0 + fi / params.mu
        margins.append((rhs * (1.0 + slack) - lhs) / (rhs + TINY))
    return _report("apriori", margins, list(range(len(margins))),
                   tolerance=0.0, notes=f"relative slack {slack:g}")


def resolve_theta(params: CbfParams, theta: float = None) -> float:
    """Splitting weight for the critical-exponent gradient bound.

    Needs 1/(2 mu) <= theta <= beta, so the regime requirement is
    2*beta*mu >= 1; default sits just above the lower end.
    """
    lo = 1.0 / (2.0 * params.mu)
    if params.beta < lo:
        raise RegimeError("gradient bound at r = 3 requires 2*beta*mu >= 1")
    if theta is None:
        theta = min(lo + 1e-6, params.beta)
    if not (lo <= theta <= params.beta):
        raise InvalidArgumentsError(
            f"theta must lie in [{lo:g}, {params.beta:g}], got {theta}")
    return theta


def check_regularity(diagnostics, params: CbfParams, forcing: Forcing = None,
                     theta: float = None, slack: float = 1e-6) -> CheckReport:
    """Gradient-norm a-priori bound along a trajectory (extended diagnostics).

    r > 3:
      ||grad u(t)||^2 + mu int ||A u||^2 + beta int || |u|^{(r-1)/2} grad u ||^2
        <= { ||grad u0||^2 + (2/mu) int ||f||^2 } e^{rho* t}.
    r = 3 with 2*beta*mu >= 1 (no exponential):
      ||grad u(t)||^2 + (mu - 1/(2 theta)) int ||A u||^2
        + (beta - theta) int || |u| grad u ||^2
        <= ||grad u0||^2 + (2/mu) int ||f||^2.
    """
    if diagnostics[0].int_a_norm_sq is None:
        raise ConfigError("regularity check needs extended diagnostics")
    times = [d.t for d in diagnostics]
    f_int = _forcing_integrals(forcing, times, l2_norm)
    g0 = diagnostics[0].v_seminorm_sq
    if params.r > 3.0:
        rate = regularity_rate(params)
        coeff_a, coeff_w = params.mu, params.beta
    elif params.r == 3.0:
        theta = resolve_theta(params, theta)
        rate = 0.0
        coeff_a = params.mu - 1.0 / (2.0 * theta)
        coeff_w = params.beta - theta
    else:
        raise RegimeError("gradient bound needs r > 3, or r = 3 with "
                          "2*beta*mu >= 1")
    margins = []
    for d, fi in zip(diagnostics, f_int):
        lhs = (d.v_seminorm_sq + coeff_a * d.int_a_norm_sq
               + coeff_w * d.int_weighted_grad_sq)
        base = g0 + 2.0 / params.mu * fi
        # rate*t can overflow exp; the margin only needs lhs/envelope, and
        # exp(-rate*t) underflowing to zero is the correct limit.
        ratio = lhs / (base + TINY) * np.exp(-min(rate * d.t, 700.0))
        margins.append(1.0 + slack - ratio)
    notes = (f"rate = {rate:.6g}" if params.r > 3.0
             else f"theta = {theta:.6g}")
    return _report("regularity", margins, list(range(len(margins))),
                   tolerance=0.0, notes=notes + f", relative slack {slack:g}")
