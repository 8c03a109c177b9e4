"""Executable certification of the operator inequalities and stability bounds.

Each check draws seeded random divergence-free fields, evaluates one
inequality or identity of the damped Navier-Stokes operator algebra, and
aggregates the worst slack into a :class:`CheckReport`.  Margins are
normalized by an explicit scale (a sum of the magnitudes entering the
expression) so tolerances are dimensionless; ``passed`` is derived, never
stored: exactly ``worst_margin >= -tolerance``.  Checks whose parameter
regime carries no proven statement run in exploratory mode: margins are
reported, nothing is asserted.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentsError, RegimeError
from .families import check_seed, random_band_limited
from .fields import (PhysicalField, SpectralField, band_box, magnitude,
                     squared_magnitude)
from .grid import TorusGrid
from .operators import (CbfParams, advection, advection_form, cbf_operator,
                        finite_constant, grid_samples, monotonicity_shift,
                        pointwise_power, pointwise_samples, regularity_rate)
from .solver import (Forcing, SolverConfig, initialize_state, step)
from .spectral import (dual_norm, embed_modes, exp_filter, grad_norm, jacobian,
                       l2_norm, l2_pairing, lp_norm)

DEFAULT_TOL = 1e-9
TINY = 1e-300
SLACK = 1e-6  # relative slack of the trajectory checks' bounds


@dataclass
class CheckReport:
    """Outcome of one verification check."""

    name: str
    samples: int
    worst_margin: float
    worst_case_seed: int
    tolerance: float = DEFAULT_TOL
    exploratory: bool = False
    notes: str = ""

    @property
    def passed(self):
        """Exploratory, or the worst margin within the tolerance."""
        return bool(self.exploratory or self.worst_margin >= -self.tolerance)

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
        worst_case_seed=int(seeds[worst]), tolerance=tolerance,
        exploratory=exploratory, notes=notes)


def _sampled(name, sampler, n_samples, margin, tolerance, pairs=True, **report):
    """Report the worst of ``margin`` over samples i = 0..n_samples-1.

    Sample i is ``sampler.pair(i)``, passed as ``margin(u, v, s)``, or with
    ``pairs=False`` ``sampler.single(i)``, passed as ``margin(u, s)``.  One
    sample is drawn at a time; ``report`` goes on to :func:`_report`.  A
    sample that overflows is an :class:`InvalidArgumentsError` of [verify].
    """
    margins, seeds = [], []
    for i in range(n_samples):
        try:
            with np.errstate(over="raise", invalid="raise"):
                *fields, s = sampler.pair(i) if pairs else sampler.single(i)
                margins.append(margin(*fields, s))
        except FloatingPointError:
            raise InvalidArgumentsError(f"[verify] amplitude {sampler.amplitude:g}"
                                        f" overflows check {name}") from None
        seeds.append(s)
    return _report(name, margins, seeds, tolerance, **report)


@dataclass(frozen=True)
class FieldSampler:
    """Deterministic generator of divergence-free band-limited test fields.

    ``field_from_seed(s)`` is a pure function of ``s``; sample i of a check
    uses seeds ``seed + 2i`` and ``seed + 2i + 1`` (``pair``), or ``seed + i``
    (``single``), so the reported worst_case_seed reproduces the failing
    sample standalone.  A third field of a sample comes from a child stream
    of its seed, ``field_from_seed(s, stream)``.
    """

    grid: TorusGrid
    seed: int = 0
    band_limit: int = 8
    spectrum_slope: float = 2.0
    amplitude: float = 1.0

    def field_from_seed(self, s: int, stream: int = None) -> SpectralField:
        """Field of seed ``s``, or of child ``stream`` of seed ``s``, which
        no integer seed reaches (its spawn key is not empty)."""
        seed = s if stream is None else np.random.SeedSequence(
            check_seed(s), spawn_key=(stream,))
        return random_band_limited(self.grid, seed=seed, band_limit=self.band_limit,
                                   spectrum_slope=self.spectrum_slope,
                                   amplitude=self.amplitude)

    def single(self, i: int):
        s = self.seed + i
        return self.field_from_seed(s), s

    def pair(self, i: int):
        s = self.seed + 2 * i
        return self.field_from_seed(s), self.field_from_seed(s + 1), s


def _samples(u: SpectralField, r: float = 1.0):
    """:class:`~cbftorus.operators.Samples` of u, weight |u|^{r-1}: the
    solver's builder on the box that covers the half (r = 1: weight 1)."""
    return grid_samples(u.coeffs, band_box(u.grid, False), r)[0]


def _damping_pairing(su, sv, grid):
    """<C(u)-C(v), u-v> = int (|u|^{r-1}u - |v|^{r-1}v).(u-v) dx from the
    samples of u and v."""
    return grid.integral((su.weight * su.phys - sv.weight * sv.phys)
                         * (su.phys - sv.phys))


# ---------------------------------------------------------------------------
# trilinear form identities


def check_trilinear(sampler: FieldSampler, n_samples: int) -> CheckReport:
    """b(u,v,v) = 0, b(u,v,w) = -b(u,w,v), <B(u),u> = 0 for solenoidal u."""
    def margin(u, v, s):
        w = sampler.field_from_seed(s, stream=17)
        scale = (l2_norm(u) * grad_norm(v) * (l2_norm(v) + l2_norm(w)) + TINY)
        worst = max(abs(advection_form(u, v, v)),
                    abs(advection_form(u, v, w) + advection_form(u, w, v)),
                    abs(l2_pairing(advection(u), u)))
        return -worst / scale
    return _sampled("trilinear", sampler, n_samples, margin, 1e-10,
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
                           n_samples: int,
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
                            n_samples: int,
                            tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Critical-exponent monotonicity (r = 3):

    <G(u)-G(v), u-v> >= (1/2)(beta - 1/(2 mu)) || |v| (u-v) ||^2,
    proven for 2*beta*mu >= 1; exploratory (report-only) otherwise.
    """
    if params.r != 3.0:
        raise RegimeError("critical monotonicity requires r = 3")
    exploratory = not params.critical_regime
    coeff = 0.5 * (params.beta - 1.0 / (2.0 * params.mu))
    def margin(u, v, s):
        delta, pairing, scale = _pair_quantities(u, v, params)
        lower = coeff * u.grid.integral(_samples(v).sq * _samples(delta).sq)
        return (pairing - lower) / scale
    notes = "2*beta*mu < 1: no proven bound, margins reported only" \
        if exploratory else f"lower-bound coefficient {coeff:.6g}"
    return _sampled("monotone_critical", sampler, n_samples, margin, tolerance,
                    exploratory=exploratory, notes=notes)


def check_advection_splitting(sampler: FieldSampler, params: CbfParams,
                              n_samples: int,
                              tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Young-inequality splitting of the advection cross term (r > 3):

    |b(d,d,v)| <= (mu/2)||grad d||^2 + (beta/2)|| |v|^{(r-1)/2} d ||^2
                  + rho ||d||^2   with d = u - v.
    """
    if params.r <= 3.0:
        raise RegimeError("advection splitting bound requires r > 3")
    rho = monotonicity_shift(params)
    def margin(u, v, s):
        delta = u - v
        lhs = abs(advection_form(delta, delta, v))
        weighted = u.grid.integral(_samples(v, params.r).weight * _samples(delta).sq)
        rhs = (0.5 * params.mu * grad_norm(delta) ** 2
               + 0.5 * params.beta * weighted + rho * l2_norm(delta) ** 2)
        return (rhs - lhs) / (rhs + lhs + TINY)
    return _sampled("advection_splitting", sampler, n_samples, margin, tolerance)


def check_local_bound_2d(sampler: FieldSampler, mu: float,
                         n_samples: int,
                         tolerance: float = DEFAULT_TOL) -> CheckReport:
    """2D local bound via Ladyzhenskaya's inequality (mean-free fields):

    |b(d,d,v)| <= (mu/2)||grad d||^2 + 27/(16 mu^3) ||v||_{L4}^4 ||d||^2.
    """
    if sampler.grid.dim != 2:
        raise RegimeError("local bound check is 2D only")
    coeff = finite_constant("local bound constant 27/(16 mu^3)",
                            lambda: 27.0 / (16.0 * mu ** 3), mu=mu)
    def margin(u, v, s):
        delta = u - v
        lhs = abs(advection_form(delta, delta, v))
        rhs = (0.5 * mu * grad_norm(delta) ** 2
               + coeff * lp_norm(v, 4) ** 4 * l2_norm(delta) ** 2)
        return (rhs - lhs) / (rhs + lhs + TINY)
    return _sampled("local_2d", sampler, n_samples, margin, tolerance)


# ---------------------------------------------------------------------------
# damping operator estimates


def _rescaled(samples, s, r):
    """:class:`~cbftorus.operators.Samples` of u/s, weight |u/s|^{r-1},
    from the ``samples`` of u; ``s`` a positive number or array of them."""
    return pointwise_samples(samples.phys / s, r)


def check_damping_monotone(sampler: FieldSampler, r: float,
                           n_samples: int,
                           tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Strong monotonicity of the damping nonlinearity:

    <C(u)-C(v), u-v> >= (1/2)|| |u|^{(r-1)/2}(u-v) ||^2
                       + (1/2)|| |v|^{(r-1)/2}(u-v) ||^2  (>= 0).

    Every term has degree r + 1 in (u, v), so the margin is evaluated on
    u/s and v/s, s the pair's peak |u|, where the terms cannot underflow.
    """
    def margin(u, v, s):
        su, sv = _samples(u), _samples(v)
        peak = float(np.sqrt(max(np.max(su.sq), np.max(sv.sq)))) or 1.0
        su, sv = _rescaled(su, peak, r), _rescaled(sv, peak, r)
        d_sq = squared_magnitude(su.phys - sv.phys)
        pairing = _damping_pairing(su, sv, u.grid)
        rhs = 0.5 * (u.grid.integral(su.weight * d_sq)
                     + u.grid.integral(sv.weight * d_sq))
        scale = abs(pairing) + rhs + TINY
        return min(pairing - rhs, pairing) / scale
    return _sampled("damping_monotone", sampler, n_samples, margin, tolerance)


def check_damping_lipschitz(sampler: FieldSampler, r: float,
                            n_samples: int,
                            tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Local Lipschitz upper bound for the damping pairing:

    <C(u)-C(v), u-v> <= r (||u||_{r+1} + ||v||_{r+1})^{r-1} ||u-v||_{r+1}^2.

    Both sides have degree r + 1 in (u, v), so the margin is evaluated on
    u/s and v/s, s = ||u||_{r+1} + ||v||_{r+1}, where the bound is
    r ||u/s - v/s||_{r+1}^2 and cannot overflow; the L^{r+1} norms are
    summed relative to their peaks.
    """
    def lr1_norm(phys):
        return lp_norm(PhysicalField(sampler.grid, phys), r + 1.0)

    def margin(u, v, s):
        su, sv = _samples(u), _samples(v)
        scale = (lr1_norm(su.phys) + lr1_norm(sv.phys)) or 1.0
        su, sv = _rescaled(su, scale, r), _rescaled(sv, scale, r)
        pairing = _damping_pairing(su, sv, u.grid)
        rhs = r * lr1_norm(su.phys - sv.phys) ** 2
        return (rhs - pairing) / (abs(pairing) + rhs + TINY)
    return _sampled("damping_lipschitz", sampler, n_samples, margin, tolerance)


def check_pointwise_mvt(sampler: FieldSampler, r: float,
                        n_samples: int,
                        tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Pointwise mean-value bound on the damping nonlinearity:

    | |y|^{r-1}y - |z|^{r-1}z | <= r (|y| + |z|)^{r-1} |y - z| at every
    grid point of each sampled pair.

    Both sides have degree r in (y, z), so each point's margin, its slack
    relative to its bound, is evaluated on y/t and z/t with t = |y| + |z|
    there, where the bound is r |y/t - z/t| and neither side underflows or
    overflows.
    """
    def margin(u, v, s):
        y, z = _samples(u), _samples(v)
        t = np.sqrt(y.sq) + np.sqrt(z.sq)
        t[t == 0.0] = 1.0  # y = z = 0: both sides are 0
        y, z = _rescaled(y, t, r), _rescaled(z, t, r)
        lhs = magnitude(y.weight * y.phys - z.weight * z.phys)
        rhs = r * magnitude(y.phys - z.phys)
        return float(np.min((rhs - lhs) / (rhs + TINY)))
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
    band-limited, so differentiating it spectrally would alias.  A constant
    (r+1)^2 that overflows a float is a :class:`RegimeError`.
    """
    r1_sq = finite_constant("identity constant (r+1)^2", lambda: (r + 1.0) ** 2, r=r)
    box = band_box(u.grid, False)
    s, jac = grid_samples(u.coeffs, box, r, True)
    neg_lap = box.inverse(box.k_squared * u.coeffs)
    i1 = u.grid.integral(neg_lap * (s.weight * s.phys))
    mid = u.grid.integral(s.weight * np.sum(jac * jac, axis=(0, 1)))

    # grad(|u|^2) = 2 sum_i u_i grad u_i, exact for band-limited u.
    half_grad_sq = np.sum(np.einsum("i...,ia...->a...", s.phys, jac) ** 2, axis=0)
    w = pointwise_power(s.sq, 0.5 * (r - 3.0))  # |u|^{r-3}

    if r >= 3.0:
        # |grad |u|^{(r+1)/2}|^2 = ((r+1)/2)^2 |u|^{r-3} |u.grad u|^2
        grad_pow_sq = 0.25 * r1_sq * w * half_grad_sq
    else:
        pow_coeffs = box.forward(s.sq[np.newaxis] ** (0.25 * (r + 1.0)))
        grad_pow_sq = squared_magnitude(box.inverse(jacobian(pow_coeffs, box))[0])
    i2 = mid + 4.0 * (r - 1.0) / r1_sq * u.grid.integral(grad_pow_sq)

    third = 0.0 if r == 1.0 else u.grid.integral(4.0 * w * half_grad_sq)
    i3 = mid + 0.25 * (r - 1.0) * third
    return i1, i2, i3, mid


def check_dissipation_identity(sampler: FieldSampler, r: float,
                               n_samples: int) -> CheckReport:
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
    rel_tolerance, chain_tolerance = 1e-6, DEFAULT_TOL
    exact_power = r == round(r) and round(r) % 2 == 1
    grid = sampler.grid
    degree_band = int(r + 1.0) * min(sampler.band_limit, band_box(grid).radius)
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


def interpolation_theta(s_exp: float, rho_exp: float, t_exp: float) -> float:
    """theta of ||u||_rho <= ||u||_s^theta ||u||_t^{1-theta}, which needs
    1 <= s <= rho <= t < inf."""
    if not (1.0 <= s_exp <= rho_exp <= t_exp) or not math.isfinite(t_exp):
        raise InvalidArgumentsError(
            "interpolation exponents need 1 <= s <= rho <= t < inf, got "
            f"({s_exp}, {rho_exp}, {t_exp})")
    if s_exp == t_exp:
        return 0.5
    return (1.0 / rho_exp - 1.0 / t_exp) / (1.0 / s_exp - 1.0 / t_exp)


def check_interpolation(sampler: FieldSampler, s_exp: float, rho_exp: float,
                        t_exp: float, n_samples: int,
                        tolerance: float = DEFAULT_TOL) -> CheckReport:
    """Lebesgue interpolation ||u||_rho <= ||u||_s^theta ||u||_t^{1-theta}."""
    theta = interpolation_theta(s_exp, rho_exp, t_exp)
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
                           n_samples: int) -> CheckReport:
    """Holder bounds on the advection operator:

    ||B(u,v)||_{V'} <= ||u||_{r+1} ||v||_{2(r+1)/(r-1)}            (r >= 3)
    |<B(u,u), v>| <= ||u||_{r+1}^{(r+1)/(r-1)} ||u||^{(r-3)/(r-1)}
                      ||grad v||                                    (r > 3)
    |b(u,v,w)| <= ||u||_{r+1} ||v||_{2(r+1)/(r-1)} ||grad w||       (r >= 3)
    """
    if r < 3.0:
        raise RegimeError("advection bounds require r >= 3")
    tolerance = 1e-8
    q = 2.0 * (r + 1.0) / (r - 1.0)
    def margin(u, v, s):
        w = sampler.field_from_seed(s, stream=31)
        u_r1, v_q = lp_norm(u, r + 1.0), lp_norm(v, q)
        bounds = [(dual_norm(advection(u, v)), u_r1 * v_q),
                  (abs(advection_form(u, v, w)), u_r1 * v_q * grad_norm(w))]
        if r > 3.0:
            bounds.append((abs(advection_form(u, u, v)),
                           u_r1 ** ((r + 1.0) / (r - 1.0))
                           * l2_norm(u) ** ((r - 3.0) / (r - 1.0)) * grad_norm(v)))
        return min((rhs * (1.0 + tolerance) - lhs) / (rhs + TINY)
                   for lhs, rhs in bounds)
    return _sampled("advection_bounds", sampler, n_samples, margin, 0.0,
                    notes=f"relative slack {tolerance:g} folded into margins")


# ---------------------------------------------------------------------------
# spectral filter properties


def check_filter_props(sampler: FieldSampler, n_samples: int) -> CheckReport:
    """Exponential-filter laws: non-expansiveness for every n, residual
    monotone decreasing along increasing n, and the band-limit bound
    ||(I - F_n)u|| <= (Lambda/n_max)||u|| for band limit Lambda = max|k|^2."""
    n_values = [1, 10, 100, 1000, 10000]
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
    return _sampled("filter", sampler, n_samples, margin, 1e-13, pairs=False,
                    notes=f"n values {n_values}, band eigenvalue {lam_max:g}")


# ---------------------------------------------------------------------------
# demicontinuity consequence


def check_operator_continuity(sampler: FieldSampler, params: CbfParams,
                              n_samples: int) -> CheckReport:
    """First-order continuity of G under field perturbation:

    ||G(u + eps w) - G(u)|| shrinks to zero linearly in eps along random
    directions w (difference-to-eps ratio stays within 3x of its large-eps
    value and the difference itself decreases monotonically).
    """
    eps_values = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    def margin(u, w, s):
        gu = cbf_operator(u, params)
        diffs = [l2_norm(cbf_operator(u + eps * w, params) - gu)
                 for eps in eps_values]
        ratios = [d / eps for d, eps in zip(diffs, eps_values)]
        ms = [(a - b) / (diffs[0] + TINY) for a, b in zip(diffs, diffs[1:])]
        ms.append((3.0 * ratios[0] - max(ratios)) / (ratios[0] + TINY))
        return min(ms)
    return _sampled("operator_continuity", sampler, n_samples, margin, 0.0,
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


def check_gronwall() -> CheckReport:
    """Envelope domination over exact ODE solutions.

    Linear: y' = f2 y + f1 (constant rates) against the linear envelope.
    Nonlinear: y' = a y + b y^alpha, alpha = 1/2, whose Bernoulli solution
    saturates the nonlinear envelope up to quadrature error.  Constant
    coefficients keep the trapezoidal quadrature one-sided (convex
    integrands), so margins measure lemma slack, not quadrature noise.
    """
    tolerance = 1e-8
    t = np.linspace(0.0, 1.0, 2001)
    margins = []

    a0, f1, f2 = 0.7, 0.8, 1.3
    y = (a0 + f1 / f2) * np.exp(f2 * t) - f1 / f2
    env = gronwall_envelope(a0, np.full_like(t, f1), np.full_like(t, f2), t)
    margins.append(float(np.min((env * (1.0 + tolerance) - y) / env)))

    # (sqrt y)' = (a sqrt y + b) / 2 is linear in sqrt y.
    c, a_rate, b_rate, alpha = 0.5, 0.9, 0.6, 0.5
    y = ((np.sqrt(c) + b_rate / a_rate) * np.exp(0.5 * a_rate * t)
         - b_rate / a_rate) ** 2
    env = nonlinear_gronwall_envelope(c, np.full_like(t, a_rate),
                                      np.full_like(t, b_rate), alpha, t)
    margins.append(float(np.min((env * (1.0 + tolerance) - y) / env)))

    # alpha = 0 degeneracy against the linear lemma with f1 = b, a == 0.
    b_var = 0.4 + 0.3 * np.sin(2.0 * np.pi * t) ** 2
    env_nl = nonlinear_gronwall_envelope(c, np.zeros_like(t), b_var, 0.0, t)
    env_lin = gronwall_envelope(c, b_var, np.zeros_like(t), t)
    mismatch = float(np.max(np.abs(env_nl - env_lin) / env_lin))
    margins.append(1e-10 - mismatch)

    return _report("gronwall", margins, [0, 1, 2], tolerance=0.0,
                   notes="linear / nonlinear domination, alpha=0 degeneracy")


# ---------------------------------------------------------------------------
# trajectory checks


def _trajectory_report(name, margins, notes):
    """Report of the worst margin over the diagnostics rows after t = 0,
    its seed the row index.  At t = 0 each bound is an equality by
    construction, its margin the slack alone; a run with no step keeps
    that row."""
    first = min(1, len(margins) - 1)
    return _report(name, margins[first:], range(first, len(margins)),
                   tolerance=0.0, notes=notes)


def _envelope_margin(ratio, rate, t):
    """Margin of ``ratio``, a quantity over its bound at t = 0, under the
    envelope ``e^{rate t}``: ``1 + SLACK - ratio e^{-rate t}``.  The envelope
    itself can overflow, so the exponent is capped at 700, where
    ``e^{-rate t}`` is already near its limit of zero."""
    return 1.0 + SLACK - ratio * np.exp(-min(rate * t, 700.0))


def check_continuous_dependence(params: CbfParams, config: SolverConfig,
                                ic: SpectralField, perturbation: SpectralField,
                                forcing: Forcing = None) -> CheckReport:
    """Two trajectories from ic and ic + perturbation:

    r > 3:  ||u1(t) - u2(t)||^2 <= ||d0||^2 e^{2 rho t} at every sample;
    r = 3 with 2*beta*mu >= 1: the distance is non-increasing (flat envelope).
    """
    rho = monotonicity_shift(params)
    s1 = initialize_state(ic, params, config, forcing)
    try:
        with np.errstate(over="raise", invalid="raise"):
            s2 = initialize_state(ic + perturbation, params, config, forcing)
            d0_sq = l2_norm(s2.u - s1.u) ** 2
    except FloatingPointError:
        raise InvalidArgumentsError("[verify] perturbation overflows check "
                                    "continuous_dependence at t = 0") from None
    if d0_sq == 0.0:
        return CheckReport("continuous_dependence", 1, 0.0, 0, tolerance=0.0,
                           notes="zero perturbation")
    n_steps = int(round(config.t_end / config.dt))
    margins = [SLACK]
    prev_sq = d0_sq
    for m in range(1, n_steps + 1):
        s1 = step(s1)
        s2 = step(s2)
        if m % config.diagnostics_every == 0 or m == n_steps:
            d_sq = l2_norm(s2.u - s1.u) ** 2
            margin = _envelope_margin(d_sq / d0_sq, 2.0 * rho, s1.t)
            if rho == 0.0:
                margin = min(margin, (prev_sq * (1.0 + SLACK) - d_sq) / d0_sq)
            margins.append(margin)
            prev_sq = d_sq
    notes = (f"rho = {rho:.6g}, envelope slack {SLACK:g}"
             + ("" if rho > 0 else "; monotone non-increase asserted"))
    return _trajectory_report("continuous_dependence", margins, notes)


def _forcing_integrals(diagnostics, forcing: Forcing, norm_fn):
    """int_0^t norm_fn(f)^2 at the times of ``diagnostics``, whose first row
    must be the initial value, at t = 0: the bounds along a trajectory
    compare every row with it."""
    times = [d.t for d in diagnostics]
    if not times or times[0] != 0.0:
        raise InvalidArgumentsError("diagnostics must start at t = 0")
    vals = np.zeros(len(times))
    if forcing is not None and not forcing.is_zero:
        vals = np.array([norm_fn(forcing.at(t)) ** 2 for t in times])
    return _cumulative_trapezoid(vals, np.asarray(times))


def check_apriori(diagnostics, params: CbfParams,
                  forcing: Forcing = None) -> CheckReport:
    """Energy estimate along a trajectory, pointwise in time:

    ||u(t)||^2 + mu int_0^t ||grad u||^2 + 2 beta int_0^t ||u||_{r+1}^{r+1}
        <= (||u0||^2 + (1/mu) int_0^t ||f||_{V'}^2) e^{rate t}, where rate
    is 0 for f = 0, else max(mu - 2 alpha, 0): ||.||_V is the full H^1 norm, so
    2<f,u> <= ||f||_{V'}^2/mu + mu ||u||_V^2 leaves (mu - 2 alpha)||u||^2.
    """
    f_int = _forcing_integrals(diagnostics, forcing, dual_norm)
    e0 = diagnostics[0].energy
    forced = forcing is not None and not forcing.is_zero
    rate = max(params.mu - 2.0 * params.alpha, 0.0) if forced else 0.0
    margins = []
    for d, fi in zip(diagnostics, f_int):
        lhs = (d.energy + params.mu * d.int_dissipation
               + 2.0 * params.beta * d.int_damping)
        rhs = e0 + fi / params.mu
        margins.append((rhs * (1.0 + SLACK) - lhs * np.exp(-min(rate * d.t, 700.0)))
                       / (rhs + TINY))
    return _trajectory_report("apriori", margins, f"relative slack {SLACK:g}")


def resolve_theta(params: CbfParams) -> float:
    """Splitting weight theta of the critical-exponent gradient bound.

    It needs 1/(2 mu) <= theta <= beta, so it is taken only where
    ``params.critical_regime`` holds; theta sits just above the lower end.
    """
    if not params.critical_regime:
        raise RegimeError("gradient bound at r = 3 requires 2*beta*mu >= 1")
    return min(1.0 / (2.0 * params.mu) + 1e-6, params.beta)


def regularity_bound(params: CbfParams):
    """(rate, coefficient of int ||A u||^2, coefficient of the weighted
    gradient integral, notes) of the bound :func:`check_regularity` asserts,
    which exists for r > 3, or r = 3 with 2*beta*mu >= 1."""
    if params.r > 3.0:
        rate = regularity_rate(params)
        return rate, params.mu, params.beta, f"rate = {rate:.6g}"
    if params.r == 3.0:
        theta = resolve_theta(params)
        return (0.0, params.mu - 1.0 / (2.0 * theta), params.beta - theta,
                f"theta = {theta:.6g}")
    raise RegimeError("gradient bound needs r > 3, or r = 3 with "
                      "2*beta*mu >= 1")


def check_regularity(diagnostics, params: CbfParams,
                     forcing: Forcing = None) -> CheckReport:
    """Gradient-norm a-priori bound along a trajectory (extended diagnostics).

    r > 3:
      ||grad u(t)||^2 + mu int ||A u||^2 + beta int || |u|^{(r-1)/2} grad u ||^2
        <= { ||grad u0||^2 + (2/mu) int ||f||^2 } e^{rho* t}.
    r = 3 with 2*beta*mu >= 1 (no exponential):
      ||grad u(t)||^2 + (mu - 1/(2 theta)) int ||A u||^2
        + (beta - theta) int || |u| grad u ||^2
        <= ||grad u0||^2 + (2/mu) int ||f||^2.
    """
    rate, coeff_a, coeff_w, notes = regularity_bound(params)
    f_int = _forcing_integrals(diagnostics, forcing, l2_norm)
    if diagnostics[0].int_a_norm_sq is None:
        raise InvalidArgumentsError("regularity check needs extended diagnostics")
    g0 = diagnostics[0].v_seminorm_sq
    margins = []
    for d, fi in zip(diagnostics, f_int):
        lhs = (d.v_seminorm_sq + coeff_a * d.int_a_norm_sq
               + coeff_w * d.int_weighted_grad_sq)
        base = g0 + 2.0 / params.mu * fi
        margins.append(_envelope_margin(lhs / (base + TINY), rate, d.t))
    return _trajectory_report("regularity", margins,
                              notes + f", relative slack {SLACK:g}")


# ---------------------------------------------------------------------------
# the checks of ``cbftorus verify``


Check = namedtuple("Check", "run cap regime", defaults=(None, None))
# Every check of ``cbftorus verify``, in report order, and how a session runs
# it: each parameter of ``run`` is the session's input of that name, where
# ``n_samples`` is [verify] samples, at most ``cap``, and ``tolerance`` is
# [verify] tolerance.  Before it builds the inputs of a trajectory check,
# the session calls ``regime(params)``, which raises RegimeError outside the
# check's regime; a sampled check decides its own before its first draw.
CHECKS = {
    "trilinear": Check(check_trilinear),
    "monotone_shifted": Check(check_monotone_shifted),
    "monotone_critical": Check(check_monotone_critical),
    "advection_splitting": Check(check_advection_splitting),
    "local_2d": Check(check_local_bound_2d),
    "damping_monotone": Check(check_damping_monotone),
    "damping_lipschitz": Check(check_damping_lipschitz),
    "mvt": Check(check_pointwise_mvt, 200),
    "dissipation_identity": Check(check_dissipation_identity, 200),
    "interpolation": Check(check_interpolation),
    "advection_bounds": Check(check_advection_bounds),
    "filter": Check(check_filter_props, 50),
    "operator_continuity": Check(check_operator_continuity, 20),
    "gronwall": Check(check_gronwall),
    "continuous_dependence": Check(check_continuous_dependence,
                                   regime=monotonicity_shift),
    "apriori": Check(check_apriori),
    "regularity": Check(check_regularity, regime=regularity_bound),
}
