"""Verification harness: samplers, reports, checks, and envelope lemmas."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import full_array as fa
from cbftorus.errors import (ConfigError, InvalidArgumentsError, RegimeError)
from cbftorus.families import random_band_limited, single_mode
from cbftorus.fields import magnitude, to_physical, zero_field
from cbftorus.grid import TorusGrid
from cbftorus.operators import (CbfParams, advection, advection_form,
                                cbf_operator, damping_pointwise,
                                monotonicity_shift, physical_jacobian,
                                pointwise_power)
from cbftorus.solver import Forcing, SolverConfig, run
from cbftorus.spectral import (divergence_defect, dual_norm, grad_norm,
                               l2_norm, l2_pairing, laplacian, lp_norm)
from cbftorus import verification as verif
from cbftorus.verification import (CheckReport, FieldSampler,
                                   check_advection_bounds,
                                   check_advection_splitting, check_apriori,
                                   check_continuous_dependence,
                                   check_damping_lipschitz,
                                   check_damping_monotone,
                                   check_dissipation_identity,
                                   check_filter_props, check_gronwall,
                                   check_interpolation, check_local_bound_2d,
                                   check_monotone_critical,
                                   check_monotone_shifted,
                                   check_operator_continuity,
                                   check_pointwise_mvt, check_regularity,
                                   check_trilinear,
                                   dissipation_identity_forms,
                                   gronwall_envelope,
                                   nonlinear_gronwall_envelope, resolve_theta)


# ---------------------------------------------------------------------------
# sampler and report mechanics


def test_sampler_deterministic_and_solenoidal(grid32):
    sampler = FieldSampler(grid=grid32, seed=5, band_limit=8)
    a = sampler.field_from_seed(123)
    b = sampler.field_from_seed(123)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert divergence_defect(a) < 1e-12
    assert np.max(np.abs(a.coeffs * (fa.mode_inf_norm(grid32) > 8))) == 0.0
    assert abs(a.coeffs[0][0, 0]) == 0.0  # mean-free
    assert l2_norm(a) == pytest.approx(1.0, rel=1e-12)


def test_readme_lists_the_checks_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Verification check names:", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == list(verif.CHECKS)


def test_report_pass_rule():
    good = CheckReport("x", 3, -5e-10, 0, tolerance=1e-9)
    assert good.passed == (good.worst_margin >= -good.tolerance)
    text = str(CheckReport("x", 3, -5e-10, 7, tolerance=1e-9))
    assert "worst_seed   7" in text and "PASS" in text
    bad = CheckReport("x", 3, -2e-9, 4, tolerance=1e-9)
    assert not bad.passed and "FAIL" in str(bad)
    # An exploratory check asserts nothing: it passes at any margin.
    explored = CheckReport("x", 3, -2e-9, 4, tolerance=1e-9, exploratory=True)
    assert explored.passed and "EXPLORATORY" in str(explored)


_R4 = CbfParams(mu=0.5, beta=1.0, r=4.0)
_R3 = CbfParams(mu=1.0, beta=1.0, r=3.0)

# Every sampled check: its fields depend only on the sample's seeds.
SEED_ONLY_CHECKS = {
    "trilinear": lambda s, n: check_trilinear(s, n),
    "advection_bounds": lambda s, n: check_advection_bounds(s, 4.0, n),
    "monotone_shifted": lambda s, n: check_monotone_shifted(s, _R4, n),
    "monotone_critical": lambda s, n: check_monotone_critical(s, _R3, n),
    "advection_splitting": lambda s, n: check_advection_splitting(s, _R4, n),
    "local_2d": lambda s, n: check_local_bound_2d(s, 0.5, n),
    "damping_monotone": lambda s, n: check_damping_monotone(s, 5.0, n),
    "damping_lipschitz": lambda s, n: check_damping_lipschitz(s, 3.5, n),
    "mvt": lambda s, n: check_pointwise_mvt(s, 3.5, n),
    "dissipation_identity": lambda s, n: check_dissipation_identity(s, 3.0, n),
    "interpolation": lambda s, n: check_interpolation(s, 2.0, 4.0, 6.0, n),
    "filter": lambda s, n: check_filter_props(s, n),
    "operator_continuity": lambda s, n: check_operator_continuity(s, _R4, n),
}


@pytest.mark.parametrize("name", sorted(SEED_ONLY_CHECKS))
def test_worst_seed_reproduces_sample(sampler32, name):
    check = SEED_ONLY_CHECKS[name]
    report = check(sampler32, 12)
    alone = check(replace(sampler32, seed=report.worst_case_seed), 1)
    assert report.samples == 12 and alone.samples == 1
    assert alone.worst_margin == report.worst_margin


# ---------------------------------------------------------------------------
# sampled checks on their home regimes


def test_trilinear_check(sampler32):
    assert check_trilinear(sampler32, 30).passed


@pytest.mark.parametrize("mu,beta,r", [(1.0, 1.0, 5.0), (0.5, 1.0, 4.0),
                                       (1.0, 0.5, 3.5)])
def test_monotone_shifted_regimes(sampler32, mu, beta, r):
    report = check_monotone_shifted(sampler32, CbfParams(mu=mu, beta=beta, r=r), 60)
    assert report.passed and not report.exploratory


def test_monotone_shifted_vzero_reduction(sampler32):
    # v = 0 margin reduces to <G(u),u> + rho||u||^2 - (mu/2)||grad u||^2 >= 0
    params = CbfParams(mu=1.0, beta=1.0, r=5.0)
    rho = monotonicity_shift(params)
    u = sampler32.field_from_seed(0)
    m = (l2_pairing(cbf_operator(u, params), u) + rho * l2_norm(u) ** 2
         - 0.5 * params.mu * grad_norm(u) ** 2)
    expected = (0.5 * params.mu * grad_norm(u) ** 2 + rho * l2_norm(u) ** 2
                + params.beta * lp_norm(u, 6.0) ** 6.0)
    assert m == pytest.approx(expected, rel=1e-10)
    assert m > 0


def test_monotone_shifted_needs_supercritical(sampler32):
    with pytest.raises(RegimeError):
        check_monotone_shifted(sampler32, CbfParams(r=3.0), 5)


@pytest.mark.parametrize("mu,beta", [(1.0, 0.5), (1.0, 1.0), (2.0, 0.5)])
def test_monotone_critical_regimes(sampler32, mu, beta):
    report = check_monotone_critical(sampler32, CbfParams(mu=mu, beta=beta, r=3.0), 60)
    assert report.passed and not report.exploratory


def test_monotone_critical_exploratory_mode(sampler32):
    report = check_monotone_critical(sampler32, CbfParams(mu=1.0, beta=0.2, r=3.0), 20)
    assert report.exploratory and report.passed


def test_advection_splitting_check(sampler32):
    assert check_advection_splitting(sampler32, CbfParams(mu=0.5, beta=1.0, r=4.0),
                                     60).passed


def test_local_bound_2d(sampler32, grid3d):
    assert check_local_bound_2d(sampler32, 1.0, 60).passed
    with pytest.raises(RegimeError):
        check_local_bound_2d(FieldSampler(grid=grid3d, band_limit=4), 1.0, 5)


@pytest.mark.parametrize("r", [1.0, 2.5, 3.0, 5.0])
def test_damping_monotone_check(sampler32, r):
    assert check_damping_monotone(sampler32, r, 50).passed


def test_damping_monotone_vzero_reduction(sampler32):
    # v = 0: lhs = ||u||_{r+1}^{r+1}, rhs = half of it, margin strictly > 0
    r = 4.0
    u = sampler32.field_from_seed(3)
    lhs = lp_norm(u, r + 1) ** (r + 1)
    margin = lhs - 0.5 * lhs
    assert margin > 0


def test_damping_lipschitz_check(sampler32):
    assert check_damping_lipschitz(sampler32, 4.0, 60).passed


def test_pointwise_mvt_check(sampler32):
    assert check_pointwise_mvt(sampler32, 3.5, 40).passed


def test_dissipation_identity_r1_degenerates_to_gradient(grid32):
    u = random_band_limited(grid32, seed=40, band_limit=8)
    i1, i2, i3, mid = dissipation_identity_forms(u, 1.0)
    g_sq = grad_norm(u) ** 2
    for val in (i1, i2, i3, mid):
        assert val == pytest.approx(g_sq, rel=1e-10)


def test_dissipation_identity_single_mode_two_resolutions():
    # quadrature oracle at two resolutions confirms the identity numerically
    for n in (32, 64):
        grid = TorusGrid(dim=2, n_points=n)
        from cbftorus.spectral import leray_project
        u = leray_project(single_mode(grid, (0, 2), component=0))
        i1, i2, i3, _ = dissipation_identity_forms(u, 3.0)
        assert i2 == pytest.approx(i1, rel=1e-8)
        assert i3 == pytest.approx(i1, rel=1e-8)


@pytest.mark.parametrize("r", [3.0, 5.0])
def test_dissipation_identity_check(grid64, r):
    sampler = FieldSampler(grid=grid64, seed=6, band_limit=8)
    report = check_dissipation_identity(sampler, r, 30)
    assert report.passed and not report.exploratory


@pytest.mark.parametrize("r", [3.0, 5.0])
def test_dissipation_identity_check_at_verify_defaults(grid32, r):
    # (r+1)*8 >= 32: the forms move to a grid where quadrature is exact
    sampler = FieldSampler(grid=grid32, seed=42, band_limit=8)
    report = check_dissipation_identity(sampler, r, 100)
    assert report.passed and not report.exploratory
    assert report.worst_margin > 0.99e-6
    assert f"N = {int(r + 1) * 8 + 2}" in report.notes


def test_dissipation_identity_fractional_r_is_exploratory(grid64):
    sampler = FieldSampler(grid=grid64, seed=6, band_limit=8)
    report = check_dissipation_identity(sampler, 3.5, 10)
    assert report.exploratory


def test_interpolation_check(sampler32):
    assert check_interpolation(sampler32, 2.0, 4.0, 6.0, 60).passed
    # s = rho = t degenerates to equality
    report = check_interpolation(sampler32, 4.0, 4.0, 4.0, 10)
    assert report.passed
    with pytest.raises(InvalidArgumentsError):
        check_interpolation(sampler32, 4.0, 2.0, 6.0, 5)


def test_interpolation_equality_for_constant_magnitude(grid32):
    # |u| constant makes the interpolation inequality an equality
    c = np.zeros((2,) + grid32.shape)
    c[0] = 1.3
    from cbftorus.fields import PhysicalField, to_spectral
    const = to_spectral(PhysicalField(grid32, c))
    s, rho, t = 2.0, 4.0, 8.0
    theta = (1 / rho - 1 / t) / (1 / s - 1 / t)
    lhs = lp_norm(const, rho)
    rhs = lp_norm(const, s) ** theta * lp_norm(const, t) ** (1 - theta)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("r", [3.0, 5.0])
def test_advection_bounds_check(sampler32, r):
    assert check_advection_bounds(sampler32, r, 40).passed


def test_advection_bounds_need_r3(sampler32):
    with pytest.raises(RegimeError):
        check_advection_bounds(sampler32, 2.0, 5)


def test_filter_check(sampler32):
    report = check_filter_props(sampler32, 10)
    assert report.passed


def test_operator_continuity_check(sampler32):
    assert check_operator_continuity(sampler32, CbfParams(mu=1, beta=1, r=4.0),
                                     5).passed


# ---------------------------------------------------------------------------
# Gronwall envelopes


def test_gronwall_envelope_constant_cases():
    t = np.linspace(0.0, 2.0, 101)
    env = gronwall_envelope(1.5, np.zeros_like(t), np.zeros_like(t), t)
    assert np.allclose(env, 1.5)
    env = gronwall_envelope(1.5, np.zeros_like(t), np.full_like(t, 0.7), t)
    assert np.allclose(env, 1.5 * np.exp(0.7 * t), rtol=1e-12)


def test_gronwall_envelope_validation():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(InvalidArgumentsError):
        gronwall_envelope(-1.0, np.zeros_like(t), np.zeros_like(t), t)
    with pytest.raises(InvalidArgumentsError):
        gronwall_envelope(1.0, -np.ones_like(t), np.zeros_like(t), t)
    with pytest.raises(InvalidArgumentsError):
        gronwall_envelope(1.0, np.zeros(11), np.zeros(11), np.zeros(11))


def test_nonlinear_envelope_b_zero_and_alpha_validation():
    t = np.linspace(0.0, 1.0, 51)
    env = nonlinear_gronwall_envelope(2.0, np.full_like(t, 0.4),
                                      np.zeros_like(t), 0.5, t)
    assert np.allclose(env, 2.0 * np.exp(0.4 * t), rtol=1e-10)
    with pytest.raises(InvalidArgumentsError):
        nonlinear_gronwall_envelope(1.0, t * 0, t * 0, 1.0, t)


def test_nonlinear_envelope_alpha_zero_matches_linear():
    t = np.linspace(0.0, 1.0, 101)
    b = 0.3 + 0.2 * np.cos(3 * t) ** 2
    lin = gronwall_envelope(0.8, b, np.zeros_like(t), t)
    nonlin = nonlinear_gronwall_envelope(0.8, np.zeros_like(t), b, 0.0, t)
    assert np.max(np.abs(lin - nonlin)) < 1e-14


def test_nonlinear_envelope_dominates_bernoulli_ode():
    # y' = a y + b y^alpha saturates the envelope; RK4 vs trapezoid margins
    t = np.linspace(0.0, 1.0, 2001)
    c, a, b, alpha = 0.5, 0.9, 0.6, 0.5
    y = verif._rk4_scalar(lambda tt, yy: a * yy + b * max(yy, 0.0) ** alpha, c, t)
    env = nonlinear_gronwall_envelope(c, np.full_like(t, a),
                                      np.full_like(t, b), alpha, t)
    assert np.all(env * (1 + 1e-8) >= y)
    # and it is tight: the solution saturates the lemma hypothesis
    assert np.max((env - y) / env) < 1e-4


def test_gronwall_check():
    assert check_gronwall().passed


# ---------------------------------------------------------------------------
# trajectory checks


def test_continuous_dependence_zero_perturbation(grid32):
    params = CbfParams(mu=1.0, beta=1.0, r=5.0)
    config = SolverConfig(dt=1e-2, t_end=0.05, diagnostics_every=1)
    ic = random_band_limited(grid32, seed=50, band_limit=6)
    report = check_continuous_dependence(params, config, ic,
                                         zero_field(grid32))
    assert report.passed and report.notes == "zero perturbation"


def test_continuous_dependence_r5_and_r3(grid32):
    ic = random_band_limited(grid32, seed=51, band_limit=6)
    delta = random_band_limited(grid32, seed=52, band_limit=6, amplitude=1e-3)
    config = SolverConfig(dt=2e-3, t_end=0.1, diagnostics_every=10)
    assert check_continuous_dependence(CbfParams(mu=1, beta=1, r=5), config,
                                       ic, delta).passed
    assert check_continuous_dependence(CbfParams(mu=1, beta=1, r=3), config,
                                       ic, delta).passed
    with pytest.raises(RegimeError):
        check_continuous_dependence(CbfParams(mu=1, beta=0.1, r=3), config,
                                    ic, delta)


def test_continuous_dependence_envelope_past_the_float_range():
    """At r = 3.01, mu = 0.1 the shift is about 9e197, so d0^2 e^{2 rho t}
    overflows a float; the margin divides d^2 by d0^2 and damps it by
    e^{-2 rho t}, which underflows to its limit 0, and the bound holds."""
    grid = TorusGrid(dim=2, n_points=16)
    params = CbfParams(mu=0.1, beta=1.0, r=3.01)
    assert monotonicity_shift(params) > 1e197
    ic = random_band_limited(grid, seed=51, band_limit=4)
    delta = random_band_limited(grid, seed=52, band_limit=4, amplitude=1e-3)
    config = SolverConfig(dt=2e-3, t_end=0.01, diagnostics_every=5)
    report = check_continuous_dependence(params, config, ic, delta)
    assert report.passed and np.isfinite(report.worst_margin)


def test_apriori_and_regularity_checks(grid32):
    params = CbfParams(mu=0.5, beta=1.0, r=4.0)
    ic = random_band_limited(grid32, seed=53, band_limit=6)
    config = SolverConfig(dt=2e-3, t_end=0.2, diagnostics_every=20)
    forcing = Forcing.steady(random_band_limited(grid32, seed=54, band_limit=4,
                                                 amplitude=0.3))
    _, diagnostics = run(ic, params, config, forcing, extended=True)
    assert check_apriori(diagnostics, params, forcing).passed
    assert check_regularity(diagnostics, params, forcing).passed


@pytest.mark.parametrize("r", [4.0, 3.0])
def test_trajectory_checks_report_their_trajectory(grid32, r):
    # At t = 0 each bound is an equality by construction, its margin the
    # slack alone: the worst margin comes from a later row, whose index is
    # the seed, and a run with no step keeps the t = 0 row.
    params = CbfParams(mu=0.5, beta=1.0, r=r)
    ic = random_band_limited(grid32, seed=56, band_limit=6)
    delta = random_band_limited(grid32, seed=57, band_limit=6, amplitude=1e-3)
    forcing = Forcing.steady(random_band_limited(grid32, seed=58, band_limit=4,
                                                 amplitude=0.3))
    for t_end in (0.04, 0.0):
        config = SolverConfig(dt=2e-3, t_end=t_end, diagnostics_every=5)
        _, diagnostics = run(ic, params, config, forcing, extended=True)
        for report in (check_apriori(diagnostics, params, forcing),
                       check_regularity(diagnostics, params, forcing),
                       check_continuous_dependence(params, config, ic, delta,
                                                   forcing)):
            assert report.passed
            if t_end == 0.0:
                assert (report.samples, report.worst_case_seed) == (1, 0)
                assert report.worst_margin == pytest.approx(verif.SLACK, abs=1e-12)
            else:
                assert report.samples == len(diagnostics) - 1 == 4
                assert 1 <= report.worst_case_seed <= 4
                assert report.worst_margin != verif.SLACK


def test_trajectory_bounds_need_diagnostics_from_t0():
    # Both bounds compare every row with the first as the initial value, so
    # diagnostics cut after t = 0 are an argument error, not a weaker bound.
    grid = TorusGrid(dim=2, n_points=16)
    params = CbfParams(mu=0.5, beta=1.0, r=4.0)
    config = SolverConfig(dt=2e-3, t_end=0.02, diagnostics_every=2)
    _, diagnostics = run(random_band_limited(grid, 1, 4), params, config,
                         extended=True)
    for check in (check_apriori, check_regularity):
        assert check(diagnostics, params).passed
        with pytest.raises(InvalidArgumentsError, match="t = 0"):
            check(diagnostics[3:], params)


def test_regularity_requires_extended(grid32):
    params = CbfParams(mu=0.5, beta=1.0, r=4.0)
    ic = random_band_limited(grid32, seed=55, band_limit=6)
    config = SolverConfig(dt=2e-3, t_end=0.02, diagnostics_every=5)
    _, diagnostics = run(ic, params, config)
    with pytest.raises(ConfigError):
        check_regularity(diagnostics, params)


def test_resolve_theta():
    p = CbfParams(mu=1.0, beta=1.0, r=3.0)
    theta = resolve_theta(p)
    assert 1.0 / (2 * p.mu) <= theta <= p.beta
    boundary = CbfParams(mu=1.0, beta=0.5, r=3.0)
    assert resolve_theta(boundary) == pytest.approx(0.5)
    with pytest.raises(RegimeError):
        resolve_theta(CbfParams(mu=1.0, beta=0.4, r=3.0))


# ---------------------------------------------------------------------------
# the certifier's samples against pointwise references


def _ref_weighted_l2_sq(weight_mag, diff_phys, cell, half_power):
    """|| |w|^half_power d ||^2 with the power taken of |w| itself."""
    w = pointwise_power(weight_mag, 2.0 * half_power)
    return float(np.sum(w * np.sum(diff_phys * diff_phys, axis=0)) * cell)


def _ref_damping_pairing(u_phys, v_phys, r, cell):
    """<C(u)-C(v), u-v> on samples of u and v."""
    return float(np.sum((damping_pointwise(u_phys, r) - damping_pointwise(v_phys, r))
                        * (u_phys - v_phys)) * cell)


def _ref_margins(u, v, w, params, cell):
    """The pointwise margins of the certifier, from full transforms of each
    field (``to_physical``, ``physical_jacobian``) and weights powered from
    |u|: name -> margin of the pair (u, v), w the third field of
    ``advection_bounds``."""
    r, mu, beta = params.r, params.mu, params.beta
    up, vp = to_physical(u).data, to_physical(v).data
    delta = u - v
    dp = to_physical(delta).data
    pairing = _ref_damping_pairing(up, vp, r, cell)
    out = {}
    if r == 3.0:
        gu, gv = cbf_operator(u, params), cbf_operator(v, params)
        full = l2_pairing(gu - gv, delta)
        scale = (abs(l2_pairing(gu, delta)) + abs(l2_pairing(gv, delta))
                 + mu * grad_norm(delta) ** 2 + l2_norm(delta) ** 2 + verif.TINY)
        lower = 0.5 * (beta - 1.0 / (2.0 * mu)) * _ref_weighted_l2_sq(
            magnitude(vp), dp, cell, 1.0)
        out["monotone_critical"] = (full - lower) / scale
    else:
        lhs = abs(advection_form(delta, delta, v))
        rhs = (0.5 * mu * grad_norm(delta) ** 2
               + 0.5 * beta * _ref_weighted_l2_sq(magnitude(vp), dp, cell,
                                                  0.5 * (r - 1.0))
               + monotonicity_shift(params) * l2_norm(delta) ** 2)
        out["advection_splitting"] = (rhs - lhs) / (rhs + lhs + verif.TINY)
    d_phys = up - vp
    rhs = 0.5 * (_ref_weighted_l2_sq(magnitude(up), d_phys, cell, 0.5 * (r - 1.0))
                 + _ref_weighted_l2_sq(magnitude(vp), d_phys, cell, 0.5 * (r - 1.0)))
    out["damping_monotone"] = (min(pairing - rhs, pairing)
                               / (abs(pairing) + rhs + verif.TINY))
    diff_lp = float(np.sum(magnitude(d_phys) ** (r + 1.0)) * cell) ** (2.0 / (r + 1.0))
    rhs = r * (lp_norm(u, r + 1.0) + lp_norm(v, r + 1.0)) ** (r - 1.0) * diff_lp
    out["damping_lipschitz"] = (rhs - pairing) / (abs(pairing) + rhs + verif.TINY)
    lhs = magnitude(damping_pointwise(up, r) - damping_pointwise(vp, r))
    rhs = r * (magnitude(up) + magnitude(vp)) ** (r - 1.0) * magnitude(d_phys)
    out["mvt"] = float(np.min(rhs - lhs)) / (float(np.max(rhs)) + verif.TINY)
    q = 2.0 * (r + 1.0) / (r - 1.0)
    bounds = [(dual_norm(advection(u, v)), lp_norm(u, r + 1.0) * lp_norm(v, q)),
              (abs(advection_form(u, v, w)),
               lp_norm(u, r + 1.0) * lp_norm(v, q) * grad_norm(w))]
    if r > 3.0:
        bounds.append((abs(advection_form(u, u, v)),
                       lp_norm(u, r + 1.0) ** ((r + 1.0) / (r - 1.0))
                       * l2_norm(u) ** ((r - 3.0) / (r - 1.0)) * grad_norm(v)))
    out["advection_bounds"] = min((rhs * (1.0 + 1e-8) - lhs) / (rhs + verif.TINY)
                                  for lhs, rhs in bounds)
    return out


def _ref_identity_forms(u, r):
    """(I1, I2, I3, mid) of ``dissipation_identity_forms`` for r >= 3."""
    cell = u.grid.cell_volume
    up, jac = to_physical(u).data, physical_jacobian(u)
    mag = magnitude(up)
    neg_lap = to_physical(laplacian(u) * -1.0).data
    i1 = float(np.sum(neg_lap * damping_pointwise(up, r)) * cell)
    mid = float(np.sum(pointwise_power(mag, r - 1.0) * np.sum(jac * jac, axis=(0, 1)))
                * cell)
    half_grad_sq = np.sum(np.einsum("i...,ia...->a...", up, jac) ** 2, axis=0)
    w = pointwise_power(mag, r - 3.0)
    i2 = mid + 4.0 * (r - 1.0) / (r + 1.0) ** 2 * float(
        np.sum(0.25 * (r + 1.0) ** 2 * w * half_grad_sq) * cell)
    i3 = mid + 0.25 * (r - 1.0) * float(np.sum(w * 4.0 * half_grad_sq) * cell)
    return i1, i2, i3, mid


@pytest.mark.parametrize("dim,n,band", [(2, 16, 5), (3, 8, 3)], ids=["2d", "3d"])
@pytest.mark.parametrize("r", [3.0, 3.5, 4.0, 5.0])
def test_certifier_margins_match_pointwise_references(dim, n, band, r):
    # Each margin, read from the solver's samples (|u|^{r-1} formed from
    # |u|^2, grad u from one stacked inverse), against the same margin from
    # full transforms of each field and powers of |u|: one sample per check
    # (its worst margin) at each of three seeds.
    grid = TorusGrid(dim=dim, n_points=n)
    params = CbfParams(mu=0.5, beta=2.0, r=r)  # at r = 3, a lower bound > 0
    for seed in (3, 11, 20):
        sampler = FieldSampler(grid=grid, seed=seed, band_limit=band)
        u, v = sampler.field_from_seed(seed), sampler.field_from_seed(seed + 1)
        ref = _ref_margins(u, v, sampler.field_from_seed(seed, stream=31), params,
                           grid.cell_volume)
        inputs = {"sampler": sampler, "params": params, "r": r, "samples": 1,
                  "tolerance": verif.DEFAULT_TOL}
        for name, margin in ref.items():
            check, keys = verif.CHECKS[name][:2]
            got = check(*(inputs[key] for key in keys.split())).worst_margin
            assert abs(got - margin) <= 1e-13 * abs(margin), (name, seed)
        for got, want in zip(dissipation_identity_forms(u, r), _ref_identity_forms(u, r)):
            assert abs(got - want) <= 1e-13 * abs(want), seed
