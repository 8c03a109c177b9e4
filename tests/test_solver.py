"""Time integration: scheme exactness, orders, budgets, blow-up handling."""

import numpy as np
import pytest

from cbftorus.errors import BlowUpError, InvalidArgumentsError
from cbftorus.families import (random_band_limited, single_mode, taylor_green,
                               taylor_green_exact)
from cbftorus.fields import to_physical, zero_field
from cbftorus.grid import TorusGrid
from cbftorus.operators import CbfParams, cbf_operator
from cbftorus.solver import (Forcing, SolverConfig, apriori_bound,
                             energy_residual, initialize_state, run, step)
from cbftorus.spectral import divergence_defect, l2_norm, leray_project

NSE = CbfParams(mu=0.1, alpha=0.0, beta=0.0, r=3.0)
DAMPED = CbfParams(mu=0.1, alpha=0.0, beta=1.0, r=4.0)


def test_zero_state_stays_zero(grid32):
    config = SolverConfig(dt=1e-2, t_end=5e-2, diagnostics_every=1)
    state, diagnostics, _ = run(zero_field(grid32), DAMPED, config)
    assert l2_norm(state.u) == 0.0
    assert all(d.energy == 0.0 and d.energy_residual == 0.0
               for d in diagnostics)


def test_t_end_equal_dt_is_one_step(grid32):
    config = SolverConfig(dt=1e-2, t_end=1e-2, diagnostics_every=1)
    state, diagnostics, _ = run(taylor_green(grid32), NSE, config)
    assert state.t == pytest.approx(1e-2)
    assert len(diagnostics) == 2  # initial sample and the single step


def test_single_mode_euler_scalar_recurrence(grid32):
    u0 = leray_project(single_mode(grid32, (0, 2), component=0))
    params = CbfParams(mu=0.5, alpha=0.2, beta=1e-14, r=3.0)
    dt, steps = 1e-2, 12
    config = SolverConfig(dt=dt, t_end=steps * dt, scheme="imex_euler",
                          diagnostics_every=steps)
    state, _, _ = run(u0, params, config)
    lam = params.mu * 4.0 * (2 * np.pi / grid32.period) ** 2 + params.alpha
    factor = (1.0 / (1.0 + dt * lam)) ** steps
    assert l2_norm(state.u) == pytest.approx(factor * l2_norm(u0), rel=1e-12)


def test_taylor_green_matches_analytic_solution(grid64):
    config = SolverConfig(dt=1e-3, t_end=0.25, scheme="imex_cnab2",
                          diagnostics_every=250)
    state, _, _ = run(taylor_green(grid64), NSE, config)
    exact = taylor_green_exact(grid64, NSE.mu, state.t)
    err = np.max(np.abs(to_physical(state.u).data - exact.data))
    assert err < 1e-7 * np.max(np.abs(exact.data))


def test_cnab2_second_order_on_taylor_green(grid64):
    errors = []
    dts = (4e-3, 2e-3, 1e-3)
    for dt in dts:
        config = SolverConfig(dt=dt, t_end=0.2, diagnostics_every=10 ** 9)
        state, _, _ = run(taylor_green(grid64), NSE, config)
        exact = taylor_green_exact(grid64, NSE.mu, state.t)
        errors.append(np.max(np.abs(to_physical(state.u).data - exact.data)))
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(1.9 < p < 2.1 for p in orders)


def test_euler_first_order_on_single_mode(grid32):
    u0 = leray_project(single_mode(grid32, (0, 1), component=0))
    params = CbfParams(mu=0.5, beta=1e-14, r=3.0)
    lam = params.mu * (2 * np.pi / grid32.period) ** 2
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        config = SolverConfig(dt=dt, t_end=0.2, scheme="imex_euler",
                              diagnostics_every=10 ** 9)
        state, _, _ = run(u0, params, config)
        exact = np.exp(-lam * state.t)
        errors.append(abs(l2_norm(state.u) / l2_norm(u0) - exact))
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(0.9 < p < 1.1 for p in orders)


def test_divergence_free_preserved(grid32):
    ic = random_band_limited(grid32, seed=14, band_limit=8)
    config = SolverConfig(dt=2e-3, t_end=0.05, diagnostics_every=1)
    forcing = Forcing.zero()
    state = initialize_state(ic, DAMPED, config, forcing)
    for _ in range(25):
        state = step(state, DAMPED, config, forcing)
        assert divergence_defect(state.u) < 1e-10


def test_euler_energy_monotone_without_forcing(grid32):
    ic = random_band_limited(grid32, seed=15, band_limit=8)
    config = SolverConfig(dt=1e-3, t_end=0.2, scheme="imex_euler",
                          diagnostics_every=5)
    _, diagnostics, _ = run(ic, DAMPED, config)
    energies = [d.energy for d in diagnostics]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))


def test_determinism_bitwise(grid32):
    ic = random_band_limited(grid32, seed=16, band_limit=8)
    config = SolverConfig(dt=1e-3, t_end=0.05, diagnostics_every=10)
    s1, d1, _ = run(ic, DAMPED, config)
    s2, d2, _ = run(ic, DAMPED, config)
    assert np.array_equal(s1.u.coeffs, s2.u.coeffs)
    assert all(a == b for a, b in zip(d1, d2))


# ---------------------------------------------------------------------------
# energy bookkeeping


def test_energy_residual_zero_state():
    a = b = type("S", (), dict(energy=0.0, v_seminorm_sq=0.0, lr1_norm=0.0,
                               forcing_power=0.0))
    assert energy_residual(a, b, 1e-2, DAMPED) == 0.0


def test_manufactured_steady_state_residual(grid32):
    # forcing chosen so u* is a steady state; cnab2 stays on it to O(dt^2)
    u_star = random_band_limited(grid32, seed=17, band_limit=6)
    params = CbfParams(mu=0.5, alpha=0.1, beta=1.0, r=4.0)
    forcing = Forcing.steady(cbf_operator(u_star, params))
    config = SolverConfig(dt=1e-3, t_end=0.2, diagnostics_every=20)
    state, diagnostics, _ = run(u_star, params, config, forcing)
    drift = l2_norm(state.u - u_star) / l2_norm(u_star)
    assert drift < 1e-5
    assert abs(diagnostics[-1].energy_residual) < 1e-7


def test_energy_residual_refines_at_second_order(grid32):
    ic = random_band_limited(grid32, seed=18, band_limit=8)
    defects = []
    for dt in (4e-3, 2e-3, 1e-3):
        config = SolverConfig(dt=dt, t_end=0.5, diagnostics_every=10 ** 9)
        _, diagnostics, _ = run(ic, DAMPED, config)
        defects.append(abs(diagnostics[-1].energy_residual))
    orders = [np.log2(a / b) for a, b in zip(defects, defects[1:])]
    assert all(p > 1.9 for p in orders)


def test_apriori_bound_formulas(grid32):
    ic = random_band_limited(grid32, seed=19, band_limit=8)
    assert apriori_bound(ic, DAMPED, Forcing.zero(), 3.0) == pytest.approx(
        l2_norm(ic) ** 2)
    f = random_band_limited(grid32, seed=20, band_limit=4, amplitude=0.5)
    forcing = Forcing.steady(f)
    from cbftorus.spectral import dual_norm
    t = 2.0
    expected = l2_norm(ic) ** 2 + t / DAMPED.mu * dual_norm(f) ** 2
    assert apriori_bound(ic, DAMPED, forcing, t) == pytest.approx(expected,
                                                                  rel=1e-12)


def test_apriori_bound_holds_along_run(grid32):
    ic = random_band_limited(grid32, seed=21, band_limit=8)
    config = SolverConfig(dt=1e-3, t_end=0.5, diagnostics_every=50)
    _, diagnostics, _ = run(ic, DAMPED, config)
    for d in diagnostics:
        lhs = (d.energy + DAMPED.mu * d.int_dissipation
               + 2 * DAMPED.beta * d.int_damping)
        assert lhs <= apriori_bound(ic, DAMPED, Forcing.zero(), d.t) * (1 + 1e-6)


# ---------------------------------------------------------------------------
# robustness


def test_blowup_detected_with_partial_diagnostics(grid32):
    ic = random_band_limited(grid32, seed=22, band_limit=4, amplitude=1e3)
    params = CbfParams(mu=1e-3, beta=10.0, r=5.0)
    config = SolverConfig(dt=0.5, t_end=5.0, scheme="imex_euler",
                          diagnostics_every=1)
    with pytest.warns(UserWarning):
        with pytest.raises(BlowUpError) as err:
            run(ic, params, config)
    assert err.value.last_valid_time >= 0.0
    assert len(err.value.diagnostics) >= 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_is_reported_as_blowup():
    grid = TorusGrid(dim=2, n_points=16)
    params = CbfParams(mu=1.0, beta=1.0, r=12.0)
    config = SolverConfig(dt=1e-3, t_end=1e-2)
    ic = random_band_limited(grid, seed=1, band_limit=4, amplitude=1e30)
    state = initialize_state(ic, params, config, Forcing.zero())
    with pytest.raises(BlowUpError, match="non-finite") as err:
        step(state, params, config, Forcing.zero())
    assert err.value.last_valid_time == 0.0


def test_nonsolenoidal_ic_projected_with_warning(grid32):
    bad = single_mode(grid32, (1, 0), component=0)
    config = SolverConfig(dt=1e-3, t_end=1e-3, diagnostics_every=1)
    with pytest.warns(UserWarning, match="divergence-free"):
        state, _, _ = run(bad, DAMPED, config)
    assert divergence_defect(state.u) < 1e-12


def test_cfl_warning(grid32):
    ic = random_band_limited(grid32, seed=23, band_limit=4, amplitude=50.0)
    config = SolverConfig(dt=0.05, t_end=0.05, diagnostics_every=1)
    forcing = Forcing.zero()
    state = initialize_state(ic, NSE, config, forcing)
    with pytest.warns(UserWarning, match="CFL"):
        step(state, NSE, config, forcing)


def test_galerkin_truncation_confines_modes(grid32):
    ic = random_band_limited(grid32, seed=24, band_limit=8)
    config = SolverConfig(dt=1e-3, t_end=0.02, galerkin_n=4,
                          diagnostics_every=10)
    state, _, _ = run(ic, DAMPED, config)
    outside = state.u.coeffs * (grid32.mode_inf_norm > 4)
    assert np.max(np.abs(outside)) == 0.0


def test_galerkin_consistency_spectral_convergence(grid64):
    ic = random_band_limited(grid64, seed=25, band_limit=20,
                             spectrum_slope=3.0)
    params = CbfParams(mu=0.2, beta=1.0, r=4.0)
    finals = {}
    for n in (4, 8, 16, 0):
        config = SolverConfig(dt=2e-3, t_end=0.1, galerkin_n=n,
                              diagnostics_every=10 ** 9)
        finals[n] = run(ic, params, config)[0].u
    errors = [l2_norm(finals[n] - finals[0]) for n in (4, 8, 16)]
    print("galerkin truncation errors vs full:",
          [f"{e:.3e}" for e in errors])
    assert errors[0] > errors[1] > errors[2]


def test_substeps_consistency(grid32):
    ic = random_band_limited(grid32, seed=26, band_limit=6)
    base = SolverConfig(dt=1e-3, t_end=0.05, scheme="imex_euler",
                        diagnostics_every=50)
    sub = SolverConfig(dt=1e-3, t_end=0.05, scheme="imex_euler",
                       diagnostics_every=50, substeps=4)
    s1, _, _ = run(ic, DAMPED, base)
    s2, _, _ = run(ic, DAMPED, sub)
    assert l2_norm(s1.u - s2.u) < 1e-4 * l2_norm(s1.u)
    with pytest.raises(InvalidArgumentsError):
        SolverConfig(scheme="imex_cnab2", substeps=2)


def test_forcing_is_projected(grid32):
    raw = single_mode(grid32, (1, 0), component=0)  # not divergence-free
    forcing = Forcing.steady(raw)
    assert divergence_defect(forcing.at(0.0)) < 1e-12
    decaying = Forcing.analytic(lambda t: raw * float(np.exp(-t)))
    assert divergence_defect(decaying.at(0.3)) < 1e-12
    assert l2_norm(decaying.at(1.0)) == pytest.approx(
        np.exp(-1.0) * l2_norm(decaying.at(0.0)), rel=1e-12)


def test_config_validation():
    with pytest.raises(InvalidArgumentsError):
        SolverConfig(dt=0.0)
    with pytest.raises(InvalidArgumentsError):
        SolverConfig(t_end=-1.0)
    with pytest.raises(InvalidArgumentsError):
        SolverConfig(scheme="rk4")
    with pytest.raises(InvalidArgumentsError):
        SolverConfig(diagnostics_every=0)
