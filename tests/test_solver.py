"""Time integration: scheme exactness, orders, budgets, blow-up handling."""

import dataclasses
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import full_array as fa
from cbftorus.errors import BlowUpError, GridMismatchError, InvalidArgumentsError
from cbftorus.families import (kolmogorov, random_band_limited, single_mode,
                               taylor_green, taylor_green_exact)
from cbftorus.fields import band_box, to_physical, zero_field
from cbftorus.grid import TorusGrid
from cbftorus.operators import CbfParams, cbf_operator
from cbftorus.solver import (DiagnosticsSample, Forcing, SolverConfig,
                             initialize_state, run, step)
from cbftorus.spectral import divergence_defect, dual_norm, l2_norm, leray_project
from cbftorus.verification import SLACK, _forcing_integrals, check_apriori

from conftest import rel_diff

NSE = CbfParams(mu=0.1, alpha=0.0, beta=0.0, r=3.0)
DAMPED = CbfParams(mu=0.1, alpha=0.0, beta=1.0, r=4.0)


def test_zero_state_stays_zero(grid32):
    config = SolverConfig(dt=1e-2, t_end=5e-2, diagnostics_every=1)
    state, diagnostics = run(zero_field(grid32), DAMPED, config)
    assert l2_norm(state.u) == 0.0
    assert all(d.energy == 0.0 and d.energy_residual == 0.0
               for d in diagnostics)


def test_t_end_equal_dt_is_one_step(grid32):
    config = SolverConfig(dt=1e-2, t_end=1e-2, diagnostics_every=1)
    state, diagnostics = run(taylor_green(grid32), NSE, config)
    assert state.t == pytest.approx(1e-2)
    assert len(diagnostics) == 2  # initial sample and the single step


def test_t_end_off_the_step_grid_warns_and_rounds(grid32):
    # 0.01 / 0.003 = 3.33 steps: three are taken, with a warning.
    config = SolverConfig(dt=0.003, t_end=0.01, diagnostics_every=1)
    with pytest.warns(UserWarning, match="t_end is not an integer number of "
                                         "steps; rounding"):
        state, diagnostics = run(taylor_green(grid32), NSE, config)
    assert len(diagnostics) == 4 and state.t == pytest.approx(0.009)


def test_single_mode_euler_scalar_recurrence(grid32):
    u0 = leray_project(single_mode(grid32, (0, 2), component=0))
    params = CbfParams(mu=0.5, alpha=0.2, beta=1e-14, r=3.0)
    dt, steps = 1e-2, 12
    config = SolverConfig(dt=dt, t_end=steps * dt, scheme="imex_euler",
                          diagnostics_every=steps)
    state, _ = run(u0, params, config)
    lam = params.mu * 4.0 * (2 * np.pi / grid32.period) ** 2 + params.alpha
    factor = (1.0 / (1.0 + dt * lam)) ** steps
    assert l2_norm(state.u) == pytest.approx(factor * l2_norm(u0), rel=1e-12)


def test_taylor_green_matches_analytic_solution(grid64):
    config = SolverConfig(dt=1e-3, t_end=0.25, scheme="imex_cnab2",
                          diagnostics_every=250)
    state, _ = run(taylor_green(grid64), NSE, config)
    exact = taylor_green_exact(grid64, NSE.mu, state.t)
    err = np.max(np.abs(to_physical(state.u).data - exact.data))
    assert err < 1e-7 * np.max(np.abs(exact.data))


def test_cnab2_second_order_on_taylor_green(grid64):
    errors = []
    dts = (4e-3, 2e-3, 1e-3)
    for dt in dts:
        config = SolverConfig(dt=dt, t_end=0.2, diagnostics_every=10 ** 9)
        state, _ = run(taylor_green(grid64), NSE, config)
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
        state, _ = run(u0, params, config)
        exact = np.exp(-lam * state.t)
        errors.append(abs(l2_norm(state.u) / l2_norm(u0) - exact))
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(0.9 < p < 1.1 for p in orders)


def test_divergence_free_preserved(grid32):
    ic = random_band_limited(grid32, seed=14, band_limit=8)
    config = SolverConfig(dt=2e-3, t_end=0.05, diagnostics_every=1)
    forcing = Forcing()
    state = initialize_state(ic, DAMPED, config, forcing)
    for _ in range(25):
        state = step(state)
        assert divergence_defect(state.u) < 1e-10


def test_euler_energy_monotone_without_forcing(grid32):
    ic = random_band_limited(grid32, seed=15, band_limit=8)
    config = SolverConfig(dt=1e-3, t_end=0.2, scheme="imex_euler",
                          diagnostics_every=5)
    _, diagnostics = run(ic, DAMPED, config)
    energies = [d.energy for d in diagnostics]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))


def test_determinism_bitwise(grid32):
    ic = random_band_limited(grid32, seed=16, band_limit=8)
    config = SolverConfig(dt=1e-3, t_end=0.05, diagnostics_every=10)
    s1, d1 = run(ic, DAMPED, config)
    s2, d2 = run(ic, DAMPED, config)
    assert np.array_equal(s1.u.coeffs, s2.u.coeffs)
    assert all(a == b for a, b in zip(d1, d2))


# ---------------------------------------------------------------------------
# energy bookkeeping


def test_manufactured_steady_state_residual(grid32):
    # forcing chosen so u* is a steady state; cnab2 stays on it to O(dt^2)
    u_star = random_band_limited(grid32, seed=17, band_limit=6)
    params = CbfParams(mu=0.5, alpha=0.1, beta=1.0, r=4.0)
    forcing = Forcing(cbf_operator(u_star, params))
    config = SolverConfig(dt=1e-3, t_end=0.2, diagnostics_every=20)
    state, diagnostics = run(u_star, params, config, forcing)
    drift = l2_norm(state.u - u_star) / l2_norm(u_star)
    assert drift < 1e-5
    assert abs(diagnostics[-1].energy_residual) < 1e-7


def test_energy_residual_refines_at_second_order(grid32):
    ic = random_band_limited(grid32, seed=18, band_limit=8)
    defects = []
    for dt in (4e-3, 2e-3, 1e-3):
        config = SolverConfig(dt=dt, t_end=0.5, diagnostics_every=10 ** 9)
        _, diagnostics = run(ic, DAMPED, config)
        defects.append(abs(diagnostics[-1].energy_residual))
    orders = [np.log2(a / b) for a, b in zip(defects, defects[1:])]
    assert all(p > 1.9 for p in orders)


def _energy_rows(times, energies):
    """Diagnostics rows with the given energies and no dissipation,
    damping or forcing integrals."""
    return [DiagnosticsSample(t, e, *[0.0] * 8) for t, e in zip(times, energies)]


def test_apriori_bound_formulas(grid32):
    # check_apriori's bound (||u0||^2 + (1/mu) int_0^t ||f||_{V'}^2) e^{rate t}
    # is ||u0||^2 with f = 0 (rate 0), and (||u0||^2 + (t/mu)||f||_{V'}^2)
    # e^{(mu - 2 alpha) t} for steady f: rows whose left-hand side equals it
    # have the slack alone as margin.
    ic = random_band_limited(grid32, seed=19, band_limit=8)
    f = random_band_limited(grid32, seed=20, band_limit=4, amplitude=0.5)
    times, e0 = [0.0, 0.5, 2.0, 3.0], l2_norm(ic) ** 2
    for forcing, f_sq, rate in (
            (Forcing(), 0.0, 0.0),
            (Forcing(f), dual_norm(f) ** 2, DAMPED.mu - 2.0 * DAMPED.alpha)):
        bound = [e0 + t / DAMPED.mu * f_sq for t in times]
        f_int = _forcing_integrals(_energy_rows(times, bound), forcing, dual_norm)
        assert e0 + f_int / DAMPED.mu == pytest.approx(bound, rel=1e-12)
        rows = [b * np.exp(rate * t) for b, t in zip(bound, times)]
        report = check_apriori(_energy_rows(times, rows), DAMPED, forcing)
        assert report.worst_margin == pytest.approx(SLACK, abs=1e-12)


def test_apriori_bound_holds_along_run(grid32):
    ic = random_band_limited(grid32, seed=21, band_limit=8)
    config = SolverConfig(dt=1e-3, t_end=0.5, diagnostics_every=50)
    _, diagnostics = run(ic, DAMPED, config)
    assert diagnostics[0].energy == pytest.approx(l2_norm(ic) ** 2, rel=1e-12)
    report = check_apriori(diagnostics, DAMPED, Forcing())
    assert report.passed and report.samples == len(diagnostics) - 1


def test_apriori_bound_holds_past_one_over_mu_when_forced():
    # A steady Kolmogorov forcing from near rest: u ~ a(t) sin y e_x with
    # a' = F - mu a, whose energy outgrows ||u0||^2 + (t/mu)||f||_{V'}^2
    # once t > 1/mu; the envelope e^{(mu - 2 alpha) t} covers it.
    grid = TorusGrid(dim=2, n_points=16)
    params = CbfParams(mu=1.0, beta=1.0, r=4.0)
    ic = random_band_limited(grid, seed=7, band_limit=2, amplitude=1e-3)
    forcing = Forcing(kolmogorov(grid, mode=1, amplitude=1.0))
    config = SolverConfig(dt=0.01, t_end=6.0, diagnostics_every=50)
    _, diagnostics = run(ic, params, config, forcing)
    report = check_apriori(diagnostics, params, forcing)
    assert report.passed and report.worst_margin > 0.5


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
    # An initial condition whose energy budget overflows stops at t = 0; a
    # finite start whose first update overflows stops in that step.
    grid = TorusGrid(dim=2, n_points=16)
    params = CbfParams(mu=1.0, beta=1.0, r=12.0)
    config = SolverConfig(dt=1e-3, t_end=1e-2)
    ic = random_band_limited(grid, seed=1, band_limit=4, amplitude=1e30)
    with pytest.raises(BlowUpError, match="non-finite energy budget") as err:
        initialize_state(ic, params, config, Forcing())
    assert err.value.last_valid_time == 0.0
    ic = random_band_limited(grid, seed=1, band_limit=4, amplitude=1e-3)
    forcing = Forcing(random_band_limited(grid, seed=2, band_limit=4,
                                          amplitude=1e300))
    config = SolverConfig(dt=1e10, t_end=1e10)
    state = initialize_state(ic, params, config, forcing)
    with pytest.raises(BlowUpError, match="non-finite state") as err:
        step(state)
    assert err.value.last_valid_time == 0.0


def test_nonsolenoidal_ic_projected_with_warning(grid32):
    bad = single_mode(grid32, (1, 0), component=0)
    config = SolverConfig(dt=1e-3, t_end=1e-3, diagnostics_every=1)
    with pytest.warns(UserWarning, match="divergence-free"):
        state, _ = run(bad, DAMPED, config)
    assert divergence_defect(state.u) < 1e-12


def test_cfl_warning(grid32):
    ic = random_band_limited(grid32, seed=23, band_limit=4, amplitude=50.0)
    config = SolverConfig(dt=0.05, t_end=0.05, diagnostics_every=1)
    forcing = Forcing()
    state = initialize_state(ic, NSE, config, forcing)
    with pytest.warns(UserWarning, match="CFL"):
        step(state)


def test_stiff_damping_warning(grid32):
    # r = 6 at amplitude 40: dt*beta*r*max|u|^5 is about 11 at t = 0, past
    # the limit 2 of the first (Euler) step, and still past the limit 1 of
    # the Adams-Bashforth-2 step after it; the CFL number stays below 1.
    params = CbfParams(mu=0.1, beta=1.0, r=6.0)
    ic = random_band_limited(grid32, seed=7, band_limit=8, amplitude=40.0)
    config = SolverConfig(dt=1e-5, t_end=2e-5, scheme="imex_cnab2")
    with pytest.warns(UserWarning, match="explicit damping is stiff") as record:
        run(ic, params, config)
    messages = [str(w.message) for w in record]
    assert len(messages) == 2
    assert messages[0].endswith(">= 2") and messages[1].endswith(">= 1")
    # At amplitude 1 the same run is far from the limit and silent.
    quiet = random_band_limited(grid32, seed=7, band_limit=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        run(quiet, params, config)


def test_galerkin_truncation_confines_modes(grid32):
    ic = random_band_limited(grid32, seed=24, band_limit=8)
    config = SolverConfig(dt=1e-3, t_end=0.02, galerkin_n=4,
                          diagnostics_every=10)
    state, _ = run(ic, DAMPED, config)
    outside = state.u.coeffs * (fa.mode_inf_norm(grid32) > 4)
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
    s1, _ = run(ic, DAMPED, base)
    s2, _ = run(ic, DAMPED, sub)
    assert l2_norm(s1.u - s2.u) < 1e-4 * l2_norm(s1.u)
    with pytest.raises(InvalidArgumentsError):
        SolverConfig(scheme="imex_cnab2", substeps=2)


@pytest.mark.parametrize("dim,n,scheme,substeps,kind", [
    (2, 32, "imex_cnab2", 1, "steady"), (3, 16, "imex_euler", 3, "zero")],
    ids=["2d-dealiased-cnab2", "3d-euler-substeps"])
def test_snapshot_sink_matches_stepped_states(dim, n, scheme, substeps, kind):
    """The sink gets t = 0, every snapshot_every steps and the last step, the
    bytes of ``state.u`` of the states that initialize_state/step give, as
    new fields that the run keeps no reference to."""
    grid = TorusGrid(dim=dim, n_points=n)
    ic = random_band_limited(grid, seed=8, band_limit=4)
    forcing = (Forcing() if kind == "zero" else
               Forcing(random_band_limited(grid, seed=9, band_limit=3)))
    config = SolverConfig(dt=1e-3, t_end=7e-3, scheme=scheme, substeps=substeps,
                          diagnostics_every=2, snapshot_every=3)
    got, refs = [], []

    def sink(t, field):
        got.append((t, field.coeffs.tobytes()))
        refs.append(weakref.ref(field))

    final, _ = run(ic, DAMPED, config, forcing, snapshot=sink)
    state = initialize_state(ic, DAMPED, config, forcing)
    want = [(state.t, state.u.coeffs.tobytes())]
    for m in range(1, 8):
        state = step(state)
        if m % 3 == 0 or m == 7:
            want.append((state.t, state.u.coeffs.tobytes()))
    assert [t for t, _ in want] == pytest.approx([0.0, 3e-3, 6e-3, 7e-3])
    assert got == want
    assert final.coeffs.tobytes() == state.coeffs.tobytes()
    assert all(ref() is None for ref in refs)
    # no sink, no snapshot; snapshot_every = 0 takes none either
    assert run(ic, DAMPED, config, forcing)[0].coeffs.tobytes() == \
        state.coeffs.tobytes()
    got.clear()
    run(ic, DAMPED, SolverConfig(dt=1e-3, t_end=7e-3, scheme=scheme,
                                 substeps=substeps), forcing, snapshot=sink)
    assert got == []


def test_run_memory_does_not_grow_with_the_snapshot_count(grid32):
    """With a snapshot every step and a sink that drops its input, the traced
    peak of a 50-step run exceeds that of a 5-step run by less than one
    field: the run holds no snapshot."""
    ic = random_band_limited(grid32, seed=5, band_limit=6)
    field_bytes = ic.coeffs.nbytes

    def peak(n_steps):
        config = SolverConfig(dt=1e-3, t_end=n_steps * 1e-3,
                              diagnostics_every=10 ** 9, snapshot_every=1)
        tracemalloc.start()
        try:
            run(ic, DAMPED, config, snapshot=lambda t, field: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5)  # fills the per-box caches
    assert peak(50) - peak(5) < field_bytes


def test_forcing_is_projected(grid32):
    raw = single_mode(grid32, (1, 0), component=0)  # not divergence-free
    forcing = Forcing(raw)
    assert divergence_defect(forcing.at(0.0)) < 1e-12
    decaying = Forcing(raw, lambda t: np.exp(-t))
    assert divergence_defect(decaying.at(0.3)) < 1e-12
    assert l2_norm(decaying.at(1.0)) == pytest.approx(
        np.exp(-1.0) * l2_norm(decaying.at(0.0)), rel=1e-12)


class _ProjectedEachCall:
    """Reference analytic forcing: fn(t) Leray-projected on every call."""

    is_zero = False

    def __init__(self, fn):
        self.fn = fn

    def at(self, t):
        return leray_project(self.fn(t))

    def box_coeffs(self, t, box):
        return box.gather(self.at(t).coeffs)


@pytest.mark.parametrize("scheme,substeps,galerkin_n", [("imex_cnab2", 1, 0),
                                                        ("imex_euler", 2, 6)])
def test_analytic_forcing_matches_projection_each_call(grid32, scheme, substeps,
                                                       galerkin_n):
    base = random_band_limited(grid32, seed=3, band_limit=6, project=False)
    profile = lambda t: np.exp(-2.0 * t) * np.cos(5.0 * t)  # noqa: E731
    new = Forcing(base, profile)
    old = _ProjectedEachCall(lambda t: base * float(profile(t)))
    box = band_box(grid32)
    for t in (0.0, 0.3, 1.7):
        assert rel_diff(new.at(t).coeffs, old.at(t).coeffs) < 1e-12
        assert rel_diff(new.box_coeffs(t, box), old.box_coeffs(t, box)) < 1e-12
    config = SolverConfig(dt=2e-3, t_end=2e-2, scheme=scheme, substeps=substeps,
                          galerkin_n=galerkin_n, diagnostics_every=2)
    ic = random_band_limited(grid32, seed=4, band_limit=6)
    _, got = run(ic, DAMPED, config, new)
    _, ref = run(ic, DAMPED, config, old)
    for a, b in zip(got, ref):
        assert abs(a.energy - b.energy) <= 1e-12 * b.energy
        assert abs(a.forcing_power - b.forcing_power) <= 1e-12 * abs(b.forcing_power)
        assert abs(a.energy_residual - b.energy_residual) <= 1e-14 * ref[0].energy


@pytest.mark.parametrize("band", [dict(dealias=False), dict(galerkin_n=6),
                                  dict(galerkin_n=10, galerkin_shape="ball"),
                                  dict(galerkin_shape="ball")],
                         ids=["dealias-off", "galerkin-box", "galerkin-ball",
                              "ball-without-radius"])
def test_state_steps_on_its_band_and_keeps_its_problem(grid32, band):
    # The state is the one owner of its trajectory's problem: each step runs
    # on the band its config selects and hands the problem on.
    config = SolverConfig(**band)
    forcing = Forcing(random_band_limited(grid32, seed=3, band_limit=4))
    state = initialize_state(random_band_limited(grid32, seed=2, band_limit=6),
                             DAMPED, config, forcing)
    states = [state]
    for _ in range(3):
        states.append(step(states[-1]))
    box = band_box(grid32, config.dealias, config.galerkin_n,
                   config.galerkin_shape)
    for s in states:
        assert s.box is box and s.params is DAMPED
        assert s.config is config and s.forcing is forcing
    if band == dict(galerkin_shape="ball"):
        # Without a radius, a ball shape names the default box.
        assert box is band_box(grid32)


def test_no_forcing_is_spelled_none_everywhere(grid32):
    # None is the unforced problem wherever a forcing is taken, and the same
    # trajectory as Forcing().
    ic = random_band_limited(grid32, seed=2, band_limit=6)
    config = SolverConfig(dt=1e-3, t_end=3e-3)
    states = [initialize_state(ic, DAMPED, config, f)
              for f in (None, Forcing())]
    assert states[0].forcing.is_zero
    for _ in range(3):
        states = [step(s) for s in states]
    assert np.array_equal(states[0].coeffs, states[1].coeffs)
    assert run(ic, DAMPED, config, None)[1] == run(ic, DAMPED, config)[1]


@pytest.mark.parametrize("forcing_grid", [dict(n_points=64), dict(period=1.0)],
                         ids=["other-n", "other-period"])
def test_forcing_on_another_grid_rejected(grid32, forcing_grid):
    # The state's box would gather the forcing's coefficients as if they
    # were on the initial condition's grid.
    other = dataclasses.replace(grid32, **forcing_grid)
    forcing = Forcing(kolmogorov(other))
    with pytest.raises(GridMismatchError):
        initialize_state(random_band_limited(grid32, seed=2, band_limit=6),
                         DAMPED, SolverConfig(), forcing)
    with pytest.raises(GridMismatchError):
        run(random_band_limited(grid32, seed=2, band_limit=6), DAMPED,
            SolverConfig(dt=1e-3, t_end=1e-3), forcing)


def test_restricted_forcing_needs_the_same_period(grid32):
    # Restriction keeps the modes of the forcing's torus: a coarser grid on
    # another period is another torus.
    forcing = Forcing(random_band_limited(grid32, seed=9, band_limit=3))
    with pytest.raises(InvalidArgumentsError, match="coarsen"):
        forcing.restricted(TorusGrid(dim=2, n_points=16, period=3.0))


def test_step_count_bound_is_2_53():
    SolverConfig(dt=1.0, t_end=2.0 ** 53)
    with pytest.raises(InvalidArgumentsError, match="exceeds 2"):
        SolverConfig(dt=1.0, t_end=2.0 ** 54)


def test_config_validation():
    with pytest.raises(InvalidArgumentsError):
        SolverConfig(dt=0.0)
    with pytest.raises(InvalidArgumentsError):
        SolverConfig(t_end=-1.0)
    with pytest.raises(InvalidArgumentsError):
        SolverConfig(scheme="rk4")
    with pytest.raises(InvalidArgumentsError):
        SolverConfig(diagnostics_every=0)


@pytest.mark.parametrize("band", [dict(galerkin_n=-3), dict(galerkin_shape="cube")],
                         ids=["negative-n", "unknown-shape"])
def test_bad_galerkin_band_rejected(band):
    # Both were accepted: n < 0 ran untruncated, an unknown shape failed
    # only at the first step with n > 0.
    with pytest.raises(InvalidArgumentsError):
        SolverConfig(**band)
