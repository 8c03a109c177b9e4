"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Sample counts, tolerances, and parameter grids are pinned
here; nothing is deferred to later calibration.
"""

import functools
import time

import numpy as np
import pytest

from cbftorus import cli
from cbftorus.families import (random_band_limited, single_mode, taylor_green,
                               taylor_green_exact)
from cbftorus.fields import to_physical
from cbftorus.grid import TorusGrid
from cbftorus.operators import CbfParams
from cbftorus.snapshot import read_snapshot_file, write_snapshot_file
from cbftorus.solver import SolverConfig, run
from cbftorus.spectral import exp_filter, l2_norm, truncate_modes
from cbftorus.verification import (FieldSampler, check_apriori,
                                   check_continuous_dependence,
                                   check_damping_lipschitz,
                                   check_damping_monotone,
                                   check_dissipation_identity,
                                   check_filter_props, check_interpolation,
                                   check_monotone_critical,
                                   check_monotone_shifted,
                                   check_pointwise_mvt, check_regularity,
                                   gronwall_envelope,
                                   nonlinear_gronwall_envelope)

GRID64 = TorusGrid(dim=2, n_points=64)
GRID32 = TorusGrid(dim=2, n_points=32)


class _DrawOnce(FieldSampler):
    """A sampler that draws each seed once: a draw is a pure function of its
    seed and a field is read-only, so a repeated draw hands back the first."""

    @functools.lru_cache(maxsize=None)
    def field_from_seed(self, s, stream=None):
        return super().field_from_seed(s, stream)


# Criteria 03, 04 and 08 draw the same seeds, for each of their configs.
SAMPLER32 = _DrawOnce(grid=GRID32, seed=42, band_limit=8)


def announce(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:>2} {status}: {description}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {number} failed: {description} {detail}"


# ---------------------------------------------------------------------------
# shared trajectory runs (criteria 1, 2, 7)


@pytest.fixture(scope="module")
def taylor_green_run():
    params = CbfParams(mu=0.1, alpha=0.0, beta=0.0, r=3.0)
    config = SolverConfig(dt=1e-3, t_end=1.0, scheme="imex_cnab2",
                          diagnostics_every=100)
    start = time.perf_counter()
    state, diagnostics = run(taylor_green(GRID64), params, config)
    elapsed = time.perf_counter() - start
    return params, state, diagnostics, elapsed


@pytest.fixture(scope="module")
def damped_refinement_runs():
    params = CbfParams(mu=0.1, alpha=0.0, beta=1.0, r=4.0)
    ic = random_band_limited(GRID64, seed=2026, band_limit=8)
    start = time.perf_counter()
    results = {}
    for dt in (4e-3, 2e-3, 1e-3):
        config = SolverConfig(dt=dt, t_end=1.0, scheme="imex_cnab2",
                              diagnostics_every=max(1, int(round(0.05 / dt))))
        results[dt] = run(ic, params, config, extended=True)[1]
    elapsed = time.perf_counter() - start
    return params, ic, results, elapsed


def test_criterion_01_taylor_green_exactness(taylor_green_run):
    params, state, _, elapsed = taylor_green_run
    exact = taylor_green_exact(GRID64, params.mu, state.t)
    err = (np.max(np.abs(to_physical(state.u).data - exact.data))
           / np.max(np.abs(exact.data)))
    announce(1, "Taylor-Green exactness (NSE limit)",
             err < 1e-6 and elapsed < 10.0,
             f"max rel error {err:.3e}, runtime {elapsed:.1f}s")


def test_criterion_02_energy_identity_refinement(damped_refinement_runs):
    _, _, results, elapsed = damped_refinement_runs
    dts = (4e-3, 2e-3, 1e-3)
    defects = [abs(results[dt][-1].energy_residual) for dt in dts]
    orders = [np.log(a / b) / np.log(da / db)
              for (a, b, da, db) in zip(defects, defects[1:], dts, dts[1:])]
    announce(2, "energy-identity defect refines at order >= 1.9",
             all(p >= 1.9 for p in orders) and elapsed < 60.0,
             f"defects {[f'{d:.2e}' for d in defects]}, "
             f"orders {[f'{p:.2f}' for p in orders]}, runtime {elapsed:.0f}s")


def test_criterion_03_monotonicity_suite():
    worst = np.inf
    slowest = 0.0
    for r in (3.5, 4.0, 5.0):
        for mu in (0.5, 1.0):
            for beta in (0.5, 1.0):
                start = time.perf_counter()
                report = check_monotone_shifted(
                    SAMPLER32, CbfParams(mu=mu, beta=beta, r=r), 500)
                slowest = max(slowest, time.perf_counter() - start)
                worst = min(worst, report.worst_margin)
                assert report.passed, (r, mu, beta, report.worst_margin)
    announce(3, "shifted monotonicity, 12 configs x 500 pairs",
             worst >= -1e-9 and slowest < 30.0,
             f"worst margin {worst:.2e}, slowest config {slowest:.1f}s")


def test_criterion_04_critical_monotonicity():
    worst = np.inf
    for mu, beta in ((1.0, 0.5), (1.0, 1.0), (2.0, 0.5)):
        report = check_monotone_critical(
            SAMPLER32, CbfParams(mu=mu, beta=beta, r=3.0), 500)
        assert not report.exploratory
        assert report.passed, (mu, beta, report.worst_margin)
        worst = min(worst, report.worst_margin)
    announce(4, "critical-case monotonicity, 3 configs x 500 pairs",
             worst >= -1e-9, f"worst margin {worst:.2e}")


def test_criterion_05_dissipation_identity_and_chain():
    sampler = FieldSampler(grid=GRID64, seed=42, band_limit=8)
    worst = np.inf
    for r in (3.0, 5.0):
        report = check_dissipation_identity(sampler, r, 200)
        assert not report.exploratory
        assert report.passed, (r, report.worst_margin)
        worst = min(worst, report.worst_margin)
    announce(5, "identity forms within 1e-6 and ordering chain, r in {3, 5}",
             worst >= 0.0, f"worst margin {worst:.2e}")


def test_criterion_06_continuous_dependence():
    ic = random_band_limited(GRID32, seed=7, band_limit=8)
    delta = random_band_limited(GRID32, seed=8, band_limit=8, amplitude=1e-3)
    config = SolverConfig(dt=1e-3, t_end=0.5, scheme="imex_cnab2",
                          diagnostics_every=10)
    r5 = check_continuous_dependence(CbfParams(mu=1.0, beta=1.0, r=5.0),
                                     config, ic, delta)
    r3 = check_continuous_dependence(CbfParams(mu=1.0, beta=1.0, r=3.0),
                                     config, ic, delta)
    announce(6, "continuous dependence envelopes (r=5 growth, r=3 flat)",
             r5.passed and r3.passed,
             f"margins {r5.worst_margin:.2e} / {r3.worst_margin:.2e}")


def test_criterion_07_apriori_and_regularity(taylor_green_run,
                                             damped_refinement_runs):
    params_tg, _, diag_tg, _ = taylor_green_run
    params_d, _, results, _ = damped_refinement_runs
    ok, details = True, []

    rep = check_apriori(diag_tg, params_tg)
    ok &= rep.passed
    details.append(f"apriori(tg) {rep.worst_margin:.1e}")
    for dt, diagnostics in results.items():
        rep = check_apriori(diagnostics, params_d)
        ok &= rep.passed
        rep = check_regularity(diagnostics, params_d)
        ok &= rep.passed
    details.append("apriori+regularity(r=4 runs) ok")

    # dedicated r=5 Taylor-Green run with extended diagnostics
    params5 = CbfParams(mu=1.0, alpha=0.0, beta=1.0, r=5.0)
    config = SolverConfig(dt=1e-3, t_end=0.5, diagnostics_every=50)
    _, diag5 = run(taylor_green(GRID64), params5, config, extended=True)
    rep_a = check_apriori(diag5, params5)
    rep_r = check_regularity(diag5, params5)
    ok &= rep_a.passed and rep_r.passed
    details.append(f"r=5 TG regularity {rep_r.worst_margin:.1e}")
    announce(7, "a-priori and gradient bounds along trajectories", ok,
             "; ".join(details))


def test_criterion_08_nonlinear_operator_estimates():
    sampler = SAMPLER32
    reports = [
        check_damping_monotone(sampler, 5.0, 500),
        check_damping_monotone(sampler, 3.5, 500),
        check_damping_lipschitz(sampler, 5.0, 500),
        check_damping_lipschitz(sampler, 3.5, 500),
        check_pointwise_mvt(sampler, 5.0, 500),
        check_pointwise_mvt(sampler, 2.5, 500),
        check_interpolation(sampler, 2.0, 4.0, 6.0, 500),
        check_interpolation(sampler, 2.0, 4.0, 8.0, 500),
    ]
    worst = min(r.worst_margin for r in reports)
    announce(8, "damping monotonicity/Lipschitz, MVT, interpolation x 500",
             all(r.passed for r in reports), f"worst margin {worst:.2e}")


def test_criterion_09_filter_properties():
    sampler = FieldSampler(grid=GRID64, seed=42, band_limit=8)
    report = check_filter_props(sampler, 50)

    # band-limit bound with Lambda = 64: ball-truncated field, max |k|^2 = 64
    u = truncate_modes(random_band_limited(GRID64, seed=3, band_limit=8),
                       8, shape="ball")
    residual = l2_norm(u - exp_filter(u, 4000.0))
    bound_ok = residual <= 64.0 / 4000.0 * l2_norm(u)

    mode = single_mode(GRID64, (2, 0), component=1)  # |k|^2 = 4
    ratio = l2_norm(mode - exp_filter(mode, 4000.0)) / l2_norm(mode)
    mode_ok = (abs(ratio - (1.0 - np.exp(-0.001))) < 1e-12) and ratio <= 1e-3

    announce(9, "filter non-expansive, residual decreasing, band bound",
             report.passed and bound_ok and mode_ok,
             f"single-mode residual ratio {ratio:.6e}")


def test_criterion_10_gronwall_envelopes():
    t = np.linspace(0.0, 1.0, 2001)
    ok = True

    a0, f1, f2 = 0.7, 0.8, 1.3
    y = (a0 + f1 / f2) * np.exp(f2 * t) - f1 / f2
    env = gronwall_envelope(a0, np.full_like(t, f1), np.full_like(t, f2), t)
    ok &= bool(np.all(env * (1 + 1e-8) >= y))

    c, a, b, alpha = 0.5, 0.9, 0.6, 0.5
    y = ((np.sqrt(c) + b / a) * np.exp(0.5 * a * t) - b / a) ** 2
    env = nonlinear_gronwall_envelope(c, np.full_like(t, a),
                                      np.full_like(t, b), alpha, t)
    ok &= bool(np.all(env * (1 + 1e-8) >= y))

    b_var = 0.4 + 0.3 * np.sin(2 * np.pi * t) ** 2
    lin = gronwall_envelope(c, b_var, np.zeros_like(t), t)
    nonlin = nonlinear_gronwall_envelope(c, np.zeros_like(t), b_var, 0.0, t)
    degeneracy = float(np.max(np.abs(lin - nonlin) / lin))
    ok &= degeneracy <= 1e-10

    announce(10, "Gronwall envelopes dominate ODE oracles, alpha=0 degeneracy",
             ok, f"degeneracy mismatch {degeneracy:.1e}")


def test_criterion_11_determinism_and_restart(tmp_path):
    config_text = """
[grid]
dim = 2
n = 64

[params]
mu = 0.1
beta = 1.0
r = 4.0

[solver]
dt = 0.001
t_end = 0.2
diagnostics_every = 20

[ic]
family = random
seed = 12
band_limit = 8
"""
    cfg = tmp_path / "run.ini"
    cfg.write_text(config_text)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", "--config", str(cfg), "--out", out_a]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", out_b]) == 0
    identical = ((tmp_path / "a" / "diagnostics.tsv").read_bytes()
                 == (tmp_path / "b" / "diagnostics.tsv").read_bytes())

    params = CbfParams(mu=0.1, beta=1.0, r=4.0)
    ic = random_band_limited(GRID64, seed=12, band_limit=8)
    restart_ok, details = True, [f"determinism {'ok' if identical else 'BAD'}"]
    for scheme, tol in (("imex_euler", 1e-12), ("imex_cnab2", 1e-6)):
        full = SolverConfig(dt=1e-3, t_end=1.0, scheme=scheme,
                            diagnostics_every=10 ** 9)
        half = SolverConfig(dt=1e-3, t_end=0.5, scheme=scheme,
                            diagnostics_every=10 ** 9)
        s_full, _ = run(ic, params, full)
        s_half, _ = run(ic, params, half)
        snap = tmp_path / f"{scheme}.snap"
        write_snapshot_file(snap, s_half.u, s_half.t, params)
        field, _, params_in = read_snapshot_file(snap)
        s_resumed, _ = run(field, params_in, half)
        diff = l2_norm(s_resumed.u - s_full.u) / l2_norm(s_full.u)
        restart_ok &= diff <= tol
        details.append(f"{scheme} restart diff {diff:.2e} (tol {tol:g})")
    announce(11, "byte-identical reruns and snapshot restart consistency",
             identical and restart_ok, "; ".join(details))
