"""3D smoke coverage and mean-mode evolution."""

import numpy as np
import pytest

from cbftorus.families import random_band_limited
from cbftorus.fields import PhysicalField, to_physical, to_spectral
from cbftorus.grid import TorusGrid
from cbftorus.operators import CbfParams, advection, damping, stokes
from cbftorus.solver import SolverConfig, run
from cbftorus.spectral import (divergence_defect, grad_norm, l2_norm,
                               l2_pairing, leray_project, lp_norm)


@pytest.fixture(scope="module")
def grid3():
    return TorusGrid(dim=3, n_points=16)


def test_3d_round_trip_and_projection(grid3):
    u = random_band_limited(grid3, seed=61, band_limit=4)
    assert divergence_defect(u) < 1e-12
    phys = to_physical(u)
    back = to_spectral(phys)
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-13
    pu = leray_project(u)
    assert np.max(np.abs(pu.coeffs - u.coeffs)) < 1e-14


def test_3d_operator_identities(grid3):
    u = random_band_limited(grid3, seed=62, band_limit=4)
    v = random_band_limited(grid3, seed=63, band_limit=4)
    assert l2_pairing(stokes(u), u) == pytest.approx(grad_norm(u) ** 2,
                                                     rel=1e-12)
    scale = l2_norm(u) * grad_norm(v) * l2_norm(v)
    assert abs(l2_pairing(advection(u, v), v)) < 1e-10 * scale
    r = 4.0
    assert l2_pairing(damping(u, r), u) == pytest.approx(
        lp_norm(u, r + 1) ** (r + 1), rel=1e-8)


def test_3d_short_run_dissipates(grid3):
    params = CbfParams(mu=0.5, beta=1.0, r=3.0)
    config = SolverConfig(dt=2e-3, t_end=0.05, diagnostics_every=5)
    ic = random_band_limited(grid3, seed=64, band_limit=4)
    state, diagnostics = run(ic, params, config)
    assert divergence_defect(state.u) < 1e-10
    assert diagnostics[-1].energy < diagnostics[0].energy
    # budget defect is quadrature-limited at this stiffness: O((lambda*dt)^2)
    assert abs(diagnostics[-1].energy_residual) < 1e-3 * diagnostics[0].energy


def test_mean_mode_evolves_under_darcy_and_damping(grid32):
    # constant field: advection vanishes, the mean obeys
    # du/dt + alpha u + beta |u|^{r-1} u = 0, Euler-discretized exactly
    c0 = 0.8
    data = np.zeros((2,) + grid32.shape)
    data[0] = c0
    ic = to_spectral(PhysicalField(grid32, data))
    params = CbfParams(mu=1.0, alpha=0.3, beta=0.5, r=3.0)
    dt, steps = 1e-2, 10
    config = SolverConfig(dt=dt, t_end=dt * steps, scheme="imex_euler",
                          diagnostics_every=steps)
    state, _ = run(ic, params, config)
    c = c0
    for _ in range(steps):
        c = (c - dt * params.beta * abs(c) ** (params.r - 1) * c) \
            / (1.0 + dt * params.alpha)
    mean = state.u.coeffs[0][0, 0].real
    assert mean == pytest.approx(c, rel=1e-12)


def test_mean_forcing_accumulates(grid32):
    # constant forcing drives the mean mode like any other mode
    data = np.zeros((2,) + grid32.shape)
    data[1] = 0.25
    from cbftorus.solver import Forcing
    forcing = Forcing(to_spectral(PhysicalField(grid32, data)))
    params = CbfParams(mu=1.0, alpha=0.0, beta=1e-12, r=3.0)
    config = SolverConfig(dt=1e-2, t_end=0.1, scheme="imex_euler",
                          diagnostics_every=10)
    state, _ = run(to_spectral(PhysicalField(grid32,
                                             np.zeros((2,) + grid32.shape))),
                   params, config, forcing)
    assert state.u.coeffs[1][0, 0].real == pytest.approx(0.25 * 0.1, rel=1e-6)
