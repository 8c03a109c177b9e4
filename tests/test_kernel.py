"""The real-transform nonlinear kernel against the complex convective pipeline
it replaced, exact 2/3-rule dealiasing for every N, and the solver's cache of
physical samples."""

import numpy as np
import pytest

from cbftorus.families import random_band_limited
from cbftorus.fields import PhysicalField, SpectralField, to_physical, to_spectral
from cbftorus.grid import TorusGrid
from cbftorus.operators import CbfParams, nonlinear_term, recover_pressure
from cbftorus.solver import (Forcing, SimulationState, SolverConfig,
                             compute_rates, initialize_state, step)
from cbftorus.spectral import dealias, embed_modes, leray_project, truncation_mask

from conftest import rel_diff


def _reference_nonlinear(u, params, apply_dealias=True, galerkin_n=0,
                         galerkin_shape="box", project=True):
    """Convective (u.grad)u + beta|u|^{r-1}u through complex fftn/ifftn:
    restrict u, invert u and its Jacobian, multiply, transform, restrict the
    result, Leray-project."""
    grid = u.grid
    d, norm = grid.dim, grid.n_points ** grid.dim
    axes = tuple(range(1, d + 1))
    mask = np.ones(grid.shape, dtype=bool)
    if apply_dealias:
        mask &= grid.dealias_mask
    if galerkin_n > 0:
        mask &= truncation_mask(grid, galerkin_n, galerkin_shape)
    c = u.coeffs * mask
    u_phys = np.fft.ifftn(c * norm, axes=axes).real
    k = grid.wavenumbers
    jac = np.stack([np.stack([1j * k[a] * c[i] for a in range(d)])
                    for i in range(d)])
    jac_phys = np.fft.ifftn(jac * norm, axes=tuple(range(2, d + 2))).real
    term = np.einsum("i...,ji...->j...", u_phys, jac_phys)
    mag = np.sqrt(np.sum(u_phys ** 2, axis=0))
    if params.r == 1.0:
        weight = np.ones_like(mag)
    else:
        weight = np.where(mag > 0, np.where(mag > 0, mag, 1.0) ** (params.r - 1.0),
                          0.0)
    term = term + params.beta * weight * u_phys
    out = SpectralField(grid, np.fft.fftn(term, axes=axes) / norm * mask)
    return (leray_project(out) if project else out), u_phys


def _full_band_field(grid, seed):
    """Divergence-free field with every mode populated, Nyquist included."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((grid.dim,) + grid.shape)
    return leray_project(to_spectral(PhysicalField(grid, data)))


GRIDS = [TorusGrid(dim=2, n_points=24), TorusGrid(dim=3, n_points=12)]


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("apply_dealias", [True, False])
@pytest.mark.parametrize("galerkin", [(0, "box"), (3, "box"), (4, "ball")])
@pytest.mark.parametrize("r", [1.0, 3.0, 3.5, 4.0])
def test_kernel_matches_convective_reference(grid, apply_dealias, galerkin, r):
    u = _full_band_field(grid, seed=5)
    params = CbfParams(mu=0.1, beta=0.7, r=r)
    for project in (True, False):
        got, got_phys = nonlinear_term(u, params, apply_dealias, *galerkin,
                                       project=project)
        ref, ref_phys = _reference_nonlinear(u, params, apply_dealias,
                                             *galerkin, project=project)
        assert rel_diff(got.coeffs, ref.coeffs) < 1e-12
        assert rel_diff(got_phys, ref_phys) < 1e-12
        assert got.coeffs.shape == (grid.dim,) + grid.shape
        assert got.divergence_free == project


def test_kernel_uses_given_samples(grid3d):
    u = random_band_limited(grid3d, seed=3, band_limit=4)
    params = CbfParams(mu=0.1, beta=1.0, r=4.0)
    fresh, samples = nonlinear_term(u, params)
    cached, same = nonlinear_term(u, params, u_phys=samples)
    assert same is samples
    assert np.array_equal(cached.coeffs, fresh.coeffs)


def test_recover_pressure_matches_convective_reference(grid32):
    u = _full_band_field(grid32, seed=8)
    params = CbfParams(mu=0.1, beta=0.5, r=3.5)
    f = _full_band_field(grid32, seed=9)
    for apply_dealias in (True, False):
        p = recover_pressure(u, f, params, apply_dealias)
        rhs, _ = _reference_nonlinear(u, params, apply_dealias, project=False)
        k, k2 = grid32.wavenumbers, grid32.k_squared
        div_src = sum(1j * k[i] * (f.coeffs[i] - rhs.coeffs[i]) for i in range(2))
        ref = np.where(k2 > 0, -div_src / np.where(k2 > 0, k2, 1.0), 0.0)
        assert rel_diff(p.coeffs[0], ref) < 1e-12


# ---------------------------------------------------------------------------
# exact dealiasing


def _padded_product(f, g, pad):
    """Alias-free product of two band-limited scalars, computed on a grid
    ``pad`` times finer and read back at the coarse mode indices."""
    coarse = f.grid
    fine = TorusGrid(coarse.dim, coarse.n_points * pad, coarse.period)
    prod = (to_physical(embed_modes(f, fine)).data
            * to_physical(embed_modes(g, fine)).data)
    fine_coeffs = to_spectral(PhysicalField(fine, prod)).coeffs[0]
    idx = np.ix_(*([coarse.modes % fine.n_points] * coarse.dim))
    return fine_coeffs[idx]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [24, 30, 32, 48, 64])
def test_two_thirds_rule_is_exact(dim, n):
    grid = TorusGrid(dim=dim, n_points=n)
    rng = np.random.default_rng(n + dim)
    f, g = (dealias(to_spectral(PhysicalField(grid, rng.standard_normal(grid.shape))))
            for _ in range(2))
    got = dealias(to_spectral(PhysicalField(
        grid, to_physical(f).data * to_physical(g).data))).coeffs[0]
    # The product has |m_i| <= 2K, K = (N-1)//3, so any grid of more than
    # 4K points resolves it; 4N in 2D, 2N in 3D to bound the memory.
    pad = 4 if dim == 2 else 2
    ref = _padded_product(f, g, pad) * grid.dealias_mask
    assert rel_diff(got, ref) < 1e-13


# ---------------------------------------------------------------------------
# solver: one inverse transform of u per step


@pytest.mark.parametrize("scheme,substeps", [("imex_cnab2", 1), ("imex_euler", 3)])
def test_cached_samples_match_state(grid3d, scheme, substeps):
    params = CbfParams(mu=0.1, beta=1.0, r=3.5)
    config = SolverConfig(dt=1e-3, t_end=1.0, scheme=scheme, substeps=substeps,
                          galerkin_n=4)
    forcing = Forcing.zero()
    state = initialize_state(random_band_limited(grid3d, seed=2, band_limit=5),
                             params, config, forcing)
    for _ in range(3):
        assert np.array_equal(state.u_phys, to_physical(state.u).data)
        state = step(state, params, config, forcing)
    assert np.array_equal(state.u_phys, to_physical(state.u).data)


def test_user_built_state_is_not_cached(grid32):
    # Outside the solver's band, the samples of u are not the samples of the
    # restricted u that the kernel needs, so no state built by hand caches.
    params = CbfParams(mu=0.1, beta=1.0, r=4.0)
    config = SolverConfig(dt=1e-3, t_end=1.0)
    u = leray_project(_full_band_field(grid32, seed=6))
    rates = compute_rates(u, 0.0, params, Forcing.zero())
    state = SimulationState(t=0.0, u=u, rates=rates)
    state = step(state, params, config, Forcing.zero())
    assert state.u_phys is None


@pytest.mark.parametrize("dim,expected", [(2, 5), (3, 9)])
def test_transforms_per_cnab2_step(monkeypatch, dim, expected):
    grid = TorusGrid(dim=dim, n_points=16)
    params = CbfParams(mu=0.1, beta=1.0, r=4.0)
    config = SolverConfig(dt=1e-3, t_end=1.0)
    forcing = Forcing.zero()
    state = initialize_state(random_band_limited(grid, seed=1, band_limit=4),
                             params, config, forcing)
    state = step(state, params, config, forcing)
    count = []
    for name in ("rfftn", "irfftn", "fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, **kwargs):
            count.append(int(np.prod(np.shape(a)[:-dim])))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    step(state, params, config, forcing)
    assert sum(count) == expected
