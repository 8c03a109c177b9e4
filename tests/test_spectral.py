"""Projection, calculus, filtering, truncation, and norm identities."""

import numpy as np
import pytest

from cbftorus.errors import (GridMismatchError, InvalidArgumentsError,
                             InvalidExponentError)
from cbftorus.families import random_band_limited, single_mode
from cbftorus.fields import (PhysicalField, SpectralField, band_box, conj_mirror,
                             to_physical, to_spectral)
from cbftorus.grid import TorusGrid
from cbftorus.spectral import (dealias, divergence, divergence_defect,
                               dual_norm, embed_modes, exp_filter, grad_norm,
                               gradient, h1_norm, l2_norm, l2_pairing,
                               laplacian, leray_project, lp_norm,
                               truncate_modes)


def scalar_field(grid, data):
    return to_spectral(PhysicalField(grid, data[np.newaxis]))


# ---------------------------------------------------------------------------
# Leray projection


def test_gradient_fields_are_annihilated(grid32):
    x, y = grid32.meshgrid()
    q = np.sin(x) * np.cos(2 * y) + 0.3 * np.cos(3 * x)
    grad_q = gradient(scalar_field(grid32, q))
    projected = leray_project(grad_q)
    assert l2_norm(projected) < 1e-13 * l2_norm(grad_q)


def test_divergence_free_fields_unchanged(random_field):
    projected = leray_project(random_field)
    assert np.max(np.abs(projected.coeffs - random_field.coeffs)) < 1e-14


def test_projection_idempotent_and_divergence_free(grid32):
    rng = np.random.default_rng(11)
    data = rng.standard_normal((2,) + grid32.shape)
    u = to_spectral(PhysicalField(grid32, data))
    pu = leray_project(u)
    assert divergence_defect(pu) < 1e-12
    ppu = leray_project(pu)
    assert np.max(np.abs(ppu.coeffs - pu.coeffs)) < 1e-14 * l2_norm(u)


def test_projection_orthogonality(grid32):
    rng = np.random.default_rng(12)
    u = to_spectral(PhysicalField(grid32, rng.standard_normal((2,) + grid32.shape)))
    pu = leray_project(u)
    assert abs(l2_pairing(pu, u - pu)) < 1e-12 * l2_norm(u) ** 2


# ---------------------------------------------------------------------------
# differential calculus


def test_laplacian_eigenfunction(grid32):
    u = single_mode(grid32, (1, 0), component=0)
    k1 = 2.0 * np.pi / grid32.period
    lap = laplacian(u)
    assert np.max(np.abs(lap.coeffs + k1 ** 2 * u.coeffs)) < 1e-14


def test_divergence_free_trig_pair(grid32):
    x, y = grid32.meshgrid()
    data = np.stack([np.sin(y), np.sin(x)])
    div = divergence(to_spectral(PhysicalField(grid32, data)))
    assert l2_norm(div) < 1e-13


def test_gradient_matches_sixth_order_finite_differences():
    # spectral derivative is exact; the FD stencil approaches it at O(h^6)
    errors = {}
    for n in (32, 64):
        grid = TorusGrid(dim=2, n_points=n)
        x, y = grid.meshgrid()
        f = np.sin(3 * x) * np.cos(2 * y) + np.cos(x + 4 * y)
        spec = to_physical(gradient(scalar_field(grid, f))).data[0]
        h = grid.period / n
        fd = (-np.roll(f, 3, axis=0) + 9 * np.roll(f, 2, axis=0)
              - 45 * np.roll(f, 1, axis=0) + 45 * np.roll(f, -1, axis=0)
              - 9 * np.roll(f, -2, axis=0) + np.roll(f, -3, axis=0)) / (60 * h)
        errors[n] = np.max(np.abs(spec - fd))
    order = np.log2(errors[32] / errors[64])
    assert 5.5 < order < 6.5


# ---------------------------------------------------------------------------
# dealiasing


def test_dealias_keeps_band_and_kills_tail(grid32):
    inside = single_mode(grid32, (10, 3))  # floor(32/3) = 10
    assert np.max(np.abs(dealias(inside).coeffs - inside.coeffs)) == 0.0
    outside = single_mode(grid32, (11, 0))
    assert np.max(np.abs(dealias(outside).coeffs)) == 0.0


def test_dealiased_product_matches_direct_convolution():
    grid = TorusGrid(dim=2, n_points=16)
    band = grid.n_points // 3  # 5
    rng = np.random.default_rng(4)
    fields = []
    for _ in range(2):
        raw = rng.standard_normal((1,) + grid.shape) \
            + 1j * rng.standard_normal((1,) + grid.shape)
        m = np.abs(grid.modes)
        mask = np.maximum(m[:, None], m[None, :]) <= band
        c = raw[0] * mask
        c = 0.5 * (c + conj_mirror(c, (0, 1)))
        fields.append(SpectralField.from_full(grid, c[np.newaxis]))
    f, g = fields
    product = to_physical(f).data[0] * to_physical(g).data[0]
    pseudo = dealias(scalar_field(grid, product)).full()[0]

    fc, gc = f.full()[0], g.full()[0]
    n = grid.n_points
    exact = np.zeros(grid.shape, dtype=complex)
    idx = [(mx, my) for mx in range(-band, band + 1)
           for my in range(-band, band + 1)]
    for px, py in idx:
        for qx, qy in idx:
            mx, my = px + qx, py + qy
            if max(abs(mx), abs(my)) <= band:
                exact[mx % n, my % n] += fc[px % n, py % n] * gc[qx % n, qy % n]
    assert np.max(np.abs(pseudo - exact)) < 1e-13


# ---------------------------------------------------------------------------
# Galerkin truncation


def test_truncation_identity_and_mean_mode(random_field):
    n_half = random_field.grid.n_points // 2
    assert np.array_equal(truncate_modes(random_field, n_half).coeffs,
                          random_field.coeffs)
    only_mean = truncate_modes(random_field, 0)
    nonzero = np.abs(only_mean.coeffs) > 0
    keep = np.zeros_like(nonzero)
    keep[:, 0, 0] = True
    assert not np.any(nonzero & ~keep)


def test_truncation_tail_decreases_and_pythagoras(grid32):
    u = random_band_limited(grid32, seed=9, band_limit=10, spectrum_slope=1.5)
    tails = [l2_norm(u - truncate_modes(u, n)) for n in range(0, 11)]
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))
    assert tails[-1] < 1e-14
    for n in (2, 5, 8):
        rn = truncate_modes(u, n)
        assert (l2_norm(rn) ** 2 + l2_norm(u - rn) ** 2
                == pytest.approx(l2_norm(u) ** 2, rel=1e-12))


def test_ball_truncation_shape(grid32):
    corner = single_mode(grid32, (3, 3))
    assert l2_norm(truncate_modes(corner, 3, shape="box")) > 0
    assert l2_norm(truncate_modes(corner, 3, shape="ball")) == 0.0
    with pytest.raises(InvalidArgumentsError):
        truncate_modes(corner, 3, shape="hex")


# ---------------------------------------------------------------------------
# exponential filter


def test_filter_nonexpansive_and_zero(random_field, grid32):
    for n in (1, 10, 1e3):
        assert l2_norm(exp_filter(random_field, n)) <= l2_norm(random_field)
    assert l2_norm(exp_filter(SpectralField(grid32, np.zeros((2,) + grid32.half_shape)),
                              10.0)) == 0.0
    with pytest.raises(InvalidArgumentsError):
        exp_filter(random_field, 0.0)


def test_filter_single_mode_residual():
    grid = TorusGrid(dim=2, n_points=32)
    u = single_mode(grid, (2, 0), component=1)  # |k|^2 = 4
    filtered = exp_filter(u, 4000.0)
    residual = l2_norm(u - filtered) / l2_norm(u)
    assert residual == pytest.approx(1.0 - np.exp(-0.001), abs=1e-12)
    assert residual <= 1e-3


def test_filter_band_limit_bound(grid32):
    u = random_band_limited(grid32, seed=21, band_limit=8)
    cover = band_box(grid32, False)
    lam = float(np.max(cover.k_squared[np.abs(u.coeffs[0]) +
                                       np.abs(u.coeffs[1]) > 0]))
    for n in (10.0 * lam, 100.0 * lam):
        residual = l2_norm(u - exp_filter(u, n))
        assert residual <= lam / n * l2_norm(u) + 1e-15

    # termwise: residual^2 == sum (1 - e^{-lam/n})^2 |u_hat|^2 below cutoff
    n = 50.0
    expected_sq = 0.0
    for c in u.coeffs:
        mult = np.where(cover.k_squared < n * n,
                        1.0 - np.exp(-cover.k_squared / n), 1.0)
        expected_sq += grid32.volume * np.sum(cover.plancherel_weights
                                              * (mult * np.abs(c)) ** 2)
    assert l2_norm(u - exp_filter(u, n)) ** 2 == pytest.approx(expected_sq,
                                                               rel=1e-12)


# ---------------------------------------------------------------------------
# norms and pairings


def test_constant_field_l2_norm(grid32):
    c = -1.7
    data = np.zeros((2,) + grid32.shape)
    data[1] = c
    u = to_spectral(PhysicalField(grid32, data))
    assert l2_norm(u) == pytest.approx(abs(c) * np.sqrt(grid32.volume), rel=1e-13)


def test_single_mode_h1_norm(grid32):
    u = single_mode(grid32, (2, 1), component=0)
    k_sq = float(5.0 * (2 * np.pi / grid32.period) ** 2)
    assert h1_norm(u) ** 2 == pytest.approx((1 + k_sq) * l2_norm(u) ** 2,
                                            rel=1e-13)
    assert grad_norm(u) ** 2 == pytest.approx(k_sq * l2_norm(u) ** 2, rel=1e-13)


def test_lp_norm_sin_fourth_power(grid32):
    u = single_mode(grid32, (1, 0), component=0, phase=-np.pi / 2)  # sin(x)
    exact = (3.0 / 8.0) * grid32.volume
    assert lp_norm(u, 4) ** 4 == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("p", [0.5, np.inf, np.nan])
def test_lp_norm_needs_finite_p_at_least_one(grid32, p):
    # Quadrature of mag**p answers neither max|u| at p = inf nor anything
    # at p = nan.
    with pytest.raises(InvalidExponentError):
        lp_norm(random_band_limited(grid32, seed=1, band_limit=4), p)


def test_plancherel_consistency(random_field):
    phys = to_physical(random_field)
    assert l2_norm(phys) == pytest.approx(l2_norm(random_field), rel=1e-12)


def test_pairing_identities(grid32, random_field, random_field_b):
    assert l2_pairing(random_field, random_field) == pytest.approx(
        l2_norm(random_field) ** 2, rel=1e-12)
    a = single_mode(grid32, (1, 0))
    b = single_mode(grid32, (0, 1))
    assert abs(l2_pairing(a, b)) < 1e-14
    # spectral pairing equals physical quadrature
    quad = float(np.sum(to_physical(random_field).data
                        * to_physical(random_field_b).data)
                 * grid32.cell_volume)
    assert l2_pairing(random_field, random_field_b) == pytest.approx(
        quad, rel=1e-12, abs=1e-13)
    other = random_band_limited(TorusGrid(dim=2, n_points=16), seed=5,
                                band_limit=4)
    with pytest.raises(GridMismatchError):
        l2_pairing(random_field, other)


def test_dual_norm_duality(random_field, random_field_b):
    pairing = abs(l2_pairing(random_field, random_field_b))
    assert pairing <= dual_norm(random_field) * h1_norm(random_field_b) * (1 + 1e-12)


def test_poincare_for_mean_free_fields(grid32):
    u = random_band_limited(grid32, seed=31, band_limit=8)  # mean-free
    lam1 = (2 * np.pi / grid32.period) ** 2
    assert grad_norm(u) ** 2 >= lam1 * l2_norm(u) ** 2 * (1 - 1e-12)


def test_gradient_of_vector_is_flattened_jacobian(random_field):
    from cbftorus.spectral import jacobian
    grad = gradient(random_field)
    dim = random_field.grid.dim
    assert grad.ncomp == dim * dim
    jac = jacobian(random_field.coeffs, band_box(random_field.grid, False)).reshape(
        (dim * dim,) + random_field.grid.half_shape)
    assert np.array_equal(grad.coeffs, jac)


def test_embed_modes_preserves_field(grid32):
    fine = TorusGrid(dim=2, n_points=64)
    u = random_band_limited(grid32, seed=8, band_limit=8)
    embedded = embed_modes(u, fine)
    assert l2_norm(embedded) == pytest.approx(l2_norm(u), rel=1e-13)
    # same trig polynomial sampled on the fine grid
    coarse_phys = to_physical(u).data
    fine_phys = to_physical(embedded).data
    assert np.max(np.abs(fine_phys[:, ::2, ::2] - coarse_phys)) < 1e-12
