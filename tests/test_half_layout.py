"""Spectral fields store the half spectrum: every operation on the half
against its full-array reference (``full_array``), and the discrete
identities and the exact mode-box transforms for every admissible N."""

import numpy as np
import pytest

import full_array as fa
from cbftorus.errors import SymmetryError
from cbftorus.families import random_band_limited
from cbftorus.fields import (PhysicalField, SpectralField, band_box, conj_mirror,
                             real_forward, real_inverse, symmetrize_columns,
                             to_physical, to_spectral)
from cbftorus.grid import TorusGrid
from cbftorus.operators import CbfParams, physical_jacobian, stokes
from cbftorus.snapshot import MAGIC, read_snapshot_file, write_snapshot_file
from cbftorus.spectral import (dealias, divergence, divergence_defect,
                               dual_norm, embed_modes, exp_filter, grad_norm,
                               gradient, h1_norm, l2_norm, l2_pairing,
                               laplacian, leray_project, truncate_modes)

from conftest import rel_diff


def _full_band(grid, seed, ncomp=None):
    """Real random samples: every mode populated, Nyquist modes included."""
    ncomp = grid.dim if ncomp is None else ncomp
    data = np.random.default_rng(seed).standard_normal((ncomp,) + grid.shape)
    return to_spectral(PhysicalField(grid, data))


def _full_norm_sq(c, grid, mult=1.0):
    return grid.volume * np.sum(mult * np.abs(c) ** 2)


GRIDS = [TorusGrid(2, 16), TorusGrid(2, 18), TorusGrid(3, 10), TorusGrid(3, 12)]


@pytest.fixture(params=GRIDS, ids=lambda g: f"{g.dim}d-n{g.n_points}")
def grid(request):
    return request.param


# ---------------------------------------------------------------------------
# the half against the full array


def test_transforms_match_complex_fft(grid):
    data = np.random.default_rng(1).standard_normal((grid.dim,) + grid.shape)
    u = to_spectral(PhysicalField(grid, data))
    assert u.coeffs.shape == (grid.dim,) + grid.half_shape
    assert rel_diff(u.full(), fa.forward(data, grid)) < 1e-13
    c = _full_band(grid, 2).full()
    got = to_physical(SpectralField.from_full(grid, c)).data
    assert rel_diff(got, fa.inverse(c, grid)) < 1e-13


def test_linear_operations_match_full_array(grid):
    # Elementwise arithmetic on the same values: equal to the bit.
    u = _full_band(grid, 3)
    c = u.full()
    k, k2 = fa.wavenumbers(grid), fa.k_squared(grid)
    cases = [
        (leray_project(u), fa.project(c, grid)),
        (dealias(u), c * fa.dealias_mask(grid)),
        (truncate_modes(u, 3), c * fa.band(grid, False, 3, "box")),
        (truncate_modes(u, 3, "ball"), c * fa.band(grid, False, 3, "ball")),
        (laplacian(u), -k2 * c),
        (stokes(leray_project(u)), k2 * fa.project(c, grid)),
        (divergence(u), sum(1j * k[i] * c[i] for i in range(grid.dim))[np.newaxis]),
        (gradient(u), fa.jacobian(c, grid).reshape((-1,) + grid.shape)),
        (u + 2.0 * u - u, c + 2.0 * c - c),
    ]
    lam = k2
    for n in (1.0, 10.0):
        mult = np.where(lam < n * n, np.exp(-lam / n), 0.0)
        cases.append((exp_filter(u, n), mult * c))
    for got, ref in cases:
        assert np.array_equal(got.full(), ref)


def test_norms_and_pairings_match_full_array(grid):
    # Plancherel sums of the half against sums over every mode.
    u, v = _full_band(grid, 4), _full_band(grid, 5)
    cu, cv = u.full(), v.full()
    k2 = fa.k_squared(grid)
    pairs = [
        (l2_norm(u) ** 2, _full_norm_sq(cu, grid)),
        (grad_norm(u) ** 2, _full_norm_sq(cu, grid, k2)),
        (h1_norm(u) ** 2, _full_norm_sq(cu, grid, 1.0 + k2)),
        (dual_norm(u) ** 2, _full_norm_sq(cu, grid, 1.0 / (1.0 + k2))),
        (l2_pairing(u, v), grid.volume * np.real(np.sum(cu * np.conj(cv)))),
        (u.scale(), np.sqrt(np.sum(np.abs(cu) ** 2))),
        (divergence_defect(u), np.max(np.abs(sum(
            ki * ci for ki, ci in zip(fa.wavenumbers(grid), cu))))
         / np.sqrt(np.sum(np.abs(cu) ** 2))),
    ]
    for got, ref in pairs:
        assert abs(got - ref) <= 1e-13 * abs(ref)


def test_symmetry_defect_matches_full_scan(grid):
    u = _full_band(grid, 6)
    half = u.coeffs.copy()
    half[0][(1,) * (grid.dim - 1) + (0,)] += 1e-3  # no partner in column 0
    half[1][(2,) * (grid.dim - 1) + (grid.n_points // 2,)] += 2e-3j  # nor in N/2
    for field in (u, SpectralField(grid, half)):
        c = field.full()
        full_scan = np.max(np.abs(c - conj_mirror(c, tuple(range(-grid.dim, 0)))))
        assert field.symmetry_defect() == full_scan
    assert SpectralField(grid, half).symmetry_defect() > 1e-3


def test_from_half_is_exactly_hermitian(grid):
    half = _full_band(grid, 7).coeffs + 1e-9 * np.random.default_rng(8).standard_normal(
        (grid.dim,) + grid.half_shape)
    field = SpectralField(grid, symmetrize_columns(half.copy(), grid))
    c = field.full()
    assert np.array_equal(c, conj_mirror(c, tuple(range(-grid.dim, 0))))
    inner = slice(1, grid.n_points // 2)
    assert np.array_equal(field.coeffs[..., inner], half[..., inner])
    # irfftn reads only the Hermitian part of columns 0 and N/2 as well
    assert rel_diff(to_physical(field).data,
                    to_physical(SpectralField(grid, half)).data) < 1e-14


def test_from_full_checks_symmetry(grid):
    c = _full_band(grid, 9).full()
    assert np.array_equal(SpectralField.from_full(grid, c).full(), c)
    bad = c.copy()  # broken in column N - 1, which the half leaves out
    bad[(0,) + (1,) * (grid.dim - 1) + (grid.n_points - 1,)] += 1e-6 * np.max(np.abs(c))
    with pytest.raises(SymmetryError):
        SpectralField.from_full(grid, bad)


def _embed_reference(u, fine):
    """The full-array embedding: each coefficient copied to its mode index."""
    out = np.zeros((u.ncomp,) + fine.shape, dtype=complex)
    src = [m.ravel() for m in np.meshgrid(*([u.grid.modes] * u.grid.dim),
                                          indexing="ij")]
    dst = tuple(m % fine.n_points for m in src)
    flat = u.full().reshape(u.ncomp, -1)
    for comp in range(u.ncomp):
        out[(comp,) + dst] = flat[comp]
    return out


@pytest.mark.parametrize("n_fine", [None, 2, 3])
def test_embed_modes_matches_full_array(grid, n_fine):
    n = grid.n_points if n_fine is None else grid.n_points + 2 * n_fine
    fine = TorusGrid(grid.dim, n, grid.period)
    u = random_band_limited(grid, seed=10, band_limit=grid.n_points // 2 - 1)
    assert np.array_equal(embed_modes(u, fine).full(), _embed_reference(u, fine))


def test_embed_modes_splits_nyquist_modes(grid):
    # A coarse Nyquist mode is one mode there and two on the fine grid: the
    # embedding stays real and keeps the samples at the coarse points.
    u = _full_band(grid, 11)
    fine = TorusGrid(grid.dim, 2 * grid.n_points, grid.period)
    embedded = embed_modes(u, fine)
    SpectralField.from_full(fine, embedded.full())  # Hermitian
    coarse_points = (slice(None),) + (slice(None, None, 2),) * grid.dim
    assert rel_diff(to_physical(embedded).data[coarse_points],
                    to_physical(u).data) < 1e-13


def test_snapshot_stores_the_full_array(tmp_path, grid):
    u = _full_band(grid, 12)
    path = tmp_path / "u.snap"
    write_snapshot_file(path, u, 0.5, CbfParams())
    body = path.read_bytes()[len(MAGIC) + 56:]
    assert body == u.full().astype("<c16").tobytes()
    assert np.array_equal(read_snapshot_file(path)[0].coeffs, u.coeffs)


# ---------------------------------------------------------------------------
# discrete identities for every admissible N: each residue of N mod 3 and
# both parities of N/2


IDENTITY_GRIDS = [TorusGrid(d, n) for d in (2, 3)
                  for n in (8, 10, 12, 14, 16, 18, 30, 32)]


@pytest.mark.parametrize("grid", IDENTITY_GRIDS,
                         ids=lambda g: f"{g.dim}d-n{g.n_points}")
def test_discrete_identities(grid):
    u, v = _full_band(grid, 13), _full_band(grid, 14)
    # Plancherel against physical quadrature, for the norm, the gradient
    # seminorm and the pairing.
    up, vp = to_physical(u), to_physical(v)
    jac = physical_jacobian(u)
    assert abs(l2_norm(u) - l2_norm(up)) <= 1e-13 * l2_norm(up)
    assert abs(grad_norm(u) ** 2 - np.sum(jac * jac) * grid.cell_volume) <= (
        1e-12 * grad_norm(u) ** 2)
    assert abs(l2_pairing(u, v) - np.sum(up.data * vp.data) * grid.cell_volume) <= (
        1e-12 * l2_norm(u) * l2_norm(v))
    # projector o gradient = 0
    grad_q = gradient(_full_band(grid, 15, ncomp=1))
    assert np.max(np.abs(leray_project(grad_q).coeffs)) <= (
        1e-15 * np.max(np.abs(grad_q.coeffs)))
    # from_full / full round trip
    assert np.array_equal(SpectralField.from_full(grid, u.full()).coeffs, u.coeffs)
    # exact 2/3-rule dealiasing of a product of two dealiased scalars against
    # the alias-free product on a grid of more than 4K points, K = (N-1)//3
    f, g = (dealias(_full_band(grid, s, ncomp=1)) for s in (16, 17))
    got = dealias(to_spectral(PhysicalField(
        grid, to_physical(f).data * to_physical(g).data)))
    fine = TorusGrid(grid.dim, 2 * grid.n_points, grid.period)
    prod = (to_physical(embed_modes(f, fine)).data
            * to_physical(embed_modes(g, fine)).data)
    ref = to_spectral(PhysicalField(fine, prod)).full()[0][
        np.ix_(*([grid.modes % fine.n_points] * grid.dim))]
    assert rel_diff(got.full()[0], ref * fa.dealias_mask(grid)) < 1e-13


def _boxes(grid):
    """Mode boxes of radius (N-1)//3, 1, a Galerkin n below (N-1)//3, and the
    whole half."""
    k = (grid.n_points - 1) // 3
    return [band_box(grid), band_box(grid, False, 1), band_box(grid, True, k - 1),
            band_box(grid, False)]


@pytest.mark.parametrize("grid", IDENTITY_GRIDS,
                         ids=lambda g: f"{g.dim}d-n{g.n_points}")
def test_box_transforms_are_exact(grid):
    # The box transforms run the 1-D passes of irfftn/rfftn on the lines the
    # box touches only, so they agree with them to the bit.
    for box in _boxes(grid):
        h = _full_band(grid, 18).coeffs * (grid.mode_inf_norm <= box.radius)
        c = box.gather(h)
        if not box.covers_half:
            assert c.shape[1:] == ((2 * box.radius + 1,) * (grid.dim - 1)
                                   + (box.radius + 1,))
        assert np.array_equal(box.expand(c), h)
        assert np.array_equal(box.inverse(c), real_inverse(h, grid))
        data = np.random.default_rng(19).standard_normal((grid.dim,) + grid.shape)
        assert np.array_equal(box.forward(data), box.gather(real_forward(data, grid)))
        # column 0 of the compact rows mirrors as on the half
        sym = symmetrize_columns(c.copy(), grid)
        assert np.array_equal(box.expand(sym),
                              symmetrize_columns(h.copy(), grid))
