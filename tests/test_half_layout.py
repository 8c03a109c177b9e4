"""Spectral fields store the half spectrum: every operation on the half
against its full-array reference (``full_array``), and the discrete
identities and the exact mode-box transforms for every admissible N."""

import numpy as np
import pytest

import full_array as fa
from cbftorus.errors import InvalidArgumentsError, SymmetryError
from cbftorus.families import random_band_limited
from cbftorus.fields import (PhysicalField, SpectralField, band_box, conj_mirror,
                             symmetrize_columns, to_physical, to_spectral)
from cbftorus.grid import TorusGrid
from cbftorus.operators import CbfParams, physical_jacobian, stokes
from cbftorus.snapshot import MAGIC, read_snapshot_file, write_snapshot_file
from cbftorus.spectral import (dealias, divergence, divergence_defect,
                               dual_norm, embed_modes, exp_filter, grad_norm,
                               gradient, h1_norm, l2_norm, l2_pairing,
                               laplacian, leray_project, restrict_modes,
                               truncate_modes)

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


@pytest.mark.parametrize("n_fine", [None, 2, 3, "2N", "3N"])
def test_embed_modes_matches_full_array(grid, n_fine):
    # n_fine: None keeps N, an integer j adds 2j points, "jN" multiplies by j.
    if isinstance(n_fine, str):
        n = int(n_fine[0]) * grid.n_points
    else:
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


@pytest.mark.parametrize("n_fine", [None, 2, 3])
def test_restrict_modes_undoes_embed_modes(grid, n_fine):
    # Restriction keeps the modes below the coarse Nyquist modes, which it
    # zeroes, so it undoes an embedding up to them.
    n = grid.n_points if n_fine is None else grid.n_points + 2 * n_fine
    fine = TorusGrid(grid.dim, n, grid.period)
    u = _full_band(grid, 20)
    below = u.coeffs * (fa.mode_inf_norm(grid) < grid.n_points // 2)
    assert np.array_equal(restrict_modes(embed_modes(u, fine), grid).coeffs, below)
    with pytest.raises(InvalidArgumentsError):
        restrict_modes(u, TorusGrid(grid.dim, grid.n_points + 2, grid.period))


def test_snapshot_stores_the_full_array(tmp_path, grid):
    u = _full_band(grid, 12)
    path = tmp_path / "u.snap"
    write_snapshot_file(path, u, 0.5, CbfParams())
    body = path.read_bytes()[len(MAGIC) + 56:]
    assert body == u.full().astype("<c16").tobytes()
    assert np.array_equal(read_snapshot_file(path)[0].coeffs, u.coeffs)


# ---------------------------------------------------------------------------
# discrete identities for every admissible N: every even N from 8 to 40 in
# 2D (3 | N at 12, 18, 24, 30 and 36), and in 3D each residue of N mod 3 and
# both parities of N/2


IDENTITY_GRIDS = ([TorusGrid(2, n) for n in range(8, 41, 2)]
                  + [TorusGrid(3, n) for n in (8, 10, 12, 14, 16, 18, 30, 32)])


def _block(u, k):
    """Coefficients of the scalar u on the index block [-k, k]^d, centred."""
    rows = np.arange(-k, k + 1) % u.grid.n_points
    return u.full()[0][np.ix_(*([rows] * u.grid.dim))]


def _direct_product(f, g):
    """Coefficients on [-2k, 2k]^d of the product of two trigonometric
    polynomials given on [-k, k]^d: the convolution sum, one shifted copy of
    g per mode of f."""
    n = f.shape[0]
    out = np.zeros(tuple(2 * s - 1 for s in f.shape), complex)
    for p in np.ndindex(f.shape):
        out[tuple(slice(i, i + n) for i in p)] += f[p] * g
    return out


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
    # and against the convolution sum, on the modes -K..K of the product
    k = (grid.n_points - 1) // 3
    exact = _direct_product(_block(f, k), _block(g, k))
    assert rel_diff(_block(got, k), exact[(slice(k, 3 * k + 1),) * grid.dim]) < 1e-13


@pytest.mark.parametrize("grid", IDENTITY_GRIDS,
                         ids=lambda g: f"{g.dim}d-n{g.n_points}")
def test_truncate_modes_matches_mode_masks(grid):
    # The mode box's gather and expansion keep the modes of the full-array
    # masks max|m_i| <= n and |m|^2 <= n^2: only the mean at n = 0, every
    # mode at n >= N/2 (the box), Nyquist modes included.
    u = _full_band(grid, 21)
    c, h = u.full(), grid.n_points // 2
    for n in (0, 1, 2, h - 1, h, h + 3, 2 * h):
        assert np.array_equal(truncate_modes(u, n).full(),
                              c * (fa.inf_norm(grid) <= n))
        assert np.array_equal(truncate_modes(u, n, "ball").full(),
                              c * (fa.sq_norm(grid) <= n * n))


@pytest.mark.parametrize("grid", IDENTITY_GRIDS,
                         ids=lambda g: f"{g.dim}d-n{g.n_points}")
def test_restrict_modes_matches_mode_masks(grid):
    # Restricted to each coarser grid (the same grid included), the modes
    # with every |m_i| < N/2 of the coarse grid are copied and its Nyquist
    # modes are zero.
    u = _full_band(grid, 22)
    for n in sorted({8, max(8, grid.n_points // 4 * 2), max(8, grid.n_points - 2),
                     grid.n_points}):
        coarse = TorusGrid(grid.dim, n, grid.period)
        assert np.array_equal(restrict_modes(u, coarse).full(),
                              fa.restrict(u.full(), grid, coarse))


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
        h = _full_band(grid, 18).coeffs * (fa.mode_inf_norm(grid) <= box.radius)
        c = box.gather(h)
        if not box.covers_half:
            assert c.shape[1:] == ((2 * box.radius + 1,) * (grid.dim - 1)
                                   + (box.radius + 1,))
        assert np.array_equal(box.expand(c), h)
        assert np.array_equal(box.inverse(c), fa.half_inverse(h, grid))
        data = np.random.default_rng(19).standard_normal((grid.dim,) + grid.shape)
        assert np.array_equal(box.forward(data),
                              box.gather(fa.half_forward(data, grid)))
        # column 0 of the compact rows mirrors as on the half
        sym = symmetrize_columns(c.copy(), grid)
        assert np.array_equal(box.expand(sym),
                              symmetrize_columns(h.copy(), grid))


def _gathered(box, full):
    """A full-spectrum reference array, or a multiplier broadcast to it,
    cut to the half and gathered onto ``box``."""
    return box.gather(full[..., :box.grid.n_points // 2 + 1])


@pytest.mark.parametrize("grid", IDENTITY_GRIDS,
                         ids=lambda g: f"{g.dim}d-n{g.n_points}")
def test_box_multipliers_match_full_array(grid):
    # Each box builds its multipliers on its own modes; they equal the
    # full-array references gathered onto it, to the bit, on the covering,
    # dealiasing, Galerkin-box and Galerkin-ball boxes.
    g = max(1, grid.n_points // 4)
    boxes = [band_box(grid, False), band_box(grid), band_box(grid, False, g),
             band_box(grid, False, g, "ball"), band_box(grid, True, g, "ball")]
    assert boxes[0].covers_half and not any(b.covers_half for b in boxes[1:])
    k_ref = fa.wavenumbers(grid)
    for box in boxes:
        for k, ik, ref in zip(box.wavenumbers, box.ik, k_ref):
            assert np.array_equal(k, _gathered(box, ref))
            assert np.array_equal(ik, 1j * _gathered(box, ref))
        assert np.array_equal(box.k_squared, _gathered(box, fa.k_squared(grid)))
        assert np.array_equal(box.inv_k_squared,
                              _gathered(box, fa.inv_k_squared(grid)))
        weights = fa.plancherel_weights(grid)[:box.radius + 1]
        assert np.array_equal(box.plancherel_weights, weights)
        assert np.array_equal(box.volume_weights, weights * grid.volume)
    for box in boxes[:3]:
        assert box.mask is None
    for box in boxes[3:]:
        assert np.array_equal(box.mask, _gathered(box, fa.sq_norm(grid) <= g * g))
