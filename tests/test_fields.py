"""Transform correctness: round trips, symmetry, and the DFT definition."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbftorus.errors import InvalidFieldError, SymmetryError
from cbftorus.families import random_band_limited, single_mode
from cbftorus.fields import (PhysicalField, SpectralField, to_physical,
                             to_spectral, zero_field)
from cbftorus.grid import TWO_PI, TorusGrid
from cbftorus.operators import CbfParams
from cbftorus.solver import Forcing, SolverConfig, initialize_state, step
from cbftorus.spectral import divergence_defect


def test_constant_field_is_mean_mode_only(grid32):
    c = 2.5
    data = np.zeros((2,) + grid32.shape)
    data[0] = c
    field = to_spectral(PhysicalField(grid32, data))
    coeffs = field.coeffs.copy()
    assert coeffs[0][0, 0] == pytest.approx(c, abs=1e-14)
    coeffs[0][0, 0] = 0.0
    assert np.max(np.abs(coeffs)) < 1e-14


def test_single_sine_gives_two_conjugate_coefficients(grid32):
    x = grid32.meshgrid()[0]
    data = np.zeros((2,) + grid32.shape)
    data[1] = np.sin(2.0 * np.pi * x / grid32.period)
    field = to_spectral(PhysicalField(grid32, data))
    c = field.full()[1]
    assert c[1, 0] == pytest.approx(-0.5j, abs=1e-14)
    assert c[-1, 0] == pytest.approx(0.5j, abs=1e-14)
    mask = np.ones(grid32.shape, dtype=bool)
    mask[1, 0] = mask[-1, 0] = False
    assert np.max(np.abs(c[mask])) < 1e-14
    assert np.max(np.abs(field.coeffs[0])) < 1e-14


def test_round_trip_and_direct_summation_oracle(grid32):
    u = random_band_limited(grid32, seed=3, band_limit=8)
    phys = to_physical(u)
    assert np.max(np.abs(to_spectral(phys).coeffs - u.coeffs)) < 1e-12

    # direct summation of the Fourier series at 16 random grid points
    rng = np.random.default_rng(0)
    modes = [m.ravel() for m in np.meshgrid(grid32.modes, grid32.modes,
                                            indexing="ij")]
    flat = u.full().reshape(2, -1)
    scale = 2.0 * np.pi / grid32.period
    for _ in range(16):
        i, j = rng.integers(0, grid32.n_points, size=2)
        x = np.array([grid32.axes[i], grid32.axes[j]])
        phase = np.exp(1j * scale * (modes[0] * x[0] + modes[1] * x[1]))
        direct = (flat * phase).sum(axis=1)
        assert np.max(np.abs(direct.real - phys.data[:, i, j])) < 1e-12
        assert np.max(np.abs(direct.imag)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(mx=st.integers(-7, 7), my=st.integers(-7, 7),
       phase=st.floats(0, 2 * np.pi), comp=st.integers(0, 1))
def test_single_mode_matches_analytic_evaluation(mx, my, phase, comp):
    grid = TorusGrid(dim=2, n_points=16)
    field = single_mode(grid, (mx, my), component=comp, amplitude=1.3,
                        phase=phase)
    x, y = grid.meshgrid()
    scale = 2.0 * np.pi / grid.period
    expected = 1.3 * np.cos(scale * (mx * x + my * y) + phase)
    got = to_physical(field).data
    assert np.max(np.abs(got[comp] - expected)) < 1e-12
    assert np.max(np.abs(got[1 - comp])) < 1e-13


def test_zero_coefficients_give_zero_field(grid32):
    phys = to_physical(zero_field(grid32))
    assert np.max(np.abs(phys.data)) == 0.0


def test_broken_hermitian_symmetry_rejected(grid32):
    coeffs = np.zeros((2,) + grid32.shape, dtype=complex)
    coeffs[0][1, 0] = 1.0 + 1.0j  # no conjugate partner
    with pytest.raises(SymmetryError):
        SpectralField.from_full(grid32, coeffs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_coefficient_keeps_a_finite_scale():
    # |c|^2 overflows above about 1e154; an infinite scale would let the
    # symmetry and divergence checks pass any field.
    grid = TorusGrid(dim=2, n_points=8)
    coeffs = np.zeros((2,) + grid.shape, dtype=complex)
    coeffs[0][1, 0] = 1e200  # no conjugate partner, and k . u_hat != 0
    field = SpectralField(grid, coeffs[..., :grid.n_points // 2 + 1])
    assert field.scale() == 1e200
    with pytest.raises(SymmetryError):
        SpectralField.from_full(grid, coeffs)
    assert divergence_defect(field) > 0.5


def test_grid_compatibility_is_exact():
    grid = TorusGrid(dim=2, n_points=16)
    assert grid.compatible(TorusGrid(dim=2, n_points=16, period=TWO_PI))
    assert not grid.compatible(TorusGrid(dim=2, n_points=16,
                                         period=np.nextafter(TWO_PI, 7.0)))
    assert not grid.compatible(TorusGrid(dim=3, n_points=16))
    assert not grid.compatible(TorusGrid(dim=2, n_points=18))


# Each field type with its array's shape and the other type's.
FIELD_TYPES = [(PhysicalField, "shape", "half_shape"),
               (SpectralField, "half_shape", "shape")]


def test_non_finite_samples_rejected(grid32):
    for (field_type, shape, _), bad in itertools.product(
            FIELD_TYPES, [np.nan, np.inf, -np.inf]):
        data = np.zeros((2,) + getattr(grid32, shape))
        data[0][0, 0] = bad
        with pytest.raises(InvalidFieldError):
            field_type(grid32, data)


def test_fields_are_immutable(random_field):
    with pytest.raises(ValueError):
        random_field.coeffs[0, 0, 0] = 1.0
    phys = to_physical(random_field)
    with pytest.raises(ValueError):
        phys.data[0, 0, 0] = 1.0
    # A stepped state's array keeps the same contract, and Fortran-ordered
    # input is copied to C order.
    grid = random_field.grid
    state = step(initialize_state(random_field, CbfParams(),
                                  SolverConfig(dt=1e-3, t_end=1e-3),
                                  Forcing.zero()))
    for a in (phys.data, random_field.coeffs, state.coeffs,
              PhysicalField(grid, np.asfortranarray(phys.data)).data,
              SpectralField(grid, np.asfortranarray(random_field.coeffs)).coeffs):
        assert a.flags.c_contiguous and not a.flags.writeable


def test_component_count_must_match_grid(grid32):
    # The other type's shape: a full spectrum given as coefficients, or the
    # half spectrum's shape given as samples.
    for field_type, _, other in FIELD_TYPES:
        for bad in ((2, 8, 8), (2,) + getattr(grid32, other)):
            with pytest.raises(InvalidFieldError):
                field_type(grid32, np.zeros(bad))


def test_single_component_gains_its_axis(grid32):
    for field_type, shape, _ in FIELD_TYPES:
        field = field_type(grid32, np.ones(getattr(grid32, shape)))
        array = field.data if field_type is PhysicalField else field.coeffs
        assert array.shape == (1,) + getattr(grid32, shape)


def test_field_arithmetic(random_field, random_field_b):
    total = random_field + random_field_b
    assert np.allclose(total.coeffs,
                       random_field.coeffs + random_field_b.coeffs)
    assert np.allclose((2.0 * random_field).coeffs, 2.0 * random_field.coeffs)
    back = total - random_field_b
    assert np.max(np.abs(back.coeffs - random_field.coeffs)) < 1e-15
