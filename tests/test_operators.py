"""Operator algebra: Stokes, advection, damping, combined operator, constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbftorus.errors import (ContractViolationError, InvalidArgumentsError,
                             InvalidExponentError, RegimeError)
from cbftorus.families import single_mode, taylor_green
from cbftorus.fields import (PhysicalField, SpectralField, band_box, to_physical,
                             to_spectral, zero_field)
from cbftorus.operators import (CbfParams, advection, advection_form,
                                cbf_operator, damping, damping_pointwise,
                                monotonicity_shift, physical_jacobian,
                                recover_pressure, regularity_rate, stokes)
from cbftorus.grid import TorusGrid
from cbftorus.spectral import (divergence_defect, embed_modes, grad_norm,
                               l2_norm, l2_pairing, leray_project, lp_norm)

FINITE = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Stokes operator


def test_stokes_single_mode_multiplier(grid32):
    u = leray_project(single_mode(grid32, (0, 3), component=0))
    k_sq = 9.0 * (2 * np.pi / grid32.period) ** 2
    assert np.max(np.abs(stokes(u).coeffs - k_sq * u.coeffs)) < 1e-13


def test_stokes_kernel_is_constants(grid32):
    data = np.zeros((2,) + grid32.shape)
    data[0] = 3.0
    u = leray_project(to_spectral(PhysicalField(grid32, data)))
    assert l2_norm(stokes(u)) == 0.0


def test_stokes_pairing_is_gradient_quadrature(random_field):
    jac = physical_jacobian(random_field)
    quad = float(np.sum(jac * jac) * random_field.grid.cell_volume)
    pairing = l2_pairing(stokes(random_field), random_field)
    assert pairing == pytest.approx(quad, rel=1e-10)
    assert pairing == pytest.approx(grad_norm(random_field) ** 2, rel=1e-12)


def test_stokes_self_adjoint(random_field, random_field_b):
    assert l2_pairing(stokes(random_field), random_field_b) == pytest.approx(
        l2_pairing(random_field, stokes(random_field_b)), rel=1e-12)


def test_stokes_rejects_divergent_input(grid32):
    u = single_mode(grid32, (1, 0), component=0)  # k parallel to component
    with pytest.raises(ContractViolationError):
        stokes(u)


def test_operator_measures_embedded_nyquist_field():
    # Splitting a Nyquist mode onto the fine grid's -N/2 and +N/2 breaks
    # solenoidality there, whatever the coarse field's defect: the contract
    # measures the field it is given.
    grid = TorusGrid(dim=2, n_points=16)
    rng = np.random.default_rng(0)
    u = leray_project(to_spectral(PhysicalField(grid, rng.standard_normal(
        (2,) + grid.shape))))
    assert divergence_defect(u) < 1e-12
    embedded = embed_modes(u, TorusGrid(dim=2, n_points=32))
    assert divergence_defect(embedded) > 1e-10
    with pytest.raises(ContractViolationError):
        cbf_operator(embedded, CbfParams())


# ---------------------------------------------------------------------------
# advection


def test_constant_advection_is_phase_shift(grid32):
    data = np.zeros((2,) + grid32.shape)
    data[0], data[1] = 0.7, -0.4
    const = to_spectral(PhysicalField(grid32, data))
    v = single_mode(grid32, (2, 1), component=0)
    got = advection(const, v)
    # (c.grad) a cos(k.x) = a (c.k) cos(k.x + pi/2): quarter-period shift
    scale = 2 * np.pi / grid32.period
    c_dot_k = (0.7 * 2.0 - 0.4 * 1.0) * scale
    expected = leray_project(single_mode(grid32, (2, 1), component=0,
                                         amplitude=c_dot_k, phase=np.pi / 2))
    assert np.max(np.abs(got.coeffs - expected.coeffs)) < 1e-12


def test_taylor_green_self_advection_is_pure_gradient(grid64):
    u = taylor_green(grid64)
    u_phys = to_physical(u).data
    term = np.einsum("i...,ji...->j...", u_phys, physical_jacobian(u))
    # oracle: the unprojected term has zero curl, so it is a gradient field
    raw = to_spectral(PhysicalField(grid64, term))
    kx, ky = band_box(grid64, False).wavenumbers
    curl = 1j * kx * raw.coeffs[1] - 1j * ky * raw.coeffs[0]
    assert np.max(np.abs(curl)) < 1e-12
    assert l2_norm(advection(u)) < 1e-12


def test_advection_energy_neutral(random_field, random_field_b):
    scale = l2_norm(random_field) * grad_norm(random_field_b) * l2_norm(random_field_b)
    assert abs(l2_pairing(advection(random_field, random_field_b),
                          random_field_b)) < 1e-10 * scale


def test_trilinear_identities(random_field, random_field_b, sampler32):
    u, v = random_field, random_field_b
    w = sampler32.field_from_seed(77)
    scale = l2_norm(u) * grad_norm(v) * (l2_norm(v) + l2_norm(w))
    assert abs(advection_form(u, v, v)) < 1e-10 * scale
    assert abs(advection_form(u, v, w) + advection_form(u, w, v)) < 1e-10 * scale
    assert advection_form(zero_field(u.grid), v, w) == 0.0


def test_trilinear_hoelder_bound(sampler32):
    r = 5.0
    q = 2 * (r + 1) / (r - 1)
    for i in range(20):
        u, v, s = sampler32.pair(i)
        w = sampler32.field_from_seed(s + 1000)
        bound = lp_norm(u, r + 1) * lp_norm(v, q) * grad_norm(w)
        assert abs(advection_form(u, v, w)) <= bound * (1 + 1e-8)


# ---------------------------------------------------------------------------
# damping


def test_damping_constant_field(grid32):
    c = np.array([0.6, -0.8])  # |c| = 1
    data = np.zeros((2,) + grid32.shape)
    data[0], data[1] = c
    u = to_spectral(PhysicalField(grid32, data))
    for r in (1.0, 3.0, 4.5):
        out = to_physical(damping(u, r)).data
        expected = np.linalg.norm(c) ** (r - 1) * c
        assert np.max(np.abs(out[0] - expected[0])) < 1e-13
        assert np.max(np.abs(out[1] - expected[1])) < 1e-13


def test_damping_r1_is_identity_on_solenoidal(random_field):
    out = damping(random_field, 1.0)
    assert np.max(np.abs(out.coeffs - random_field.coeffs)) < 1e-13


def test_damping_pairing_is_lebesgue_norm(random_field):
    for r in (3.0, 4.0, 5.5):
        pairing = l2_pairing(damping(random_field, r), random_field)
        assert pairing == pytest.approx(lp_norm(random_field, r + 1) ** (r + 1),
                                        rel=1e-8)


def test_damping_rejects_scalar_field(grid32):
    scalar = SpectralField(grid32, np.zeros(grid32.half_shape, dtype=complex))
    with pytest.raises(InvalidArgumentsError):
        damping(scalar, 3.0)


def test_damping_invalid_exponent(random_field):
    with pytest.raises(InvalidExponentError):
        damping(random_field, 0.5)


@settings(max_examples=200, deadline=None)
@given(y1=FINITE, y2=FINITE, z1=FINITE, z2=FINITE,
       r=st.floats(1.0, 6.0))
def test_pointwise_damping_monotonicity_oracle(y1, y2, z1, z2, r):
    """Scalar oracle behind the integral monotonicity estimate."""
    y = np.array([y1, y2]).reshape(2, 1)
    z = np.array([z1, z2]).reshape(2, 1)
    lhs = float(np.sum((damping_pointwise(y, r) - damping_pointwise(z, r))
                       * (y - z)))
    ym, zm = np.linalg.norm(y), np.linalg.norm(z)
    rhs = 0.5 * (ym ** (r - 1) + zm ** (r - 1)) * float(np.sum((y - z) ** 2))
    assert lhs >= rhs - 1e-9 * max(abs(lhs), rhs, 1.0)


@settings(max_examples=200, deadline=None)
@given(y1=FINITE, y2=FINITE, z1=FINITE, z2=FINITE,
       r=st.floats(1.0, 6.0))
def test_pointwise_mean_value_bound_oracle(y1, y2, z1, z2, r):
    y = np.array([y1, y2]).reshape(2, 1)
    z = np.array([z1, z2]).reshape(2, 1)
    lhs = float(np.linalg.norm(damping_pointwise(y, r) - damping_pointwise(z, r)))
    ym, zm = np.linalg.norm(y), np.linalg.norm(z)
    rhs = r * (ym + zm) ** (r - 1) * float(np.linalg.norm(y - z))
    assert lhs <= rhs + 1e-9 * max(rhs, 1.0)


# ---------------------------------------------------------------------------
# combined operator


def test_operator_zero(grid32):
    params = CbfParams(mu=1.0, beta=1.0, r=3.0)
    assert l2_norm(cbf_operator(zero_field(grid32), params)) == 0.0


def test_operator_single_mode_reduces_to_stokes(grid32):
    u = leray_project(single_mode(grid32, (0, 2), component=0))
    params = CbfParams(mu=0.7, alpha=0.0, beta=1e-14, r=3.0)
    k_sq = 4.0 * (2 * np.pi / grid32.period) ** 2
    out = cbf_operator(u, params)
    assert np.max(np.abs(out.coeffs - 0.7 * k_sq * u.coeffs)) < 1e-12


def test_operator_energy_pairing(random_field):
    params = CbfParams(mu=0.3, alpha=0.2, beta=1.5, r=4.0)
    expected = (params.mu * grad_norm(random_field) ** 2
                + params.alpha * l2_norm(random_field) ** 2
                + params.beta * lp_norm(random_field, 5.0) ** 5.0)
    assert l2_pairing(cbf_operator(random_field, params),
                      random_field) == pytest.approx(expected, rel=1e-8)


# ---------------------------------------------------------------------------
# constants


def test_monotonicity_shift_values():
    assert monotonicity_shift(CbfParams(mu=1, beta=1, r=5)) == pytest.approx(0.125)
    assert monotonicity_shift(CbfParams(mu=1, beta=1, r=4)) == pytest.approx(2 / 27)
    assert monotonicity_shift(CbfParams(mu=1, beta=1, r=3)) == 0.0
    with pytest.raises(RegimeError):
        monotonicity_shift(CbfParams(mu=1, beta=1, r=2))


def test_regularity_rate_values():
    assert regularity_rate(CbfParams(mu=1, beta=1, r=5)) == pytest.approx(1.0)
    expected_r7 = (8.0 / 6.0) * (4.0 / 6.0) ** 0.5
    assert regularity_rate(CbfParams(mu=1, beta=1, r=7)) == pytest.approx(expected_r7)
    # algebraic relation to the monotonicity shift at r = 5
    p = CbfParams(mu=1, beta=1, r=5)
    assert regularity_rate(p) == pytest.approx(
        4.0 * monotonicity_shift(p) * 2.0 ** (2.0 / (p.r - 3.0)))
    with pytest.raises(RegimeError):
        regularity_rate(CbfParams(mu=1, beta=1, r=3))


@pytest.mark.parametrize("params", [CbfParams(mu=0.1, beta=1, r=3.001),
                                    CbfParams(mu=1e-160, beta=1, r=4)])
def test_constants_that_overflow_a_float_are_regime_errors(params):
    for constant in (monotonicity_shift, regularity_rate):
        with pytest.raises(RegimeError, match="overflows a float at mu = "):
            constant(params)


@pytest.mark.parametrize("field", ["mu", "alpha", "beta", "r"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_params_must_be_finite(field, value):
    # The message leads with the field, which a config error names.
    with pytest.raises((InvalidArgumentsError, InvalidExponentError),
                       match=f"^{field} must be finite"):
        CbfParams(**{field: value})


def test_params_validation():
    with pytest.raises(InvalidArgumentsError):
        CbfParams(mu=-1.0)
    with pytest.raises(InvalidArgumentsError):
        CbfParams(alpha=-0.1)
    with pytest.raises(InvalidExponentError):
        CbfParams(r=0.5)
    assert CbfParams(mu=1.0, beta=0.5, r=3.0).critical_regime
    assert not CbfParams(mu=1.0, beta=0.4, r=3.0).critical_regime


# ---------------------------------------------------------------------------
# pressure recovery


def test_pressure_zero_inputs(grid32):
    params = CbfParams(mu=1.0, beta=1.0, r=3.0)
    p = recover_pressure(zero_field(grid32), zero_field(grid32), params)
    assert l2_norm(p) == 0.0


def test_pressure_taylor_green_closed_form(grid64):
    u = taylor_green(grid64)
    params = CbfParams(mu=0.1, beta=0.0, r=3.0)
    p = recover_pressure(u, zero_field(grid64), params)
    x, y = grid64.meshgrid()
    exact = -(np.cos(2 * x) + np.cos(2 * y)) / 4.0
    got = to_physical(p).data[0]
    assert np.max(np.abs(got - exact)) < 1e-11
    assert abs(p.coeffs[0][0, 0]) == 0.0
    # substitution oracle: grad p + (u.grad)u must be (numerically) zero
    from cbftorus.spectral import gradient
    grad_p = to_physical(gradient(p)).data
    u_phys = to_physical(u).data
    term = np.einsum("i...,ji...->j...", u_phys, physical_jacobian(u))
    assert np.max(np.abs(grad_p + term)) < 1e-11


def test_pressure_mean_always_zero(random_field):
    params = CbfParams(mu=1.0, beta=2.0, r=4.0)
    p = recover_pressure(random_field, random_field, params)
    assert abs(p.coeffs[0][0, 0]) == 0.0
