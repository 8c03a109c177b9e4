"""The real-transform nonlinear kernel against the complex convective pipeline
it replaced, advection and damping against their full-array pipelines, the
operator as the sum of its terms on fields above the band, exact 2/3-rule
dealiasing for every N, random fields against their full-spectrum
arithmetic, the solver's cache of physical samples, the solver step on the
mode box against the full-array and the half-spectrum steps it replaced, and,
to the byte, the state kept on the box with fused pointwise work against the
step that expanded it each time."""

import dataclasses

import numpy as np
import pytest

import full_array as fa
from cbftorus import fields, solver
from cbftorus.families import random_band_limited
from cbftorus.fields import (PhysicalField, SpectralField, band_box, to_physical,
                             to_spectral)
from cbftorus.grid import TorusGrid
from cbftorus.operators import (CbfParams, Samples, advect_samples, advection,
                                cbf_operator, damping, damping_pointwise,
                                grid_samples, nonlinear_term, physical_jacobian,
                                pointwise_power, pointwise_samples,
                                recover_pressure, stokes)
from cbftorus.snapshot import read_snapshot_file, write_snapshot_file
from cbftorus.solver import (BudgetRates, DiagnosticsSample, Forcing,
                             SolverConfig, initialize_state,
                             sample_diagnostics, step)
from cbftorus.spectral import (dealias, divergence_defect, embed_modes,
                               jacobian, l2_norm, l2_pairing, leray_project,
                               power_spectrum)

from conftest import rel_diff


def _reference_nonlinear_full(c, grid, params, apply_dealias=True, galerkin_n=0,
                              galerkin_shape="box", project=True):
    """Convective (u.grad)u + beta|u|^{r-1}u of full coefficients ``c``
    through complex fftn/ifftn: restrict u, invert u and its Jacobian,
    multiply, transform, restrict the result, Leray-project.  Returns the
    full coefficients and the samples of u."""
    mask = fa.band(grid, apply_dealias, galerkin_n, galerkin_shape)
    c = c * mask
    u_phys = fa.inverse(c, grid)
    term = np.einsum("i...,ji...->j...", u_phys, fa.inverse(fa.jacobian(c, grid), grid))
    mag = np.sqrt(np.sum(u_phys ** 2, axis=0))
    if params.r == 1.0:
        weight = np.ones_like(mag)
    else:
        weight = np.where(mag > 0, np.where(mag > 0, mag, 1.0) ** (params.r - 1.0),
                          0.0)
    term = term + params.beta * weight * u_phys
    out = fa.forward(term, grid) * mask
    return (fa.project(out, grid) if project else out), u_phys


def _reference_nonlinear(u, params, *args, **kwargs):
    """:func:`_reference_nonlinear_full` of a field, as a field."""
    out, u_phys = _reference_nonlinear_full(u.full(), u.grid, params, *args, **kwargs)
    return SpectralField.from_full(u.grid, out), u_phys


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
    box = band_box(grid, apply_dealias, *galerkin)
    for project in (True, False):
        got, samples = nonlinear_term(box.gather(u.coeffs), box, params,
                                      apply_dealias, project=project)
        got = box.expand(got)
        ref, ref_phys = _reference_nonlinear(u, params, apply_dealias,
                                             *galerkin, project=project)
        assert rel_diff(got, ref.coeffs) < 1e-12
        assert rel_diff(samples.phys, ref_phys) < 1e-12
        assert got.shape == (grid.dim,) + grid.shape[:-1] + (grid.n_points // 2 + 1,)


def test_kernel_uses_given_samples(grid3d):
    u = random_band_limited(grid3d, seed=3, band_limit=4)
    box = band_box(grid3d)
    half = box.gather(u.coeffs)
    params = CbfParams(mu=0.1, beta=1.0, r=4.0)
    fresh, samples = nonlinear_term(half, box, params)
    cached, same = nonlinear_term(half, box, params, samples=samples)
    assert same is samples
    assert np.array_equal(cached, fresh)


def test_recover_pressure_matches_convective_reference(grid32):
    u = _full_band_field(grid32, seed=8)
    params = CbfParams(mu=0.1, beta=0.5, r=3.5)
    f = _full_band_field(grid32, seed=9)
    for apply_dealias in (True, False):
        p = recover_pressure(u, f, params, apply_dealias)
        rhs, _ = _reference_nonlinear_full(u.full(), grid32, params, apply_dealias,
                                           project=False)
        k, k2 = fa.wavenumbers(grid32), fa.k_squared(grid32)
        div_src = sum(1j * k[i] * (f.full()[i] - rhs[i]) for i in range(2))
        ref = np.where(k2 > 0, -div_src / np.where(k2 > 0, k2, 1.0), 0.0)
        assert rel_diff(p.full()[0], ref) < 1e-12


# ---------------------------------------------------------------------------
# advection and damping: the half-spectrum tail against the full-array one


def _full_to_physical(c, grid):
    return np.fft.irfftn(c[..., :grid.n_points // 2 + 1], s=grid.shape,
                         axes=tuple(range(-grid.dim, 0)), norm="forward")


def _full_to_spectral(data, grid):
    return fields.hermitian_expand(np.fft.rfftn(
        data, axes=tuple(range(-grid.dim, 0)), norm="forward"), grid)


def _reference_tail(term, grid, apply_dealias):
    """Transform, dealias and Leray-project the full coefficient array."""
    out = _full_to_spectral(term, grid)
    return fa.project(out * fa.dealias_mask(grid) if apply_dealias else out, grid)


def _reference_advection(u, v, apply_dealias):
    """Dealias the inputs, multiply on samples, then the full-array tail;
    real transforms, as the full-array pipeline made them."""
    grid = u.grid
    cu, cv = u.full(), v.full()
    if apply_dealias:
        cu, cv = cu * fa.dealias_mask(grid), cv * fa.dealias_mask(grid)
    term = advect_samples(_full_to_physical(cu, grid),
                          _full_to_physical(fa.jacobian(cv, grid), grid))
    return _reference_tail(term, grid, apply_dealias)


def _reference_damping(u, r, apply_dealias):
    """Dealias the input, as the reference advection does, then the tail."""
    c = u.full() * fa.dealias_mask(u.grid) if apply_dealias else u.full()
    samples = damping_pointwise(_full_to_physical(c, u.grid), r)
    return _reference_tail(samples, u.grid, apply_dealias)


TAIL_GRIDS = [TorusGrid(dim=2, n_points=32), TorusGrid(dim=2, n_points=24),
              TorusGrid(dim=3, n_points=12)]


@pytest.mark.parametrize("grid", TAIL_GRIDS, ids=lambda g: f"{g.dim}d-n{g.n_points}")
@pytest.mark.parametrize("apply_dealias", [True, False])
def test_advection_and_damping_match_full_array_pipeline(grid, apply_dealias):
    u = _full_band_field(grid, seed=12)
    v = _full_band_field(grid, seed=13)
    for second in (None, v):
        got = advection(u, second, apply_dealias)
        ref = _reference_advection(u, u if second is None else second, apply_dealias)
        assert np.array_equal(got.full(), ref)
        assert divergence_defect(got) < 1e-12
    for r in (1.0, 3.0, 3.5):
        got = damping(u, r, apply_dealias)
        assert np.array_equal(got.full(), _reference_damping(u, r, apply_dealias))
        assert divergence_defect(got) < 1e-12


@pytest.mark.parametrize("grid", [TorusGrid(dim=2, n_points=32),
                                  TorusGrid(dim=3, n_points=12)],
                         ids=lambda g: f"{g.dim}d-n{g.n_points}")
def test_operator_is_the_sum_of_its_terms_above_the_band(grid):
    """G(u) = mu*A u + B(u) + beta*C_r(u) + alpha*u on a field with every
    mode filled: each term dealiases its input, as G does."""
    u = _full_band_field(grid, seed=21)
    params = CbfParams(mu=0.1, alpha=0.3, beta=1.0, r=4.0)
    terms = (stokes(u) * params.mu + advection(u)
             + damping(u, params.r) * params.beta + u * params.alpha)
    got = cbf_operator(u, params)
    assert l2_norm(got - terms) <= 1e-12 * l2_norm(got)


# ---------------------------------------------------------------------------
# exact dealiasing


def _padded_product(f, g, pad):
    """Alias-free product of two band-limited scalars, computed on a grid
    ``pad`` times finer and read back at the coarse mode indices."""
    coarse = f.grid
    fine = TorusGrid(coarse.dim, coarse.n_points * pad, coarse.period)
    prod = (to_physical(embed_modes(f, fine)).data
            * to_physical(embed_modes(g, fine)).data)
    fine_coeffs = to_spectral(PhysicalField(fine, prod)).full()[0]
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
        grid, to_physical(f).data * to_physical(g).data))).full()[0]
    # The product has |m_i| <= 2K, K = (N-1)//3, so any grid of more than
    # 4K points resolves it; 4N in 2D, 2N in 3D to bound the memory.
    pad = 4 if dim == 2 else 2
    ref = _padded_product(f, g, pad) * fa.dealias_mask(grid)
    assert rel_diff(got, ref) < 1e-13


# ---------------------------------------------------------------------------
# random fields: arithmetic on the dealiased rows against the full spectrum


@pytest.mark.parametrize("dim,n", [(d, n) for d in (2, 3)
                                   for n in (8, 10, 16, 18, 32)])
def test_random_field_matches_full_spectrum_bytes(dim, n):
    """Every band limit with every slope; case i takes projection on or off
    and an integer or SeedSequence seed by i mod 4, so that the twelve cases
    of a grid meet each slope with each of those four ways once."""
    grid = TorusGrid(dim=dim, n_points=n)
    band_limits = (1, (n - 1) // 3, n // 2 - 1, n // 2)
    for i, (band_limit, slope) in enumerate(
            (b, s) for b in band_limits for s in (0.0, 2.0, 3.3)):
        project, seed = i % 2 == 0, 3 + i
        if i % 4 >= 2:
            seed = np.random.SeedSequence(seed, spawn_key=(1,))
        got = random_band_limited(grid, seed, band_limit, slope, 1.5, project)
        ref = fa.random_band_limited(grid, seed, band_limit, slope, 1.5, project)
        assert got.coeffs.tobytes() == ref.coeffs.tobytes()
        assert (divergence_defect(got) < 1e-12) == project


# ---------------------------------------------------------------------------
# solver: one inverse transform of u per step


@pytest.mark.parametrize("scheme,substeps", [("imex_cnab2", 1), ("imex_euler", 3)])
def test_cached_samples_match_state(grid3d, scheme, substeps):
    params = CbfParams(mu=0.1, beta=1.0, r=3.5)
    config = SolverConfig(dt=1e-3, t_end=1.0, scheme=scheme, substeps=substeps,
                          galerkin_n=4)
    forcing = Forcing()
    state = initialize_state(random_band_limited(grid3d, seed=2, band_limit=5),
                             params, config, forcing)
    for _ in range(3):
        assert np.array_equal(state.samples.phys, to_physical(state.u).data)
        state = step(state)
    assert np.array_equal(state.samples.phys, to_physical(state.u).data)


@pytest.mark.parametrize("dim,extended,expected", [
    pytest.param(2, False, 5, id="2-5"), pytest.param(3, False, 9, id="3-9"),
    pytest.param(2, True, 9, id="2-9-extended"),
    pytest.param(3, True, 18, id="3-18-extended")])
def test_transforms_per_cnab2_step(monkeypatch, dim, extended, expected):
    """Component transforms of a dealiased step; its two inverse calls
    transform the curl omega, then u, stacked with grad u when extended."""
    grid = TorusGrid(dim=dim, n_points=16)
    params = CbfParams(mu=0.1, beta=1.0, r=4.0)
    config = SolverConfig(dt=1e-3, t_end=1.0)
    forcing = Forcing()
    state = initialize_state(random_band_limited(grid, seed=1, band_limit=4),
                             params, config, forcing, extended=extended)
    state = step(state)
    count = {"inverse": [], "forward": []}
    for name, calls in count.items():
        original = getattr(fields.ModeBox, name)

        def counted(box, a, _original=original, _calls=calls):
            _calls.append(int(np.prod(np.shape(a)[:-dim])))
            return _original(box, a)

        monkeypatch.setattr(fields.ModeBox, name, counted)
    step(state)
    assert sum(count["inverse"] + count["forward"]) == expected
    assert count["inverse"] == [dim * (dim - 1) // 2, dim + extended * dim * dim]


# ---------------------------------------------------------------------------
# solver: the half-spectrum step against the full-array step it replaced


@dataclasses.dataclass(frozen=True)
class _RefState:
    """A reference stepper's state: u on the half spectrum, and what a step
    carries to the next and ``sample_diagnostics`` reads."""

    t: float
    u: SpectralField
    rates: BudgetRates
    energy0: float
    prev_nonlinear: np.ndarray = None
    samples: Samples = None
    integrals: BudgetRates = BudgetRates()
    extended: bool = False
    params: CbfParams = None


def _reference_rates(u, t, params, forcing, extended):
    """Budget integrands as full-array Plancherel sums of |c|^2, and
    quadratures of samples from complex inverse transforms."""
    grid = u.grid
    c = u.full()
    k2 = fa.k_squared(grid)
    u_phys = fa.inverse(c, grid)
    mag = np.sqrt(np.sum(u_phys ** 2, axis=0))
    power = np.abs(c) ** 2
    damping_val = np.sum(mag ** (params.r + 1.0)) * grid.cell_volume
    f = forcing.at(t)
    forcing_val = (0.0 if f is None else
                   grid.volume * np.real(np.sum(f.full() * np.conj(c))))
    a_sq = wgrad = 0.0
    if extended:
        a_sq = grid.volume * np.sum(k2 ** 2 * power)
        jac = fa.inverse(fa.jacobian(c, grid), grid)
        weight = (np.ones_like(mag) if params.r == 1.0 else
                  np.where(mag > 0, np.where(mag > 0, mag, 1.0) ** (params.r - 1.0),
                           0.0))
        wgrad = np.sum(weight * np.sum(jac * jac, axis=(0, 1))) * grid.cell_volume
    return BudgetRates(grid.volume * np.sum(k2 * power), damping_val,
                       forcing_val, grid.volume * np.sum(power), a_sq, wgrad)


def _reference_initialize(ic, params, config, forcing, extended):
    grid = ic.grid
    band = fa.band(grid, config.dealias, config.galerkin_n, config.galerkin_shape)
    u = SpectralField.from_full(grid, fa.project(ic.full(), grid) * band)
    rates = _reference_rates(u, 0.0, params, forcing, extended)
    return _RefState(t=0.0, u=u, rates=rates, energy0=rates.darcy,
                     extended=extended)


def _reference_step(state, params, config, forcing):
    """The full-array IMEX update: every array holds all N^d modes, the
    explicit term comes from the complex convective pipeline."""
    grid = state.u.grid
    dt = config.dt
    lam = params.mu * fa.k_squared(grid) + params.alpha
    mask = fa.band(grid, config.dealias, config.galerkin_n, config.galerkin_shape)

    def explicit_term(coeffs):
        out, _ = _reference_nonlinear_full(coeffs, grid, params, config.dealias,
                                           config.galerkin_n, config.galerkin_shape)
        return out

    def forcing_at(t):
        f = forcing.at(t)
        return 0.0 if f is None else f.full() * mask

    coeffs = state.u.full()
    if config.scheme == "imex_euler" or state.prev_nonlinear is None:
        h = dt / config.substeps
        for s in range(config.substeps):
            nl = explicit_term(coeffs)
            coeffs = (coeffs + h * (forcing_at(state.t + s * h) - nl)) / (1.0 + h * lam)
        prev = nl if config.scheme == "imex_cnab2" else None
    else:
        nl = explicit_term(coeffs)
        rhs = ((1.0 - 0.5 * dt * lam) * coeffs
               + dt * (forcing_at(state.t + 0.5 * dt)
                       - (1.5 * nl - 0.5 * state.prev_nonlinear)))
        coeffs = rhs / (1.0 + 0.5 * dt * lam)
        prev = nl
    u = SpectralField.from_full(grid, coeffs)
    rates = _reference_rates(u, state.t + dt, params, forcing, state.extended)
    return _RefState(
        t=state.t + dt, u=u, prev_nonlinear=prev, energy0=state.energy0,
        rates=rates, integrals=state.integrals.advance(state.rates, rates, dt),
        extended=state.extended)


def _assert_same_diagnostics(got, ref, params, energy0):
    a = sample_diagnostics(got)
    b = sample_diagnostics(dataclasses.replace(ref, params=params))
    for name in (f.name for f in dataclasses.fields(DiagnosticsSample)):
        x, y = getattr(a, name), getattr(b, name)
        if name == "energy_residual":
            assert abs(x - y) <= 1e-14 * energy0, name
        elif x is not None or y is not None:
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y)), name


def _forcing(kind, grid):
    f = _full_band_field(grid, seed=7)
    f = f * (0.5 / l2_norm(f))
    if kind == "steady":
        return Forcing(f)
    if kind == "analytic":
        return Forcing(f, lambda t: np.cos(3.0 * t))
    return Forcing()


# dim, scheme, substeps, dealias, (galerkin_n, shape), extended, forcing, r
STEP_CASES = [
    (2, "imex_cnab2", 1, True, (0, "box"), False, "zero", 4.0),
    (2, "imex_cnab2", 1, True, (4, "ball"), True, "steady", 3.5),
    (2, "imex_cnab2", 1, False, (3, "box"), False, "analytic", 3.0),
    (2, "imex_euler", 3, False, (0, "box"), True, "analytic", 3.0),
    (2, "imex_euler", 1, True, (5, "box"), False, "steady", 1.0),
    (3, "imex_cnab2", 1, True, (0, "box"), True, "analytic", 4.0),
    (3, "imex_cnab2", 1, False, (0, "box"), False, "steady", 1.0),
    (3, "imex_euler", 2, False, (3, "ball"), False, "zero", 3.5),
    (3, "imex_euler", 2, True, (4, "box"), True, "steady", 4.0),
]


@pytest.mark.parametrize("dim,scheme,substeps,apply_dealias,galerkin,extended,"
                         "forcing_kind,r", STEP_CASES)
def test_step_matches_full_array_step(dim, scheme, substeps, apply_dealias,
                                      galerkin, extended, forcing_kind, r):
    grid = TorusGrid(dim=dim, n_points=16 if dim == 2 else 12)
    params = CbfParams(mu=0.1, alpha=0.2, beta=0.8, r=r)
    config = SolverConfig(dt=2e-3, t_end=1.0, scheme=scheme, substeps=substeps,
                          dealias=apply_dealias, galerkin_n=galerkin[0],
                          galerkin_shape=galerkin[1])
    forcing = _forcing(forcing_kind, grid)
    ic = _full_band_field(grid, seed=4)
    ic = ic * (1.0 / l2_norm(ic))
    state = initialize_state(ic, params, config, forcing, extended)
    ref = _reference_initialize(ic, params, config, forcing, extended)
    for _ in range(5):
        _assert_same_diagnostics(state, ref, params, ref.energy0)
        state = step(state)
        ref = _reference_step(ref, params, config, forcing)
    _assert_same_diagnostics(state, ref, params, ref.energy0)
    assert rel_diff(state.u.coeffs, ref.u.coeffs) < 1e-12


# ---------------------------------------------------------------------------
# solver: the step on the mode box against the half-spectrum step it replaced


def _half_band(grid, config):
    """Band mask on the half spectrum, None when nothing is cut."""
    if not config.dealias and config.galerkin_n == 0:
        return None
    full = fa.band(grid, config.dealias, config.galerkin_n, config.galerkin_shape)
    return full[..., :grid.n_points // 2 + 1]


def _half_nonlinear(half, grid, params, config, samples=None):
    """The half-spectrum kernel: restrict u to the band, rotational (dealiased)
    or convective advection from rfftn/irfftn samples, restrict, project."""
    mask = _half_band(grid, config)
    if samples is None:
        if mask is not None:
            half = half * mask
        samples = pointwise_samples(fa.half_inverse(half, grid), params.r)
    u = samples.phys
    cover = band_box(grid, False)
    if config.dealias:
        k = cover.wavenumbers

        def curl(i, j):
            return 1j * (k[i] * half[j] - k[j] * half[i])

        if grid.dim == 2:
            w = fa.half_inverse(curl(0, 1), grid)
            term = np.stack([-w * u[1], w * u[0]])
        else:
            w = fa.half_inverse(np.stack([curl(1, 2), curl(2, 0), curl(0, 1)]),
                                    grid)
            term = np.stack([w[1] * u[2] - w[2] * u[1], w[2] * u[0] - w[0] * u[2],
                             w[0] * u[1] - w[1] * u[0]])
    else:
        term = advect_samples(u, fa.half_inverse(jacobian(half, cover), grid))
    out = fa.half_forward(term + params.beta * samples.weight * u, grid)
    if mask is not None:
        out = out * mask
    return cover.project(out), samples


def _half_rates(u, t, params, forcing, extended, samples):
    """Budget integrands as Plancherel sums over the half spectrum."""
    grid = u.grid
    power = power_spectrum(u)
    k2 = band_box(grid, False).k_squared
    damping_val = float(np.sum(samples.weight * samples.sq) * grid.cell_volume)
    f = forcing.at(t)
    forcing_val = 0.0 if f is None else l2_pairing(f, u)
    a_sq = wgrad = 0.0
    if extended:
        a_sq = float(np.sum(k2 * k2 * power))
        jac = physical_jacobian(u)
        wgrad = float(np.sum(samples.weight * np.sum(jac * jac, axis=(0, 1)))
                      * grid.cell_volume)
    return BudgetRates(float(np.sum(k2 * power)), damping_val, forcing_val,
                       float(np.sum(power)), a_sq, wgrad)


def _half_samples(u, params):
    return pointwise_samples(fa.half_inverse(u.coeffs, u.grid), params.r)


def _half_initialize(ic, params, config, forcing, extended):
    grid = ic.grid
    cover = band_box(grid, False)
    half = cover.project(ic.coeffs)
    mask = _half_band(grid, config)
    u = SpectralField(grid, cover.symmetrize(
        half if mask is None else half * mask))
    samples = _half_samples(u, params)
    rates = _half_rates(u, 0.0, params, forcing, extended, samples)
    return _RefState(t=0.0, u=u, rates=rates, energy0=rates.darcy,
                     samples=samples, extended=extended)


def _half_step(state, params, config, forcing):
    """The half-spectrum IMEX update: every array holds the N^(d-1)(N/2+1)
    modes of the half, the band masked where it applies."""
    grid = state.u.grid
    dt = config.dt
    mask = _half_band(grid, config)
    lam = params.mu * band_box(grid, False).k_squared + params.alpha
    half = state.u.coeffs

    def forcing_at(t):
        f = forcing.at(t)
        return 0.0 if f is None else (f.coeffs if mask is None else f.coeffs * mask)

    if config.scheme == "imex_euler" or state.prev_nonlinear is None:
        n_sub = config.substeps if config.scheme == "imex_euler" else 1
        h = dt / n_sub
        for s in range(n_sub):
            nl, _ = _half_nonlinear(half, grid, params, config,
                                    state.samples if s == 0 else None)
            half = (half + h * (forcing_at(state.t + s * h) - nl)) / (1.0 + h * lam)
        prev = nl if config.scheme == "imex_cnab2" else None
    else:
        nl, _ = _half_nonlinear(half, grid, params, config, state.samples)
        rhs = ((1.0 - 0.5 * dt * lam) * half
               + dt * (forcing_at(state.t + 0.5 * dt)
                       - (1.5 * nl - 0.5 * state.prev_nonlinear)))
        half = rhs / (1.0 + 0.5 * dt * lam)
        prev = nl
    u = SpectralField(grid, band_box(grid, False).symmetrize(half))
    samples = _half_samples(u, params)
    rates = _half_rates(u, state.t + dt, params, forcing, state.extended, samples)
    return _RefState(
        t=state.t + dt, u=u, prev_nonlinear=prev, energy0=state.energy0,
        rates=rates, integrals=state.integrals.advance(state.rates, rates, dt),
        extended=state.extended, samples=samples)


@pytest.mark.parametrize("dim,scheme,substeps,apply_dealias,galerkin,extended,"
                         "forcing_kind,r", STEP_CASES)
def test_step_matches_half_spectrum_step(dim, scheme, substeps, apply_dealias,
                                         galerkin, extended, forcing_kind, r):
    grid = TorusGrid(dim=dim, n_points=16 if dim == 2 else 12)
    params = CbfParams(mu=0.1, alpha=0.2, beta=0.8, r=r)
    config = SolverConfig(dt=2e-3, t_end=1.0, scheme=scheme, substeps=substeps,
                          dealias=apply_dealias, galerkin_n=galerkin[0],
                          galerkin_shape=galerkin[1])
    forcing = _forcing(forcing_kind, grid)
    ic = _full_band_field(grid, seed=4)
    ic = ic * (1.0 / l2_norm(ic))
    state = initialize_state(ic, params, config, forcing, extended)
    ref = _half_initialize(ic, params, config, forcing, extended)
    for _ in range(5):
        assert np.array_equal(state.u.coeffs, ref.u.coeffs)
        _assert_same_diagnostics(state, ref, params, ref.energy0)
        state = step(state)
        ref = _half_step(ref, params, config, forcing)
    assert np.array_equal(state.u.coeffs, ref.u.coeffs)
    _assert_same_diagnostics(state, ref, params, ref.energy0)


@pytest.mark.parametrize("dim,scheme,substeps,apply_dealias,extended,forcing_kind", [
    (2, "imex_cnab2", 1, True, False, "steady"),
    (3, "imex_cnab2", 1, True, True, "analytic"),
    (2, "imex_euler", 2, False, True, "analytic"),
], ids=["2d-cnab2-steady", "3d-cnab2-extended-analytic", "2d-euler-substeps-analytic"])
def test_step_expands_nothing(monkeypatch, dim, scheme, substeps, apply_dealias,
                              extended, forcing_kind):
    grid = TorusGrid(dim=dim, n_points=16 if dim == 2 else 12)
    params = CbfParams(mu=0.1, beta=1.0, r=4.0)
    config = SolverConfig(dt=1e-3, t_end=1.0, scheme=scheme, substeps=substeps,
                          dealias=apply_dealias)
    forcing = _forcing(forcing_kind, grid)
    state = initialize_state(random_band_limited(grid, seed=1, band_limit=3),
                             params, config, forcing, extended)
    state = step(state)
    calls = []
    original = fields.hermitian_expand

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fields, "hermitian_expand", counted)
    step(state)
    assert calls == []


def test_state_is_exactly_hermitian(tmp_path, grid32):
    # A snapshot whose asymmetry passes SYMMETRY_TOL still gives an exactly
    # Hermitian solver state.
    u = random_band_limited(grid32, seed=9, band_limit=8)
    noise = leray_project(SpectralField(
        grid32, np.random.default_rng(3).standard_normal((2,) + grid32.half_shape)))
    path = tmp_path / "ic.snap"
    write_snapshot_file(path, u + 1e-12 * noise, 0.0, CbfParams())
    ic, _, _ = read_snapshot_file(path)
    assert ic.symmetry_defect() > 0.0
    params = CbfParams(mu=0.1, beta=1.0, r=3.5)
    config = SolverConfig(dt=1e-3, t_end=1.0)
    forcing = _forcing("steady", grid32)
    state = initialize_state(ic, params, config, forcing)
    assert state.u.symmetry_defect() == 0.0
    state = step(state)
    assert state.u.symmetry_defect() == 0.0


# ---------------------------------------------------------------------------
# solver: the state on the mode box against the step that expanded it


def _guarded_samples(u_phys, r):
    """Samples with |u|^2 by np.sum and the weight by the guarded power."""
    sq = np.sum(u_phys * u_phys, axis=0)
    p = 0.5 * (r - 1.0)
    if p == 0.0:
        weight = np.ones_like(sq)
    else:
        positive = sq > 0
        weight = np.where(positive, np.where(positive, sq, 1.0) ** p, 0.0)
    return Samples(u_phys, sq, weight)


def _separate_jacobian(c, box, extended):
    """Samples of the Jacobian from an inverse of its own, None unless
    ``extended``."""
    return box.inverse(jacobian(c, box)) if extended else None


def _concatenated_expand(box, c):
    """``ModeBox.expand`` axis by axis: the inverse transform's zero rows put
    in on each leading axis, then zero columns concatenated."""
    if box.covers_half:
        return c
    for axis in range(-box.grid.dim, -1):
        c = box._put_rows(c, axis)
    pad = np.zeros(c.shape[:-1] + (box.grid.n_points // 2 - box.radius,), c.dtype)
    return np.concatenate((c, pad), axis=-1)


def _stacked_nonlinear(c, box, params, config, samples=None):
    """The kernel on the box with stacked, out-of-place pointwise products."""
    if samples is None:
        if box.mask is not None:
            c = c * box.mask
        samples = _guarded_samples(box.inverse(c), params.r)
    u = samples.phys
    if config.dealias:
        k = box.wavenumbers

        def curl(i, j):
            return 1j * (k[i] * c[j] - k[j] * c[i])

        if box.grid.dim == 2:
            w = box.inverse(curl(0, 1))
            term = np.stack([-w * u[1], w * u[0]])
        else:
            w = box.inverse(np.stack([curl(1, 2), curl(2, 0), curl(0, 1)]))
            term = np.stack([w[1] * u[2] - w[2] * u[1], w[2] * u[0] - w[0] * u[2],
                             w[0] * u[1] - w[1] * u[0]])
    else:
        term = advect_samples(u, box.inverse(jacobian(c, box)))
    out = box.forward(term + params.beta * samples.weight * u)
    if box.mask is not None:
        out = out * box.mask
    return box.project(out), samples


def _expanding_initialize(ic, params, config, forcing, extended):
    grid = ic.grid
    box = band_box(grid, config.dealias, config.galerkin_n, config.galerkin_shape)
    c = box.project(box.gather(ic.coeffs))
    if box.mask is not None:
        c = c * box.mask
    box.symmetrize(c)
    u = SpectralField(grid, _concatenated_expand(box, c))
    samples = _guarded_samples(box.inverse(c), params.r)
    rates = solver._rates(c, box, 0.0, forcing, samples,
                          _separate_jacobian(c, box, extended))
    return _RefState(t=0.0, u=u, rates=rates, energy0=rates.darcy,
                     samples=samples, extended=extended)


def _whole_box_forcing(forcing, t, box):
    """f(t) on the whole mode ``box``: the projected base gathered onto it
    and masked, times the profile; 0.0 for no forcing."""
    if forcing.is_zero:
        return 0.0
    f = box.masked(box.gather(forcing._base().coeffs))
    return f if forcing._profile is None else f * float(forcing._profile(t))


def _expanding_step(state, params, config, forcing):
    """The step on the mode box with a half-spectrum state: it gathers u,
    updates out of place and expands the result into a new field."""
    grid = state.u.grid
    dt = config.dt
    box = band_box(grid, config.dealias, config.galerkin_n, config.galerkin_shape)
    c = box.gather(state.u.coeffs)

    def forcing_at(t):
        f = _whole_box_forcing(forcing, t, box)
        return f if box.mask is None else f * box.mask

    if config.scheme == "imex_euler" or state.prev_nonlinear is None:
        n_sub = config.substeps if config.scheme == "imex_euler" else 1
        h = dt / n_sub
        for s in range(n_sub):
            nl, _ = _stacked_nonlinear(c, box, params, config,
                                       state.samples if s == 0 else None)
            c = (c + h * (forcing_at(state.t + s * h) - nl)) / solver._multiplier(
                box, params, h)
        prev = nl if config.scheme == "imex_cnab2" else None
    else:
        nl, _ = _stacked_nonlinear(c, box, params, config, state.samples)
        rhs = (solver._multiplier(box, params, -0.5 * dt) * c
               + dt * (forcing_at(state.t + 0.5 * dt)
                       - (1.5 * nl - 0.5 * state.prev_nonlinear)))
        c = rhs / solver._multiplier(box, params, 0.5 * dt)
        prev = nl
    box.symmetrize(c)
    u = SpectralField(grid, _concatenated_expand(box, c))
    samples = _guarded_samples(box.inverse(c), params.r)
    rates = solver._rates(c, box, state.t + dt, forcing, samples,
                          _separate_jacobian(c, box, state.extended))
    return _RefState(
        t=state.t + dt, u=u, prev_nonlinear=prev, energy0=state.energy0,
        rates=rates, integrals=state.integrals.advance(state.rates, rates, dt),
        extended=state.extended, samples=samples)


def _assert_same_bytes(state, ref):
    assert state.t == ref.t and state.rates == ref.rates
    assert state.integrals == ref.integrals
    assert state.u.coeffs.tobytes() == ref.u.coeffs.tobytes()
    assert (state.prev_nonlinear is None) == (ref.prev_nonlinear is None)
    if state.prev_nonlinear is not None:
        assert state.prev_nonlinear.shape == ref.prev_nonlinear.shape
        assert state.prev_nonlinear.tobytes() == ref.prev_nonlinear.tobytes()
    assert (state.samples is None) == (ref.samples is None)
    for a, b in zip(state.samples or (), ref.samples or ()):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim,scheme,substeps,apply_dealias,galerkin,extended,"
                         "forcing_kind,r", STEP_CASES)
def test_step_matches_expanding_step_bytes(dim, scheme, substeps, apply_dealias,
                                           galerkin, extended, forcing_kind, r):
    grid = TorusGrid(dim=dim, n_points=16 if dim == 2 else 12)
    params = CbfParams(mu=0.1, alpha=0.2, beta=0.8, r=r)
    config = SolverConfig(dt=2e-3, t_end=1.0, scheme=scheme, substeps=substeps,
                          dealias=apply_dealias, galerkin_n=galerkin[0],
                          galerkin_shape=galerkin[1])
    forcing = _forcing(forcing_kind, grid)
    ic = _full_band_field(grid, seed=4)
    ic = ic * (1.0 / l2_norm(ic))
    state = initialize_state(ic, params, config, forcing, extended)
    ref = _expanding_initialize(ic, params, config, forcing, extended)
    for _ in range(6):
        _assert_same_bytes(state, ref)
        state = step(state)
        ref = _expanding_step(ref, params, config, forcing)
    _assert_same_bytes(state, ref)


@pytest.mark.parametrize("dim,scheme,substeps,apply_dealias,extended,forcing_kind", [
    (2, "imex_cnab2", 1, True, False, "steady"),
    (3, "imex_cnab2", 1, True, True, "analytic"),
    (2, "imex_euler", 2, False, True, "analytic"),
    (3, "imex_euler", 1, False, False, "zero"),
], ids=["2d-cnab2-steady", "3d-cnab2-extended-analytic",
        "2d-euler-substeps-analytic", "3d-euler-half"])
def test_step_stays_on_the_box(monkeypatch, dim, scheme, substeps, apply_dealias,
                               extended, forcing_kind):
    grid = TorusGrid(dim=dim, n_points=16 if dim == 2 else 12)
    params = CbfParams(mu=0.1, beta=1.0, r=4.0)
    config = SolverConfig(dt=1e-3, t_end=1.0, scheme=scheme, substeps=substeps,
                          dealias=apply_dealias)
    forcing = _forcing(forcing_kind, grid)
    state = initialize_state(random_band_limited(grid, seed=1, band_limit=3),
                             params, config, forcing, extended)
    state = step(state)
    calls = []
    for cls, name in ((fields.ModeBox, "gather"), (fields.ModeBox, "expand"),
                      (SpectralField, "__post_init__")):
        original = getattr(cls, name)

        def counted(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(cls, name, counted)
    state = step(state)
    assert calls == []
    assert not state.coeffs.flags.writeable


@pytest.mark.parametrize("dim,apply_dealias", [(2, True), (2, False),
                                               (3, True), (3, False)])
def test_plain_grid_samples_match_the_stacked_path_bytes(dim, apply_dealias):
    # The samples of a state's read-only coefficients, inverted directly,
    # against the inverse of a stacked array they are copied into.
    grid = TorusGrid(dim=dim, n_points=16 if dim == 2 else 12)
    config = SolverConfig(dealias=apply_dealias)
    state = initialize_state(random_band_limited(grid, seed=3, band_limit=4),
                             CbfParams(r=3.5), config, None)
    c, box = state.coeffs, state.box
    assert not c.flags.writeable
    stacked = np.empty(c.shape, complex)
    stacked[:] = c
    ref = pointwise_samples(box.inverse(stacked), 3.5)
    got, jac = grid_samples(c, box, 3.5)
    assert jac is None
    for a, b in zip(got, ref):
        assert a.tobytes() == b.tobytes()


def test_state_field_is_built_once(monkeypatch, grid32):
    params = CbfParams(mu=0.1, beta=1.0, r=4.0)
    config = SolverConfig(dt=1e-3, t_end=1.0)
    forcing = Forcing()
    state = initialize_state(random_band_limited(grid32, seed=3, band_limit=8),
                             params, config, forcing)
    state = step(state)
    built = []
    original = SpectralField.__post_init__

    def counted(field):
        built.append(1)
        original(field)

    monkeypatch.setattr(SpectralField, "__post_init__", counted)
    u = state.u
    assert state.u is u and len(built) == 1
    assert np.array_equal(u.coeffs, state.box.expand(state.coeffs))


@pytest.mark.parametrize("ncomp", range(1, 10))
def test_squared_magnitude_is_the_ordered_sum(ncomp):
    data = np.random.default_rng(ncomp).standard_normal((ncomp, 12, 10)) * 1e3
    data[:, 0] = 0.0
    got = fields.squared_magnitude(data)
    assert got.tobytes() == np.sum(data * data, axis=0).tobytes()


@pytest.mark.parametrize("p", [-1.0, 0.0, 1.25, 3.0])
def test_pointwise_power_matches_the_guarded_formula(p):
    mag = np.abs(np.random.default_rng(5).standard_normal((7, 9)))
    mag[::2, 1::3] = 0.0
    positive = mag > 0
    ref = (np.ones_like(mag) if p == 0.0 else
           np.where(positive, np.where(positive, mag, 1.0) ** p, 0.0))
    assert pointwise_power(mag, p).tobytes() == ref.tobytes()
