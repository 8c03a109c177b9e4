"""Time integration of the Galerkin-truncated system with energy accounting.

Two IMEX schemes advance the spectral state: first-order Euler and
Crank-Nicolson/Adams-Bashforth-2.  The stiff diagonal part mu*|k|^2 + alpha
is treated implicitly (an exact division in Fourier space); advection and
damping are explicit.  Running integrals of the energy-budget terms are
accumulated with the trapezoidal rule every step, so diagnostics carry the
cumulative defect of the energy identity

    ||u(t)||^2 + 2 mu int ||grad u||^2 + 2 alpha int ||u||^2
              + 2 beta int ||u||_{r+1}^{r+1}  =  ||u0||^2 + 2 int <f, u>.
"""

import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import BlowUpError, InvalidArgumentsError, InvalidFieldError
from .fields import (SpectralField, half_spectrum, magnitude, real_inverse,
                     to_physical)
from .operators import (CbfParams, nonlinear_term, physical_jacobian,
                        pointwise_power)
from .spectral import (band_mask, divergence_defect, dual_norm, grad_norm,
                       l2_norm, l2_pairing, leray_project)

SCHEMES = ("imex_euler", "imex_cnab2")
BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    scheme: str = "imex_cnab2"
    galerkin_n: int = 0
    galerkin_shape: str = "box"
    dealias: bool = True
    diagnostics_every: int = 10
    snapshot_every: int = 0
    substeps: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise InvalidArgumentsError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise InvalidArgumentsError(f"t_end must be >= 0, got {self.t_end}")
        if self.scheme not in SCHEMES:
            raise InvalidArgumentsError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.diagnostics_every < 1:
            raise InvalidArgumentsError("diagnostics cadence must be >= 1")
        if self.snapshot_every < 0:
            raise InvalidArgumentsError("snapshot cadence must be >= 0")
        if self.substeps < 1:
            raise InvalidArgumentsError("substeps must be >= 1")
        if self.substeps > 1 and self.scheme != "imex_euler":
            raise InvalidArgumentsError(
                "nonlinear sub-cycling is supported with imex_euler only")


class Forcing:
    """Right-hand side f(t); always Leray-projected before use."""

    def __init__(self, kind, sample=None):
        self.kind = kind
        self._sample = sample

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def steady(cls, f: SpectralField):
        f = leray_project(f)
        return cls("steady", lambda t: f)

    @classmethod
    def analytic(cls, fn):
        """Time-dependent forcing from a callable t -> SpectralField."""
        return cls("analytic", lambda t: leray_project(fn(t)))

    @property
    def is_zero(self):
        return self.kind == "zero"

    def at(self, t: float):
        """Projected forcing field at time t, or None when zero."""
        if self.kind == "zero":
            return None
        return self._sample(t)


@dataclass(frozen=True)
class BudgetRates:
    """Instantaneous values of the energy-budget integrands."""

    dissipation: float   # ||grad u||^2
    damping: float       # ||u||_{r+1}^{r+1}
    forcing: float       # <f, u>
    darcy: float         # ||u||^2 (alpha term integrand)
    a_norm_sq: float = 0.0        # ||A u||^2 (extended only)
    weighted_grad_sq: float = 0.0  # int |u|^{r-1}|grad u|^2 (extended only)


@dataclass(frozen=True)
class Integrals:
    """Trapezoidal accumulations of the budget integrands from t = 0."""

    dissipation: float = 0.0
    damping: float = 0.0
    forcing: float = 0.0
    darcy: float = 0.0
    a_norm_sq: float = 0.0
    weighted_grad_sq: float = 0.0

    def advance(self, old: BudgetRates, new: BudgetRates, dt: float):
        half = 0.5 * dt
        return Integrals(*(getattr(self, f.name)
                           + half * (getattr(old, f.name) + getattr(new, f.name))
                           for f in fields(Integrals)))


@dataclass(frozen=True)
class SimulationState:
    """Solver state.  ``u_phys`` caches the samples of ``u`` for the next
    nonlinear evaluation; only :func:`initialize_state` and :func:`step` set
    it, because they keep ``u`` inside the solver's mode band."""

    t: float
    u: SpectralField
    prev_nonlinear: SpectralField = None
    energy0: float = 0.0
    rates: BudgetRates = None
    integrals: Integrals = field(default_factory=Integrals)
    extended: bool = False
    u_phys: np.ndarray = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class DiagnosticsSample:
    """One time slice of norms, budget terms, and the energy-identity defect."""

    t: float
    energy: float
    v_seminorm_sq: float
    v_norm_sq: float
    lr1_norm: float
    forcing_power: float
    energy_residual: float
    int_dissipation: float
    int_damping: float
    int_forcing: float
    a_norm_sq: float = None
    weighted_grad_sq: float = None
    int_a_norm_sq: float = None
    int_weighted_grad_sq: float = None

    BASE_COLUMNS = ("t", "energy", "v_seminorm_sq", "v_norm_sq", "lr1_norm",
                    "forcing_power", "energy_residual", "int_dissipation",
                    "int_damping", "int_forcing")
    EXTENDED_COLUMNS = ("a_norm_sq", "weighted_grad_sq",
                        "int_a_norm_sq", "int_weighted_grad_sq")


def compute_rates(u: SpectralField, t: float, params: CbfParams,
                  forcing: Forcing, extended: bool = False,
                  u_phys=None) -> BudgetRates:
    """Evaluate the budget integrands at one instant."""
    grid = u.grid
    if u_phys is None:
        u_phys = to_physical(u).data
    mag = magnitude(u_phys)
    damping_val = float(np.sum(mag ** (params.r + 1.0)) * grid.cell_volume)
    f = forcing.at(t)
    forcing_val = l2_pairing(f, u) if f is not None else 0.0
    a_sq = wgrad = 0.0
    if extended:
        a_sq = float(grid.volume
                     * np.sum(grid.k_squared ** 2 * np.abs(u.coeffs) ** 2))
        jac = physical_jacobian(u)
        grad_sq = np.sum(jac * jac, axis=(0, 1))
        weight = pointwise_power(mag, params.r - 1.0)
        wgrad = float(np.sum(weight * grad_sq) * grid.cell_volume)
    return BudgetRates(grad_norm(u) ** 2, damping_val, forcing_val,
                       l2_norm(u) ** 2, a_sq, wgrad)


def initialize_state(ic: SpectralField, params: CbfParams, config: SolverConfig,
                     forcing: Forcing, extended: bool = False) -> SimulationState:
    """Project/dealias the initial condition and prime the budget rates."""
    u = ic
    if not u.divergence_free and divergence_defect(u) > 1e-10:
        warnings.warn("initial condition is not divergence-free; projecting")
    u = _restrict(leray_project(u), config)
    u_phys = to_physical(u).data
    rates = compute_rates(u, 0.0, params, forcing, extended, u_phys)
    return SimulationState(t=0.0, u=u, prev_nonlinear=None,
                           energy0=l2_norm(u) ** 2, rates=rates,
                           integrals=Integrals(), extended=extended,
                           u_phys=u_phys)


def _restrict(field: SpectralField, config: SolverConfig) -> SpectralField:
    mask = band_mask(field.grid, config.dealias, config.galerkin_n,
                     config.galerkin_shape)
    return field if mask is None else field.replace(field.coeffs * mask)


def _nonlinear(u: SpectralField, params: CbfParams, config: SolverConfig,
               u_phys=None):
    """Explicit term B(u) + beta*C(u) plus the max speed for the CFL check;
    ``u_phys`` are the samples of u when already known."""
    out, u_phys = nonlinear_term(u, params, config.dealias, config.galerkin_n,
                                 config.galerkin_shape, u_phys=u_phys)
    return out, float(np.max(magnitude(u_phys)))


def _forcing_coeffs(forcing: Forcing, t: float, config: SolverConfig, grid):
    f = forcing.at(t)
    if f is None:
        return 0.0
    return _restrict(f, config).coeffs


def _check_cfl(max_speed: float, grid, dt: float):
    k_max = np.pi * grid.n_points / grid.period
    if dt * max_speed * k_max >= 1.0:
        warnings.warn(
            f"CFL sanity violated: dt*max|u|*k_max = {dt * max_speed * k_max:.3g} >= 1")


def step(state: SimulationState, params: CbfParams, config: SolverConfig,
         forcing: Forcing) -> SimulationState:
    """Advance one time step; divergence-free by construction.  Raises
    :class:`BlowUpError` when the state overflows or runs away."""
    try:
        return _advance(state, params, config, forcing)
    except InvalidFieldError:
        raise BlowUpError("non-finite state", last_valid_time=state.t) from None


def _advance(state, params, config, forcing):
    grid = state.u.grid
    dt = config.dt
    lam = params.mu * grid.k_squared + params.alpha

    if config.scheme == "imex_euler" or state.prev_nonlinear is None:
        n_sub = config.substeps if config.scheme == "imex_euler" else 1
        h = dt / n_sub
        coeffs = state.u.coeffs
        nl = max_speed = None
        for s in range(n_sub):
            t_sub = state.t + s * h
            u_sub = SpectralField(grid, coeffs, divergence_free=True)
            nl, max_speed = _nonlinear(u_sub, params, config,
                                       state.u_phys if s == 0 else None)
            rhs = coeffs + h * (_forcing_coeffs(forcing, t_sub, config, grid)
                                - nl.coeffs)
            coeffs = rhs / (1.0 + h * lam)
        _check_cfl(max_speed, grid, dt)
        new_u = SpectralField(grid, coeffs, divergence_free=True)
        prev_nl = nl if config.scheme == "imex_cnab2" else None
    else:
        nl, max_speed = _nonlinear(state.u, params, config, state.u_phys)
        _check_cfl(max_speed, grid, dt)
        explicit = 1.5 * nl.coeffs - 0.5 * state.prev_nonlinear.coeffs
        f_mid = _forcing_coeffs(forcing, state.t + 0.5 * dt, config, grid)
        rhs = (1.0 - 0.5 * dt * lam) * state.u.coeffs + dt * (f_mid - explicit)
        new_u = SpectralField(grid, rhs / (1.0 + 0.5 * dt * lam),
                              divergence_free=True)
        prev_nl = nl

    new_t = state.t + dt
    new_phys = real_inverse(half_spectrum(new_u.coeffs, grid), grid)
    new_rates = compute_rates(new_u, new_t, params, forcing, state.extended,
                              new_phys)
    if state.energy0 > 0 and new_rates.darcy > BLOWUP_FACTOR ** 2 * state.energy0:
        raise BlowUpError("energy runaway", last_valid_time=state.t)
    return SimulationState(
        t=new_t, u=new_u, prev_nonlinear=prev_nl, energy0=state.energy0,
        rates=new_rates,
        integrals=state.integrals.advance(state.rates, new_rates, dt),
        extended=state.extended,
        u_phys=new_phys if state.u_phys is not None else None)


def sample_diagnostics(state: SimulationState, params: CbfParams) -> DiagnosticsSample:
    """Diagnostics row for the current state, including the cumulative defect."""
    r = state.rates
    ints = state.integrals
    energy = r.darcy
    residual = (energy
                + 2.0 * params.mu * ints.dissipation
                + 2.0 * params.alpha * ints.darcy
                + 2.0 * params.beta * ints.damping
                - state.energy0 - 2.0 * ints.forcing)
    extended_values = {}
    if state.extended:
        extended_values = dict(a_norm_sq=r.a_norm_sq,
                               weighted_grad_sq=r.weighted_grad_sq,
                               int_a_norm_sq=ints.a_norm_sq,
                               int_weighted_grad_sq=ints.weighted_grad_sq)
    return DiagnosticsSample(
        t=state.t, energy=energy, v_seminorm_sq=r.dissipation,
        v_norm_sq=energy + r.dissipation, lr1_norm=r.damping,
        forcing_power=r.forcing, energy_residual=residual,
        int_dissipation=ints.dissipation, int_damping=ints.damping,
        int_forcing=ints.forcing, **extended_values)


def run(ic: SpectralField, params: CbfParams, config: SolverConfig,
        forcing: Forcing = None, extended: bool = False):
    """Advance to t_end; returns (final state, diagnostics list, snapshots).

    Snapshots are (time, SpectralField) pairs at the configured cadence.
    Deterministic for fixed inputs.  On blow-up the partial diagnostics ride
    along on the raised :class:`BlowUpError`.
    """
    forcing = forcing if forcing is not None else Forcing.zero()
    state = initialize_state(ic, params, config, forcing, extended)
    n_steps = int(round(config.t_end / config.dt))
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * max(config.dt, config.t_end):
        warnings.warn("t_end is not an integer number of steps; rounding")
    diagnostics = [sample_diagnostics(state, params)]
    snapshots = []
    if config.snapshot_every > 0:
        snapshots.append((state.t, state.u))
    for m in range(1, n_steps + 1):
        try:
            state = step(state, params, config, forcing)
        except BlowUpError as err:
            raise BlowUpError(str(err), err.last_valid_time,
                              diagnostics) from None
        if m % config.diagnostics_every == 0 or m == n_steps:
            diagnostics.append(sample_diagnostics(state, params))
        if config.snapshot_every > 0 and (m % config.snapshot_every == 0
                                          or m == n_steps):
            snapshots.append((state.t, state.u))
    return state, diagnostics, snapshots


def energy_residual(sample_prev: DiagnosticsSample, sample_next: DiagnosticsSample,
                    dt: float, params: CbfParams) -> float:
    """Discrete energy-identity defect across one sample interval."""
    def integrand(s):
        return (params.mu * s.v_seminorm_sq + params.alpha * s.energy
                + params.beta * s.lr1_norm - s.forcing_power)

    return (sample_next.energy - sample_prev.energy
            + 2.0 * dt * 0.5 * (integrand(sample_prev) + integrand(sample_next)))


def apriori_bound(ic: SpectralField, params: CbfParams, forcing: Forcing,
                  t: float, n_quad: int = 512) -> float:
    """Energy-estimate bound ||u0||^2 + (1/mu) int_0^t ||f(s)||_{V'}^2 ds."""
    base = l2_norm(ic) ** 2
    if forcing is None or forcing.is_zero or t == 0.0:
        return base
    times = np.linspace(0.0, t, n_quad + 1)
    vals = np.array([dual_norm(forcing.at(s)) ** 2 for s in times])
    trapezoid = float(np.sum(np.diff(times) * (vals[1:] + vals[:-1]) / 2.0))
    return base + trapezoid / params.mu
