"""Time integration of the Galerkin-truncated system with energy accounting.

Two IMEX schemes advance the spectral state: first-order Euler and
Crank-Nicolson/Adams-Bashforth-2.  The stiff diagonal part mu*|k|^2 + alpha
is treated implicitly (an exact division in Fourier space); advection and
damping are explicit.  Running integrals of the energy-budget terms are
accumulated with the trapezoidal rule every step, so diagnostics carry the
cumulative defect of the energy identity

    ||u(t)||^2 + 2 mu int ||grad u||^2 + 2 alpha int ||u||^2
              + 2 beta int ||u||_{r+1}^{r+1}  =  ||u0||^2 + 2 int <f, u>.

Each step works on the compact box of the modes that dealiasing and
Galerkin truncation keep (``fields.band_box``): the explicit term, the IMEX
update, the forcing and the budget rates, Plancherel sums that weight each
column standing for its mirror image by 2.  It symmetrizes column 0 and
keeps the result, compact, as the state; the state's ``u`` on the half
spectrum is built on first read.  |u|^2 is formed once per set of samples of
u; the weight |u|^{r-1} from it gives both the damping rate and the next
step's damping term.
"""

import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np

from .errors import BlowUpError, InvalidArgumentsError, InvalidFieldError
from .fields import ModeBox, SpectralField, band_box, symmetrize_columns
from .operators import CbfParams, Samples, nonlinear_term, pointwise_samples
from .spectral import (divergence_defect, dual_norm, jacobian, l2_norm,
                       leray_project, mode_pairing, mode_power,
                       project_coeffs)

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
        if self.galerkin_n < 0 or self.galerkin_shape not in ("box", "ball"):
            raise InvalidArgumentsError(
                "galerkin_n must be >= 0 and galerkin_shape box or ball, got "
                f"{self.galerkin_n} and {self.galerkin_shape!r}")


class Forcing:
    """Right-hand side f(t) = profile(t) * P(base), with P the Leray
    projector: zero (no base), steady (no profile) or analytic.  The base is
    projected once, and gathered onto each mode box once."""

    def __init__(self, base: SpectralField = None, profile=None):
        self._base = None if base is None else leray_project(base)
        self._profile = profile
        self._gathered = {}  # mode box -> base gathered onto it

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def steady(cls, f: SpectralField):
        return cls(f)

    @classmethod
    def analytic(cls, base: SpectralField, profile):
        """Time-dependent forcing profile(t) * P(base) for a callable
        t -> float."""
        return cls(base, profile)

    @property
    def is_zero(self):
        return self._base is None

    def at(self, t: float):
        """Projected forcing field at time t, or None when zero."""
        if self._base is None or self._profile is None:
            return self._base
        return self._base * float(self._profile(t))

    def box_coeffs(self, t: float, box):
        """Coefficients of f(t) on the mode ``box``, or 0.0 when f = 0."""
        if self._base is None:
            return 0.0
        if box not in self._gathered:
            self._gathered[box] = box.gather(self._base.coeffs)
        if self._profile is None:
            return self._gathered[box]
        return self._gathered[box] * float(self._profile(t))


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


@dataclass(frozen=True, init=False)
class SimulationState:
    """Solver state: read-only ``coeffs`` on the mode ``box``, and ``u``, the
    exactly Hermitian field on the half, given or built on first read.
    ``prev_nonlinear`` is the previous explicit term on the box.  ``samples``
    caches u on the grid with |u|^2 and |u|^{r-1}; only initialize_state and
    step set it, as they keep u inside the solver's mode band.  A state
    without it steps on the whole half, so its modes off the band persist."""

    t: float
    coeffs: np.ndarray = field(repr=False, compare=False)
    box: ModeBox = field(repr=False, compare=False)
    prev_nonlinear: np.ndarray = field(default=None, repr=False, compare=False)
    energy0: float = 0.0
    rates: BudgetRates = None
    integrals: Integrals = field(default_factory=Integrals)
    extended: bool = False
    samples: Samples = field(default=None, repr=False, compare=False)

    def __init__(self, t, u=None, prev_nonlinear=None, energy0=0.0, rates=None,
                 integrals=Integrals(), extended=False, samples=None,
                 coeffs=None, box=None):
        if u is not None:
            coeffs, box = u.coeffs, band_box(u.grid, False)
            self.__dict__["u"] = u
        self.__dict__.update(
            t=t, coeffs=coeffs, box=box, prev_nonlinear=prev_nonlinear,
            energy0=energy0, rates=rates, integrals=integrals,
            extended=extended, samples=samples)

    @cached_property
    def u(self) -> SpectralField:
        """The state as an exactly Hermitian field on the half spectrum."""
        return SpectralField(self.box.grid, self.box.expand(self.coeffs),
                             divergence_free=True)


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
                  samples: Samples = None) -> BudgetRates:
    """Evaluate the budget integrands at one instant: Plancherel sums over
    the half spectrum, and ``samples`` of u (formed here when not given)."""
    return _rates(u.coeffs, band_box(u.grid, False), t, params, forcing,
                  extended, samples)


def _rates(c, box, t, params, forcing, extended, samples=None):
    """:func:`compute_rates` of the coefficients ``c`` on the mode box."""
    grid = box.grid
    if samples is None:
        samples = pointwise_samples(box.inverse(c), params.r)
    weights = box.plancherel_weights * grid.volume
    power = mode_power(c, weights)
    k2 = box.k_squared
    damping_val = float(np.sum(samples.weight * samples.sq) * grid.cell_volume)
    forcing_val = (0.0 if forcing.is_zero else
                   mode_pairing(forcing.box_coeffs(t, box), c, weights))
    a_sq = wgrad = 0.0
    if extended:
        a_sq = float(np.sum(k2 * k2 * power))
        jac = box.inverse(jacobian(c, box))
        grad_sq = np.sum(jac * jac, axis=(0, 1))
        wgrad = float(np.sum(samples.weight * grad_sq) * grid.cell_volume)
    return BudgetRates(float(np.sum(k2 * power)), damping_val, forcing_val,
                       float(np.sum(power)), a_sq, wgrad)


def initialize_state(ic: SpectralField, params: CbfParams, config: SolverConfig,
                     forcing: Forcing, extended: bool = False) -> SimulationState:
    """Project and restrict the initial condition, and prime the budget
    rates; the state is exactly Hermitian."""
    grid = ic.grid
    if not ic.divergence_free and divergence_defect(ic) > 1e-10:
        warnings.warn("initial condition is not divergence-free; projecting")
    box = _box(grid, config)
    c = project_coeffs(box.gather(ic.coeffs), box.wavenumbers, box.inv_k_squared)
    if box.mask is not None:
        c = c * box.mask
    c = _settle(c, grid)
    samples = pointwise_samples(box.inverse(c), params.r)
    rates = _rates(c, box, 0.0, params, forcing, extended, samples)
    return SimulationState(t=0.0, coeffs=c, box=box, energy0=rates.darcy,
                           rates=rates, extended=extended, samples=samples)


def _settle(c, grid):
    """``c`` symmetrized in place, checked finite and made read-only."""
    symmetrize_columns(c, grid)
    if not np.all(np.isfinite(c)):
        raise InvalidFieldError("non-finite coefficients")
    c.setflags(write=False)
    return c


def _box(grid, config: SolverConfig, whole=False):
    return band_box(grid, config.dealias, config.galerkin_n,
                    config.galerkin_shape, whole)


@lru_cache(maxsize=8)
def _multiplier(box, params: CbfParams, a: float):
    """1 + a*lam on ``box``, lam = mu*|k|^2 + alpha: the implicit multiplier
    of an Euler step a = h and of Crank-Nicolson a = dt/2, and the explicit
    one of Crank-Nicolson a = -dt/2."""
    return 1.0 + a * (params.mu * box.k_squared + params.alpha)


def _nonlinear(c, box, params: CbfParams, config: SolverConfig, samples=None):
    """Explicit term B(u) + beta*C(u) on the box, and the max speed for the
    CFL check; ``samples`` are those of u when already known."""
    out, samples = nonlinear_term(c, box, params, config.dealias,
                                  samples=samples)
    return out, float(np.sqrt(np.max(samples.sq)))


def _check_cfl(max_speed: float, grid, dt: float):
    k_max = np.pi * grid.n_points / grid.period
    if dt * max_speed * k_max >= 1.0:
        warnings.warn(
            f"CFL sanity violated: dt*max|u|*k_max = {dt * max_speed * k_max:.3g} >= 1")


def step(state: SimulationState, params: CbfParams, config: SolverConfig,
         forcing: Forcing) -> SimulationState:
    """Advance one time step; divergence-free by construction.  Raises
    :class:`BlowUpError` when the state overflows or runs away."""
    grid = state.box.grid
    dt = config.dt
    box = _box(grid, config, whole=state.samples is None)

    def on_box(a):  # an array of the state, on the step's box
        return a if state.box is box else box.gather(state.box.expand(a))

    c = on_box(state.coeffs)

    def forcing_at(t):
        f = forcing.box_coeffs(t, box)
        return f if box.mask is None else f * box.mask

    # In place, in the operation order of (c + h*(f - nl)) / (1 + h*lam) and
    # ((1 - dt/2*lam)*c + dt*(f - (1.5*nl - 0.5*prev))) / (1 + dt/2*lam).
    if config.scheme == "imex_euler" or state.prev_nonlinear is None:
        n_sub = config.substeps if config.scheme == "imex_euler" else 1
        h = dt / n_sub
        for s in range(n_sub):
            nl, max_speed = _nonlinear(c, box, params, config,
                                       state.samples if s == 0 else None)
            new = np.subtract(forcing_at(state.t + s * h), nl)
            np.multiply(h, new, out=new)
            np.add(c, new, out=new)
            c = np.divide(new, _multiplier(box, params, h), out=new)
        prev_nl = nl if config.scheme == "imex_cnab2" else None
    else:
        nl, max_speed = _nonlinear(c, box, params, config, state.samples)
        new = np.multiply(1.5, nl)
        new -= 0.5 * on_box(state.prev_nonlinear)
        np.subtract(forcing_at(state.t + 0.5 * dt), new, out=new)
        np.multiply(dt, new, out=new)
        np.add(_multiplier(box, params, -0.5 * dt) * c, new, out=new)
        c = np.divide(new, _multiplier(box, params, 0.5 * dt), out=new)
        prev_nl = nl

    try:
        c = _settle(c, grid)
    except InvalidFieldError:
        raise BlowUpError("non-finite state", last_valid_time=state.t) from None
    _check_cfl(max_speed, grid, dt)
    new_t = state.t + dt
    samples = pointwise_samples(box.inverse(c), params.r)
    new_rates = _rates(c, box, new_t, params, forcing, state.extended, samples)
    if state.energy0 > 0 and new_rates.darcy > BLOWUP_FACTOR ** 2 * state.energy0:
        raise BlowUpError("energy runaway", last_valid_time=state.t)
    return SimulationState(
        t=new_t, coeffs=c, box=box, prev_nonlinear=prev_nl,
        energy0=state.energy0, rates=new_rates,
        integrals=state.integrals.advance(state.rates, new_rates, dt),
        extended=state.extended,
        samples=samples if state.samples is not None else None)


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
