"""Time integration of the Galerkin-truncated system with energy accounting.

Two IMEX schemes advance the spectral state: first-order Euler and
Crank-Nicolson/Adams-Bashforth-2.  The stiff diagonal part mu*|k|^2 + alpha
is treated implicitly (an exact division in Fourier space); advection and
damping are explicit.  Running integrals of the energy-budget terms are
accumulated with the trapezoidal rule every step, so diagnostics carry the
cumulative defect of the energy identity

    ||u(t)||^2 + 2 mu int ||grad u||^2 + 2 alpha int ||u||^2
              + 2 beta int ||u||_{r+1}^{r+1}  =  ||u0||^2 + 2 int <f, u>.

A state comes from :func:`initialize_state` or :func:`step` only, carries
its problem (params, solver config, forcing) and steps on its own box: the
modes that dealiasing and Galerkin truncation keep (``fields.band_box``).
The explicit term, the IMEX update, the forcing and the budget rates,
Plancherel sums that weight each column standing for its mirror image by 2,
work there.  A step symmetrizes column 0 and keeps the result, compact, as
the state; its ``u`` on the half is built on first read.  |u|^2 is formed
once per set of samples of u; the weight |u|^{r-1} from it gives both the
damping rate and the next step's damping term.
"""

import warnings
from dataclasses import astuple, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import BlowUpError, InvalidArgumentsError, InvalidFieldError
from .fields import (ModeBox, SpectralField, _settled, band_box, mode_box,
                     require_same_grid)
from .operators import (DIV_FREE_TOL, CbfParams, Samples, grid_samples,
                        nonlinear_term)
from .spectral import divergence_defect, restrict_modes

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
        # Past 2**53 steps the clock t + dt rounds back to t before t_end.
        if not self.t_end / self.dt <= 2.0 ** 53:
            raise InvalidArgumentsError(f"t_end/dt = {self.t_end}/{self.dt}, "
                                        "the step count, is not finite or "
                                        "exceeds 2**53")
        if self.scheme not in SCHEMES:
            raise InvalidArgumentsError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.diagnostics_every < 1:
            raise InvalidArgumentsError("diagnostics_every must be >= 1")
        if self.snapshot_every < 0:
            raise InvalidArgumentsError("snapshot_every must be >= 0")
        if self.substeps < 1:
            raise InvalidArgumentsError("substeps must be >= 1")
        if self.substeps > 1 and self.scheme != "imex_euler":
            raise InvalidArgumentsError(
                "substeps > 1 (nonlinear sub-cycling) needs scheme imex_euler")
        if self.galerkin_n < 0:
            raise InvalidArgumentsError(
                f"galerkin_n must be >= 0, got {self.galerkin_n}")
        if self.galerkin_shape not in ("box", "ball"):
            raise InvalidArgumentsError(
                "galerkin_shape must be box or ball, got "
                f"{self.galerkin_shape!r}")


class Forcing:
    """Right-hand side f(t) = profile(t) * P(base), P the Leray projector,
    profile a callable t -> float: ``Forcing()`` is zero, ``Forcing(base)``
    steady, ``Forcing(base, profile)`` analytic.  The base is projected
    once and held on the mode box of its support, every |m_i| <= R with R
    the largest |m_i| of its nonzero coefficients (at R = N/2, the half),
    and expanded to the half on demand.  A step meets f only on the modes
    that the support shares with its box: per step box, the index of those
    modes in it and the base on them, masked, are kept."""

    def __init__(self, base: SpectralField = None, profile=None):
        self._box = self._coeffs = None
        if base is not None:
            self._box = mode_box(base.grid, _support_radius(base))
            self._coeffs = _settled(self._box.project(self._box.gather(base.coeffs)),
                                    complex, self._box.shape, "coefficients")
        self._profile = profile
        self._shared = {}  # step box -> (shared box, its index there, base)

    @property
    def is_zero(self):
        return self._box is None

    def _base(self):
        """The projected base as a field on the half spectrum, expanded
        from the support box; nothing keeps it."""
        return SpectralField(self._box.grid, self._box.expand(self._coeffs))

    def restricted(self, grid):
        """The same forcing with its base restricted to the modes of the
        coarser ``grid`` (``spectral.restrict_modes``)."""
        if self._box is None:
            return self
        return Forcing(restrict_modes(self._base(), grid), self._profile)

    def at(self, t: float):
        """Projected forcing field at time t, or None when zero."""
        if self._box is None:
            return None
        base = self._base()
        return base if self._profile is None else base * float(self._profile(t))

    def _on(self, t: float, box):
        """(the box of the modes that the support shares with the step
        ``box``, their index in ``box``, f(t) on them, zero off the box's
        mask, and f(t) off them: 0.0 times the profile, signed zero and
        all); a base on another grid is a GridMismatchError."""
        if box not in self._shared:
            require_same_grid(box, self._box)
            shared = mode_box(box.grid, min(box.radius, self._box.radius))
            index = box.index_of(shared)
            base = self._coeffs[self._box.index_of(shared)]
            if box.mask is not None:
                base = base * box.mask[index]
            self._shared[box] = shared, index, base
        shared, index, base = self._shared[box]
        if self._profile is None:
            return shared, index, base, 0.0
        scale = float(self._profile(t))
        return shared, index, base * scale, np.multiply(np.zeros((), complex), scale)

    def minus(self, t: float, box, x, out=None):
        """f(t) - x for coefficients ``x`` on the step ``box``, into ``out``
        (which may be ``x``; a new array when None): f - x on the modes the
        support shares with the box, 0.0 - x elsewhere, as f gathered onto
        the whole box would give to the bit."""
        if self._box is None:
            return np.subtract(0.0, x, out=out)
        _, index, f, off = self._on(t, box)
        on = np.subtract(f, x[index])
        out = np.subtract(off, x, out=out)
        out[index] = on
        return out

    def power(self, t: float, box, c):
        """<f(t), u> for the u of coefficients ``c`` on the step ``box``: a
        Plancherel sum over the modes that the support shares with it."""
        if self._box is None:
            return 0.0
        shared, index, f, _ = self._on(t, box)
        return shared.mode_pairing(f, c[index])


def _support_radius(field: SpectralField) -> int:
    """The largest |m_i| among the nonzero coefficients of ``field`` (0 when
    it has none)."""
    grid = field.grid
    nonzero = np.any(field.coeffs != 0, axis=0)
    radius = 0
    for axis in range(grid.dim):
        hit = np.any(nonzero, axis=tuple(a for a in range(grid.dim) if a != axis))
        modes = grid.modes if axis < grid.dim - 1 else np.arange(len(hit))
        radius = max(radius, int(np.max(np.abs(modes[hit]), initial=0)))
    return radius


@dataclass(frozen=True)
class BudgetRates:
    """Values of the energy-budget integrands at one instant, or their
    trapezoidal accumulations from t = 0 (a state's ``integrals``)."""

    dissipation: float = 0.0       # ||grad u||^2
    damping: float = 0.0           # ||u||_{r+1}^{r+1}
    forcing: float = 0.0           # <f, u>
    darcy: float = 0.0             # ||u||^2 (alpha term integrand)
    a_norm_sq: float = 0.0         # ||A u||^2 (extended only)
    weighted_grad_sq: float = 0.0  # int |u|^{r-1}|grad u|^2 (extended only)

    def advance(self, old, new, dt: float):
        half = 0.5 * dt
        return BudgetRates(*(getattr(self, name)
                             + half * (getattr(old, name) + getattr(new, name))
                             for name in self.__dataclass_fields__))


@dataclass(frozen=True)
class SimulationState:
    """State of one trajectory of ``params``, ``config`` and ``forcing``,
    made by :func:`initialize_state` and :func:`step` only: read-only
    ``coeffs`` on the mode ``box`` it steps on, ``samples`` of u with |u|^2
    and |u|^{r-1}, and ``prev_nonlinear``, the previous explicit term on the
    box.  ``u``, the Hermitian field on the half, is built on first read."""

    t: float
    coeffs: np.ndarray = field(repr=False, compare=False)
    box: ModeBox = field(repr=False, compare=False)
    samples: Samples = field(repr=False, compare=False)
    rates: BudgetRates
    energy0: float
    params: CbfParams = field(repr=False, compare=False)
    config: SolverConfig = field(repr=False, compare=False)
    forcing: Forcing = field(repr=False, compare=False)
    prev_nonlinear: np.ndarray = field(default=None, repr=False, compare=False)
    integrals: BudgetRates = field(default_factory=BudgetRates)
    extended: bool = False

    def expand(self) -> SpectralField:
        """The state as a new, exactly Hermitian field on the half spectrum."""
        return SpectralField(self.box.grid, self.box.expand(self.coeffs))

    u = cached_property(expand)  # built on first read, kept with the state


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


def _rates(c, box, t, forcing, samples, jac):
    """Evaluate the budget integrands at one instant for the coefficients
    ``c`` on the mode box: Plancherel sums over the box, and ``samples`` of
    u and, in the extended rates, ``jac`` of its Jacobian (None: not
    extended)."""
    grid = box.grid
    power = box.mode_power(c)
    k2 = box.k_squared
    damping_val = grid.integral(samples.weight * samples.sq)
    forcing_val = forcing.power(t, box, c)
    a_sq = wgrad = 0.0
    if jac is not None:
        a_sq = float((k2 * k2 * power).sum())
        grad_sq = (jac * jac).sum(axis=(0, 1))
        wgrad = grid.integral(samples.weight * grad_sq)
    return BudgetRates(float((k2 * power).sum()), damping_val, forcing_val,
                       float(power.sum()), a_sq, wgrad)


def initialize_state(ic: SpectralField, params: CbfParams, config: SolverConfig,
                     forcing: Forcing, extended: bool = False) -> SimulationState:
    """Project and restrict the initial condition, and prime the budget
    rates, a :class:`BlowUpError` if one is not finite; the state is
    exactly Hermitian.  ``forcing`` None is unforced."""
    forcing = Forcing() if forcing is None else forcing
    if divergence_defect(ic) > DIV_FREE_TOL:
        warnings.warn("initial condition is not divergence-free; projecting")
    box = band_box(ic.grid, config.dealias, config.galerkin_n,
                   config.galerkin_shape)
    c = _settle(box.masked(box.project(box.gather(ic.coeffs))), box)
    samples, jac = grid_samples(c, box, params.r, extended)
    rates = _rates(c, box, 0.0, forcing, samples, jac)
    if not np.all(np.isfinite(astuple(rates))):
        raise BlowUpError("non-finite energy budget", last_valid_time=0.0)
    return SimulationState(t=0.0, coeffs=c, box=box, samples=samples,
                           rates=rates, energy0=rates.darcy, extended=extended,
                           params=params, config=config, forcing=forcing)


def _settle(c, box):
    """``c`` symmetrized in place and held to the array contract of fields:
    finite, read-only coefficients on ``box``."""
    return _settled(box.symmetrize(c), complex, box.shape,
                    "coefficients")


@lru_cache(maxsize=8)
def _multiplier(box, params: CbfParams, a: float):
    """1 + a*lam on ``box``, lam = mu*|k|^2 + alpha: the implicit multiplier
    of an Euler step a = h and of Crank-Nicolson a = dt/2, and the explicit
    one of Crank-Nicolson a = -dt/2."""
    return 1.0 + a * (params.mu * box.k_squared + params.alpha)


def _check_explicit(samples, grid, params: CbfParams, dt: float, h: float,
                    limit: float):
    """Warn when the explicit part of the update that ran, given the
    :class:`Samples` it read, was unstable: when dt*max|u|*k_max >= 1 (CFL),
    then when h*beta*r*max|u|^{r-1}, the explicit damping's rate times the
    step h, reaches the update's ``limit`` (2 for an Euler step, 1 for
    Adams-Bashforth-2)."""
    k_max = np.pi * grid.n_points / grid.period
    cfl = dt * float(np.sqrt(np.max(samples.sq))) * k_max
    if cfl >= 1.0:
        warnings.warn(f"CFL sanity violated: dt*max|u|*k_max = {cfl:.3g} >= 1")
    stiffness = h * params.beta * params.r * float(np.max(samples.weight))
    if stiffness >= limit:
        warnings.warn(f"explicit damping is stiff: h*beta*r*max|u|^(r-1) = "
                      f"{stiffness:.3g} >= {limit:g}")


def step(state: SimulationState) -> SimulationState:
    """Advance the state's trajectory one step, divergence-free by
    construction.  Raises :class:`BlowUpError` on overflow or runaway."""
    box, c = state.box, state.coeffs
    params, config, forcing = state.params, state.config, state.forcing
    dt = config.dt

    # In place, in the operation order of (c + h*(f - nl)) / (1 + h*lam) and
    # ((1 - dt/2*lam)*c + h*(f - (1.5*nl - 0.5*prev))) / (1 + dt/2*lam), where
    # h = dt.  A first CNAB2 step, with no previous term, is an Euler step.
    cnab2 = state.prev_nonlinear is not None
    h = dt / config.substeps
    samples = state.samples  # of u at the step's start
    for s in range(config.substeps):
        if s:  # the last sub-step's, freed before the next are built
            nl = samples = None
        nl, samples = nonlinear_term(c, box, params, config.dealias,
                                     samples=samples)
        if cnab2:
            new = np.multiply(1.5, nl)
            new -= 0.5 * state.prev_nonlinear
            forcing.minus(state.t + 0.5 * dt, box, new, out=new)
        else:
            new = forcing.minus(state.t + s * h, box, nl)
        np.multiply(h, new, out=new)
        np.add(_multiplier(box, params, -0.5 * dt) * c if cnab2 else c, new,
               out=new)
        c = np.divide(new, _multiplier(box, params, 0.5 * dt if cnab2 else h),
                      out=new)
    prev_nl = nl if config.scheme == "imex_cnab2" else None

    try:
        c = _settle(c, box)
    except InvalidFieldError:
        raise BlowUpError("non-finite state", last_valid_time=state.t) from None
    _check_explicit(samples, box.grid, params, dt, h, 1.0 if cnab2 else 2.0)
    del samples, nl  # freed before the new samples are built
    new_t = state.t + dt
    samples, jac = grid_samples(c, box, params.r, state.extended)
    new_rates = _rates(c, box, new_t, forcing, samples, jac)
    if state.energy0 > 0 and new_rates.darcy > BLOWUP_FACTOR ** 2 * state.energy0:
        raise BlowUpError("energy runaway", last_valid_time=state.t)
    return SimulationState(
        t=new_t, coeffs=c, box=box, samples=samples, rates=new_rates,
        energy0=state.energy0, prev_nonlinear=prev_nl,
        integrals=state.integrals.advance(state.rates, new_rates, dt),
        extended=state.extended, params=params, config=config, forcing=forcing)


def sample_diagnostics(state: SimulationState) -> DiagnosticsSample:
    """Diagnostics row for the current state, including the cumulative defect."""
    params, r, ints = state.params, state.rates, state.integrals
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
        forcing: Forcing = None, extended: bool = False, snapshot=None):
    """Advance to t_end; returns (final state, diagnostics list).

    ``snapshot(t, field)``, when given and ``snapshot_every > 0``, gets a new
    field, kept by nobody else, at t = 0, every ``snapshot_every`` steps and
    the last step.  ``ic`` is dropped once the first state exists, so one
    passed as a call temporary is freed then.  Deterministic for fixed
    inputs.  On blow-up the partial diagnostics ride along on the raised
    :class:`BlowUpError`.
    """
    state = initialize_state(ic, params, config, forcing, extended)
    del ic
    n_steps = int(round(config.t_end / config.dt))
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * max(config.dt, config.t_end):
        warnings.warn("t_end is not an integer number of steps; rounding")
    every = config.snapshot_every if snapshot is not None else 0
    diagnostics = [sample_diagnostics(state)]
    if every:
        snapshot(state.t, state.expand())
    for m in range(1, n_steps + 1):
        try:
            state = step(state)
        except BlowUpError as err:
            raise BlowUpError(str(err), err.last_valid_time,
                              diagnostics) from None
        if m % config.diagnostics_every == 0 or m == n_steps:
            diagnostics.append(sample_diagnostics(state))
        if every and (m % every == 0 or m == n_steps):
            snapshot(state.t, state.expand())
    return state, diagnostics

