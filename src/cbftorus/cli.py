"""Command-line surface: run, verify, convergence, taylor-green.

Exit status contract: 0 all good, 1 check failure, 2 usage/config error,
malformed snapshot, unwritable output file or failed allocation, 3 blow-up.
"""

import argparse
import dataclasses
import functools
import inspect
import itertools
import os
import sys

import numpy as np

from . import verification as verif
from .config import (RunConfig, check_value, config_from_text, dump_config,
                     load_config)
from .errors import (BlowUpError, CbfError, ConfigError, InvalidArgumentsError,
                     RegimeError, SnapshotFormatError)
from .families import check_band_limit
from .fields import to_physical
from .snapshot import write_snapshot_file
from .solver import DiagnosticsSample, initialize_state, run
from .spectral import embed_modes, l2_norm, restrict_modes
from .verification import FieldSampler

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

TAYLOR_GREEN_CONFIG = """\
[grid]
dim = 2
n = 64

[params]
mu = 0.1
alpha = 0.0
beta = 0.0
r = 3.0

[solver]
dt = 0.001
t_end = 1.0
scheme = imex_cnab2
diagnostics_every = 50

[ic]
family = taylor_green
"""


def _fmt(x):
    return f"{x:.17e}"


def write_diagnostics(samples, path):
    """Tab-delimited table of the fields of ``DiagnosticsSample`` that the run
    kept (not None), in field order; of no samples, the ten with no default."""
    kept = samples[0] if samples else None
    cols = [f.name for f in dataclasses.fields(DiagnosticsSample)
            if (f.default if kept is None else getattr(kept, f.name)) is not None]
    lines = ["\t".join(cols)]
    for s in samples:
        lines.append("\t".join(_fmt(getattr(s, c)) for c in cols))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _ensure_outdir(path):
    """Make the output directory; one that cannot be made (an empty path, an
    existing file) is a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot make output directory {path!r}: "
                          f"{err.strerror}") from None
    return path


def cmd_run(config: RunConfig, out_dir=None) -> int:
    # The problem is built before anything is written; the IC is held only
    # by ``ics``, so that, popped into the call, it is freed once the first
    # state exists.
    ics = [None]
    ics[0], params, solver_config, forcing = config.problem()
    out = _ensure_outdir(out_dir or config["output"]["directory"])
    dump_config(config, os.path.join(out, "config_effective.ini"))
    paths = (os.path.join(out, f"snap_{i:06d}.snap") for i in itertools.count())
    try:
        _, diagnostics = run(
            ics.pop(), params, solver_config, forcing,
            extended=config["output"]["extended_diagnostics"],
            snapshot=lambda t, field: write_snapshot_file(next(paths), field,
                                                          t, params))
    except BlowUpError as err:
        write_diagnostics(err.diagnostics, os.path.join(out, "diagnostics.tsv"))
        raise
    write_diagnostics(diagnostics, os.path.join(out, "diagnostics.tsv"))
    final = diagnostics[-1]
    max_residual = max(abs(d.energy_residual) for d in diagnostics)
    print(f"final t          {final.t:.6g}")
    print(f"energy           {final.energy:.12e}")
    print(f"dissipation 2mu* {2.0 * params.mu * final.int_dissipation:.12e}")
    print(f"damping 2beta*   {2.0 * params.beta * final.int_damping:.12e}")
    print(f"forcing 2*       {2.0 * final.int_forcing:.12e}")
    print(f"max |energy_residual| {max_residual:.6e}")
    print(f"outputs in {out}")
    return EXIT_OK


class _Session:
    """The inputs of one ``verify`` session's checks, each under the name of
    the check parameters it fills.  The [ic] problem and its one extended
    run are built on first use, once per session."""

    def __init__(self, config: RunConfig, seed_override=None):
        v = self.verify = config["verify"]
        self.params = config.params()
        self.problem = functools.cache(config.problem)
        self.mu, self.r = self.params.mu, self.params.r
        self.n_samples, self.tolerance = v["samples"], v["tolerance"]
        self.s_exp, self.rho_exp, self.t_exp = v["interpolation_exponents"]
        grid = dataclasses.replace(config.grid(), n_points=v["n"])
        seed = v["seed"] if seed_override is None else check_value(
            "verify", "seed", seed_override)
        self.sampler = FieldSampler(
            grid=grid, seed=seed, band_limit=v["band_limit"],
            spectrum_slope=v["slope"], amplitude=v["amplitude"])

    ic = property(lambda self: self.problem()[0])
    config = property(lambda self: self.problem()[2])
    forcing = property(lambda self: self.problem()[3])

    @functools.cached_property
    def diagnostics(self):
        return run(*self.problem(), extended=True)[1]

    @property
    def perturbation(self):
        """The sampler's field of seed + 9001, on [grid] at amplitude
        [verify] perturbation."""
        sampler = dataclasses.replace(self.sampler, grid=self.ic.grid,
                                      amplitude=self.verify["perturbation"])
        return sampler.field_from_seed(sampler.seed + 9001)


def _run_one_check(name, session: _Session):
    """Report of check ``name`` of ``verification.CHECKS``, its regime
    decided first: each parameter of its ``run`` is the input of ``session``
    of that name, ``n_samples`` at most the row's ``cap``."""
    check, cap, regime = verif.CHECKS[name]
    if regime is not None:
        regime(session.params)
    inputs = {key: getattr(session, key)
              for key in inspect.signature(check).parameters}
    if cap is not None:
        inputs["n_samples"] = min(inputs["n_samples"], cap)
    return check(**inputs)


def cmd_verify(config: RunConfig, out_dir=None, seed_override=None) -> int:
    session = _Session(config, seed_override)
    names = config["verify"]["checks"]
    if "all" in names:
        names = verif.CHECKS
    if "continuous_dependence" in names:
        # Its perturbation is drawn on [grid]; unless the check is a skip,
        # the band must fit that grid before any check runs.
        try:
            verif.CHECKS["continuous_dependence"].regime(session.params)
        except RegimeError:
            pass
        else:
            check_band_limit(session.verify["band_limit"], config["grid"]["n"], "verify")
    out = out_dir or config["output"]["directory"]  # empty: print only
    made = bool(out) and not os.path.exists(out)
    if out:
        _ensure_outdir(out)
    blocks, failures = [], 0
    try:
        for name in names:
            try:
                report = _run_one_check(name, session)
            except RegimeError as err:
                blocks.append(f"check {name}\n  status       REGIME-SKIP ({err})")
                continue
            blocks.append(str(report))
            if not report.passed:
                failures += 1
    except BaseException:
        if made and not os.listdir(out):  # an error before the report
            os.rmdir(out)
        raise
    text = "\n\n".join(blocks) + "\n"
    print(text, end="")
    if out:
        with open(os.path.join(out, "verify_report.txt"), "w") as fh:
            fh.write(text)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _exact_solution(start, t):
    """Point values at time t of the exact solution through ``start`` at
    beta = 0, unforced, start.u * e^{-(mu*lam + alpha)*t} with lam the
    Rayleigh quotient of ``start``."""
    lam, p = start.rates.dissipation / start.rates.darcy, start.params
    return to_physical(start.u * float(np.exp(-(p.mu * lam + p.alpha) * t))).data


def _exact_error(state, start):
    """Max pointwise error of ``state`` relative to ``_exact_solution``."""
    exact = _exact_solution(start, state.t)
    return np.max(np.abs(to_physical(state.u).data - exact)) / np.max(np.abs(exact))


def _check_ladders(config: RunConfig, metric, problem, ns):
    """Check the ladders before anything is made; return the state that the
    exact metric's dt ladder of ``problem`` starts from, or None.  That
    metric needs beta = 0, a Taylor-Green or single-mode [ic], no forcing,
    a start that keeps more than a rounding share of the [ic] energy and a
    normal-float exact solution at t_end.  The N ladder's finest grid must
    be a snapshot field's grid and admit the band of each random one."""
    ic, forcing, start = config.source("ic"), config.source("forcing"), None
    if problem is not None and metric == "exact":
        start = initialize_state(*problem)
        if (start.params.beta or forcing or ic not in ("taylor_green", "single_mode")
                or start.rates.darcy <= np.finfo(float).eps * l2_norm(problem[0]) ** 2):
            raise ConfigError("exact metric needs beta = 0, ic.family = taylor_green or "
                              "single_mode, unforced (forcing.kind = zero), from an "
                              "initial state with energy")
        t_end = problem[2].t_end
        if np.max(np.abs(_exact_solution(start, t_end))) < np.finfo(float).tiny:
            raise ConfigError(f"exact metric: the exact solution underflows by "
                              f"t_end = {t_end:g}")
    if ns:
        n = config["grid"]["n"]
        if max(ns) != n and "snapshot" in (ic, forcing):
            raise ConfigError(f"convergence.ns: the finest N = {max(ns)} is "
                              f"not [grid] n = {n}, the snapshot's grid")
        config.check_bands(max(ns))
    return start


def _convergence_errors_dt(dts, problem, start):
    """Each rung's error: against the exact solution through ``start``, or,
    start None, the final energy residual."""
    ic, params, base, forcing = problem
    runs = (run(ic, params, dataclasses.replace(base, dt=dt), forcing) for dt in dts)
    return [float(abs(diagnostics[-1].energy_residual) if start is None
                  else _exact_error(state, start))
            for state, diagnostics in runs]


def _convergence_errors_n(problem, ns):
    """L2 distance of each coarser run to the finest, all of one problem:
    the [ic] and [forcing] fields are built on the finest grid once, and
    each coarser run starts from their modes restricted to its grid."""
    errors = []
    ic, params, solver_config, forcing = problem
    ref, _ = run(ic, params, solver_config, forcing)
    for n in sorted(ns)[:-1]:
        grid = dataclasses.replace(ic.grid, n_points=n)
        state, _ = run(restrict_modes(ic, grid), params, solver_config,
                       forcing.restricted(grid))
        errors.append(l2_norm(embed_modes(state.u, ic.grid) - ref.u))
    return errors


def _write_ladder(path, header, rungs, errors, rule):
    """Write each rung, its error and ``rule(e0 / e, x0 / x)`` against the
    rung before, nan on the first rung and where e = 0; return that column."""
    third = [rule(errors[i - 1] / e, rungs[i - 1] / x) if i and e > 0
             else float("nan") for i, (x, e) in enumerate(zip(rungs, errors))]
    with open(path, "w", newline="\n") as fh:
        fh.write(header)
        for x, e, value in zip(rungs, errors, third):
            cell = _fmt(x) if isinstance(x, float) else x
            fh.write(f"{cell}\t{_fmt(e)}\t{value:.4f}\n")
    return third


def cmd_convergence(config: RunConfig, out_dir=None) -> int:
    conv = config["convergence"]
    dts, ns = conv["dts"], conv["ns"]
    if not dts and not ns:
        raise InvalidArgumentsError("convergence needs a dt ladder or an N ladder")
    # Each ladder's fields are built and checked before anything is written.
    dt_problem = config.problem() if dts else None
    start = _check_ladders(config, conv["metric"], dt_problem, ns)
    n_problem = config.problem(dataclasses.replace(
        config.grid(), n_points=max(ns))) if ns else None
    out = _ensure_outdir(out_dir or config["output"]["directory"])
    if dts:
        errors = _convergence_errors_dt(dts, dt_problem, start)
        orders = _write_ladder(os.path.join(out, "convergence_dt.tsv"),
                               "dt\terror\torder\n", dts, errors,
                               lambda ratio, step: np.log(ratio) / np.log(step))
        print(f"dt\terror\torder  (metric: {conv['metric']})")
        for dt, e, order in zip(dts, errors, orders):
            print(f"{dt:.6g}\t{e:.6e}\t{order:.3f}")
    if ns:
        rungs = sorted(ns)[:-1]
        errors = _convergence_errors_n(n_problem, ns)
        _write_ladder(os.path.join(out, "convergence_n.tsv"), "n\terror\tratio\n",
                      rungs, errors, lambda ratio, step: ratio)
        print("n\terror (vs finest)")
        for n, e in zip(rungs, errors):
            print(f"{n}\t{e:.6e}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cbftorus",
        description="Pseudo-spectral damped Navier-Stokes solver and "
                    "verification harness on the periodic torus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify", "convergence"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to INI config")
        p.add_argument("--out", default=None, help="output directory override")
        if name == "verify":
            p.add_argument("--seed", type=int, default=None,
                           help="override verify seed")
    tg = sub.add_parser("taylor-green", help="canned Taylor-Green benchmark run")
    tg.add_argument("--out", default="out_taylor_green")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "taylor-green":
            return cmd_taylor_green(args.out)
        config = load_config(args.config)
        if args.command == "run":
            return cmd_run(config, out_dir=args.out)
        if args.command == "verify":
            return cmd_verify(config, out_dir=args.out, seed_override=args.seed)
        return cmd_convergence(config, out_dir=args.out)
    except (ConfigError, InvalidArgumentsError, SnapshotFormatError, OSError,
            MemoryError) as err:  # an unwritable output file, an array too large
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as err:
        print(f"blow-up at t = {err.last_valid_time:g}: {err}", file=sys.stderr)
        return EXIT_BLOWUP
    except CbfError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def cmd_taylor_green(out_dir) -> int:
    """Canned benchmark: decaying Taylor-Green vortex against its exact solution."""
    config = config_from_text(TAYLOR_GREEN_CONFIG)
    problem = config.problem()
    params, start = problem[1], initialize_state(*problem)
    out = _ensure_outdir(out_dir)
    dump_config(config, os.path.join(out, "config_effective.ini"))
    state, diagnostics = run(*problem)
    write_diagnostics(diagnostics, os.path.join(out, "diagnostics.tsv"))
    write_snapshot_file(os.path.join(out, "final_state.snap"),
                        state.u, state.t, params)
    err = _exact_error(state, start)
    print(f"taylor-green max pointwise relative error at t={state.t:g}: {err:.3e}")
    print(f"outputs in {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
