"""Command-line surface: run, verify, convergence, taylor-green.

Exit status contract: 0 all good, 1 check failure, 2 usage/config error or
malformed snapshot, 3 numerical blow-up.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import verification as verif
from .config import RunConfig, config_from_text, dump_config, load_config
from .errors import (BlowUpError, CbfError, ConfigError, InvalidArgumentsError,
                     RegimeError, SnapshotFormatError)
from .families import taylor_green_exact
from .fields import to_physical
from .grid import TorusGrid
from .snapshot import write_snapshot_file
from .solver import DiagnosticsSample, run
from .spectral import embed_modes, l2_norm, leray_project
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


def diagnostics_columns(samples):
    cols = list(DiagnosticsSample.BASE_COLUMNS)
    if samples and samples[0].a_norm_sq is not None:
        cols += list(DiagnosticsSample.EXTENDED_COLUMNS)
    return cols


def write_diagnostics(samples, path):
    """Tab-delimited diagnostics table with a fixed, documented column order."""
    cols = diagnostics_columns(samples)
    lines = ["\t".join(cols)]
    for s in samples:
        lines.append("\t".join(_fmt(getattr(s, c)) for c in cols))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_run(config: RunConfig, out_dir=None, extended=False) -> int:
    grid = config.grid()
    params = config.params()
    solver_config = config.solver()
    forcing = config.forcing(grid)
    ic = config.initial_condition(grid)
    extended = extended or config["output"]["extended_diagnostics"]
    out = _ensure_outdir(out_dir or config["output"]["directory"])
    dump_config(config, os.path.join(out, "config_effective.ini"))
    try:
        state, diagnostics, snapshots = run(ic, params, solver_config,
                                            forcing, extended=extended)
    except BlowUpError as err:
        write_diagnostics(err.diagnostics, os.path.join(out, "diagnostics.tsv"))
        print(f"blow-up at t = {err.last_valid_time:g}: {err}", file=sys.stderr)
        return EXIT_BLOWUP
    write_diagnostics(diagnostics, os.path.join(out, "diagnostics.tsv"))
    for i, (t, field) in enumerate(snapshots):
        write_snapshot_file(os.path.join(out, f"snap_{i:06d}.snap"),
                            field, t, params)
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


def _sampled_context(config: RunConfig, seed_override=None):
    v = config["verify"]
    seed = v["seed"] if seed_override is None else seed_override
    grid = TorusGrid(dim=config["grid"]["dim"], n_points=v["n"],
                     period=config["grid"]["l"])
    sampler = FieldSampler(grid=grid, seed=seed, band_limit=v["band_limit"],
                           spectrum_slope=v["slope"], amplitude=v["amplitude"])
    return sampler, v


def _run_one_check(name, config: RunConfig, sampler, v):
    params = config.params()
    n = v["samples"]
    tol = v["tolerance"]
    if name == "trilinear":
        return verif.check_trilinear(sampler, n)
    if name == "monotone_shifted":
        return verif.check_monotone_shifted(sampler, params, n, tol)
    if name == "monotone_critical":
        return verif.check_monotone_critical(sampler, params, n, tol)
    if name == "advection_splitting":
        return verif.check_advection_splitting(sampler, params, n, tol)
    if name == "local_2d":
        return verif.check_local_bound_2d(sampler, params.mu, n, tol)
    if name == "damping_monotone":
        return verif.check_damping_monotone(sampler, params.r, n, tol)
    if name == "damping_lipschitz":
        return verif.check_damping_lipschitz(sampler, params.r, n, tol)
    if name == "mvt":
        return verif.check_pointwise_mvt(sampler, params.r, min(n, 200), tol)
    if name == "dissipation_identity":
        return verif.check_dissipation_identity(sampler, params.r, min(n, 200))
    if name == "interpolation":
        s_exp, rho_exp, t_exp = v["interpolation_exponents"]
        return verif.check_interpolation(sampler, s_exp, rho_exp, t_exp, n, tol)
    if name == "advection_bounds":
        return verif.check_advection_bounds(sampler, params.r, n)
    if name == "filter":
        return verif.check_filter_props(sampler, (1, 10, 100, 1000, 10000),
                                        min(n, 50))
    if name == "operator_continuity":
        return verif.check_operator_continuity(sampler, params, min(n, 20))
    if name == "gronwall":
        return verif.check_gronwall()
    grid = config.grid()
    solver_config = config.solver()
    forcing = config.forcing(grid)
    ic = config.initial_condition(grid)
    if name == "continuous_dependence":
        seed = sampler.seed
        delta = FieldSampler(grid=grid, seed=seed + 9001,
                             band_limit=v["band_limit"],
                             spectrum_slope=v["slope"],
                             amplitude=v["perturbation"]).field_from_seed(seed + 9001)
        return verif.check_continuous_dependence(params, solver_config, ic,
                                                 delta, forcing)
    if name == "apriori":
        _, diagnostics, _ = run(ic, params, solver_config, forcing)
        return verif.check_apriori(diagnostics, params, forcing)
    if name == "regularity":
        _, diagnostics, _ = run(ic, params, solver_config, forcing,
                                extended=True)
        return verif.check_regularity(diagnostics, params, forcing)
    raise ConfigError(f"unknown check {name!r}")


def cmd_verify(config: RunConfig, out_dir=None, seed_override=None) -> int:
    sampler, v = _sampled_context(config, seed_override)
    names = v["checks"]
    if "all" in names:
        names = verif.CHECKS
    blocks, failures = [], 0
    for name in names:
        try:
            report = _run_one_check(name, config, sampler, v)
        except RegimeError as err:
            blocks.append(f"check {name}\n  status       REGIME-SKIP ({err})")
            continue
        blocks.append(str(report))
        if not report.passed:
            failures += 1
    text = "\n\n".join(blocks) + "\n"
    print(text, end="")
    out = out_dir or config["output"]["directory"]
    if out:
        _ensure_outdir(out)
        with open(os.path.join(out, "verify_report.txt"), "w") as fh:
            fh.write(text)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _taylor_green_error(state, params):
    """Max pointwise error against the Taylor-Green closed form, relative."""
    exact = taylor_green_exact(state.u.grid, params.mu, state.t)
    num = to_physical(state.u)
    return np.max(np.abs(num.data - exact.data)) / np.max(np.abs(exact.data))


def _convergence_errors_dt(config: RunConfig, metric, dts):
    grid = config.grid()
    params = config.params()
    base = config.solver()
    forcing = config.forcing(grid)
    ic = config.initial_condition(grid)
    errors = []
    for dt in dts:
        solver_config = dataclasses.replace(base, dt=dt, diagnostics_every=10 ** 9,
                                            snapshot_every=0)
        state, diagnostics, _ = run(ic, params, solver_config, forcing)
        if metric == "taylor_green":
            if params.beta != 0.0 or params.alpha != 0.0:
                raise ConfigError("taylor_green metric needs beta = alpha = 0")
            err = _taylor_green_error(state, params)
        elif metric == "single_mode":
            if params.beta != 0.0:
                raise ConfigError("single_mode metric needs beta = 0")
            ic_spec = config.section("ic")
            if ic_spec["family"] != "single_mode":
                raise ConfigError("single_mode metric needs ic.family = single_mode")
            k_sq = (sum(m * m for m in ic_spec["mode"])
                    * (2.0 * np.pi / grid.period) ** 2)
            decay = np.exp(-(params.mu * k_sq + params.alpha) * state.t)
            u0 = leray_project(config.initial_condition(grid))
            err = l2_norm(state.u - u0 * float(decay)) / l2_norm(u0)
        else:
            err = abs(diagnostics[-1].energy_residual)
        errors.append(float(err))
    return errors


def _convergence_errors_n(config: RunConfig, ns):
    params = config.params()
    base = config.solver()
    errors = []
    fine_grid = TorusGrid(dim=config["grid"]["dim"], n_points=max(ns),
                          period=config["grid"]["l"])
    ref, _, _ = run(config.initial_condition(fine_grid), params, base,
                    config.forcing(fine_grid))
    for n in sorted(ns)[:-1]:
        grid = TorusGrid(dim=config["grid"]["dim"], n_points=n,
                         period=config["grid"]["l"])
        state, _, _ = run(config.initial_condition(grid), params, base,
                          config.forcing(grid))
        errors.append(l2_norm(embed_modes(state.u, fine_grid) - ref.u))
    return errors


def _order_table(xs, errors):
    lines = []
    for i, (x, e) in enumerate(zip(xs, errors)):
        if i == 0:
            order = float("nan")
        else:
            order = (np.log(errors[i - 1] / e)
                     / np.log(xs[i - 1] / x)) if e > 0 else float("nan")
        lines.append((x, e, order))
    return lines


def cmd_convergence(config: RunConfig, out_dir=None) -> int:
    conv = config["convergence"]
    dts, ns = conv["dts"], conv["ns"]
    if not dts and not ns:
        raise InvalidArgumentsError("convergence needs a dt ladder or an N ladder")
    out = _ensure_outdir(out_dir or config["output"]["directory"])
    if dts:
        if len(dts) < 3:
            raise InvalidArgumentsError("dt ladder must have at least 3 entries")
        errors = _convergence_errors_dt(config, conv["metric"], dts)
        rows = _order_table(dts, errors)
        path = os.path.join(out, "convergence_dt.tsv")
        with open(path, "w", newline="\n") as fh:
            fh.write("dt\terror\torder\n")
            for dt, e, order in rows:
                fh.write(f"{_fmt(dt)}\t{_fmt(e)}\t{order:.4f}\n")
        print(f"dt\terror\torder  (metric: {conv['metric']})")
        for dt, e, order in rows:
            print(f"{dt:.6g}\t{e:.6e}\t{order:.3f}")
    if ns:
        if len(ns) < 3:
            raise InvalidArgumentsError("N ladder must have at least 3 entries")
        errors = _convergence_errors_n(config, ns)
        path = os.path.join(out, "convergence_n.tsv")
        with open(path, "w", newline="\n") as fh:
            fh.write("n\terror\tratio\n")
            for i, (n, e) in enumerate(zip(sorted(ns)[:-1], errors)):
                ratio = errors[i - 1] / e if i > 0 and e > 0 else float("nan")
                fh.write(f"{n}\t{_fmt(e)}\t{ratio:.4f}\n")
        print("n\terror (vs finest)")
        for n, e in zip(sorted(ns)[:-1], errors):
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
        if name == "run":
            p.add_argument("--extended-diagnostics", action="store_true")
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
            return cmd_run(config, out_dir=args.out,
                           extended=args.extended_diagnostics)
        if args.command == "verify":
            return cmd_verify(config, out_dir=args.out, seed_override=args.seed)
        return cmd_convergence(config, out_dir=args.out)
    except (ConfigError, InvalidArgumentsError, SnapshotFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as err:
        print(f"blow-up at t = {err.last_valid_time:g}", file=sys.stderr)
        return EXIT_BLOWUP
    except CbfError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def cmd_taylor_green(out_dir) -> int:
    """Canned benchmark: decaying Taylor-Green vortex against its closed form."""
    config = config_from_text(TAYLOR_GREEN_CONFIG)
    grid = config.grid()
    params = config.params()
    out = _ensure_outdir(out_dir)
    dump_config(config, os.path.join(out, "config_effective.ini"))
    state, diagnostics, _ = run(config.initial_condition(grid), params,
                                config.solver(), config.forcing(grid))
    write_diagnostics(diagnostics, os.path.join(out, "diagnostics.tsv"))
    write_snapshot_file(os.path.join(out, "final_state.snap"),
                        state.u, state.t, params)
    err = _taylor_green_error(state, params)
    print(f"taylor-green max pointwise relative error at t={state.t:g}: {err:.3e}")
    print(f"outputs in {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
