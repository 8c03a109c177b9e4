"""One workload execution: call ``cbftorus.cli.main`` in this fresh process
and write what was measured as JSON.

    python3 bench/worker.py RESULT.json SPANS.npz|- CLI_ARG...

``SPANS.npz`` turns tracing on (``-`` leaves it off).  Untraced, the only
instruments are a clock around ``solver.step`` and one at the first verify
check.  ``UserWarning`` is an error here, so a CFL warning fails the run.
"""

import contextlib
import json
import os
import resource
import sys
import traceback
import warnings

import spans


class Probe:
    """Marks the first step or check and times every solver step."""

    def __init__(self):
        self.first = None
        self.step_s = []
        self.last_state = None

    def install(self, solver, cli):
        step = solver.step
        run_one_check = cli._run_one_check

        def timed_step(*args, **kwargs):
            t0 = spans.clock()
            if self.first is None:
                self.first = t0
            state = step(*args, **kwargs)
            self.step_s.append(spans.clock() - t0)
            self.last_state = state
            return state

        def timed_check(*args, **kwargs):
            if self.first is None:
                self.first = spans.clock()
            return run_one_check(*args, **kwargs)

        spans.rebind(step, timed_step)
        spans.rebind(run_one_check, timed_check)


def main(argv):
    result_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np
    from cbftorus import cli, solver

    recorder = None
    if spans_path != "-":
        recorder = spans.SpanRecorder()
        spans.install(recorder)
    probe = Probe()
    probe.install(solver, cli)
    warnings.simplefilter("error", UserWarning)

    rc, error = None, None
    out_dir = cli_args[cli_args.index("--out") + 1]
    with open(os.path.join(out_dir, "stdout.txt"), "w") as fh, \
            contextlib.redirect_stdout(fh):
        try:
            rc = cli.main(cli_args)
        except Exception:
            error = traceback.format_exc()
    t_done = spans.clock()
    if recorder is not None:
        recorder.save(spans_path)
    finite = None
    if probe.last_state is not None:
        finite = bool(np.all(np.isfinite(probe.last_state.u.coeffs)))
    with open(result_path, "w") as fh:
        json.dump({
            "rc": rc, "error": error, "t_first": probe.first, "t_done": t_done,
            "step_s": probe.step_s, "finite": finite,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
