"""`partlysmooth experiment` runs from one fresh interpreter.

Usage: python child.py RESULT_JSON SPANS|- RUNS -- <cli arguments>

The interpreter imports partlysmooth.cli once and times that import.  It
then makes RUNS runs of cli.main, each with its own output directory,
OUT/run<k> for the given --out OUT.  The first RUNS-1 of them run in
forked processes, one after another; the last runs in the interpreter
itself.  A
fork starts from the state a fresh interpreter has right after the import,
before any call into the package, so its sweep does the work a user's run
does, and the import is paid once for all runs.  The last run is exactly
a user's run, so only its set-up (interpreter start, import, config, draw,
certificate) and its peak RSS are reported: a fork's RSS leaves out the
shared pages it never touched.

Each run records its exit code (or the exception that escaped cli.main),
the clock reading when the sweep's one-time check_model_stability call
returned (the end of set-up), the clock reading when cli.main returned
and, in a serial untraced run, the wall time of each Monte-Carlo trial in
task order.  With SPANS given as anything but "-", the layer boundaries are
wrapped and the spans recorded too.  RESULT_JSON collects {"import_s",
"import_end", "runs": [one record per run]}.  time.monotonic is the
system-wide CLOCK_MONOTONIC on Linux, so the parent subtracts its own
reading taken just before it started this process.
"""

import json
import os
import resource
import sys
import time
import traceback


def run_once(cli, experiments, cli_args, traced):
    """One cli.main call in this process; returns its record."""
    out = {"rc": None, "error": None, "setup_end": None, "trial_s": None, "spans": None}
    recorder = None
    if traced:
        from spans import Recorder

        recorder = Recorder()
        recorder.install(cli)

    certify = experiments.check_model_stability

    def end_of_setup(*args, **kwargs):
        report = certify(*args, **kwargs)
        if out["setup_end"] is None:
            out["setup_end"] = time.monotonic()
        return report

    experiments.check_model_stability = end_of_setup

    # per-trial wall times, so the parent can take each trial at its fastest
    # repeat; only in-process (--jobs 1) trials can be timed from here
    run_task = getattr(experiments, "_run_task", None)
    serial = "--jobs" in cli_args and cli_args[cli_args.index("--jobs") + 1] == "1"
    if recorder is None and serial and run_task is not None:
        trial_s = out["trial_s"] = []

        def timed_task(task):
            t0 = time.perf_counter()
            result = run_task(task)
            trial_s.append(time.perf_counter() - t0)
            return result

        experiments._run_task = timed_task
    try:
        out["rc"] = cli.main(cli_args)
    except Exception as exc:  # a raise out of cli.main is a failed run, not a crash
        traceback.print_exc()
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["main_end"] = time.monotonic()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        out["spans"] = {"spans": recorder.spans, "missing": recorder.missing}
    return out


def main(argv):
    if len(argv) < 4 or argv[3] != "--" or "--out" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    result_path, spans, runs, _, *cli_args = argv
    traced = spans != "-"

    t = time.perf_counter()
    import partlysmooth.cli as cli
    from partlysmooth import experiments
    import_s = time.perf_counter() - t
    import_end = time.monotonic()

    out_at = cli_args.index("--out") + 1
    out_dir = cli_args[out_at]
    records = []
    for k in range(int(runs)):
        args = list(cli_args)
        args[out_at] = os.path.join(out_dir, f"run{k}")
        if k == int(runs) - 1:
            main_start = time.monotonic()
            record = run_once(cli, experiments, args, traced)
            record["main_start"] = main_start
            records.append(record)
            break
        path = f"{result_path}.{k}"
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                record = run_once(cli, experiments, args, traced)
                del record["maxrss_kb"]
                with open(path, "w") as fh:
                    json.dump(record, fh)
                code = 0
            finally:
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        try:
            with open(path) as fh:
                records.append(json.load(fh))
        except (OSError, ValueError):
            records.append({"rc": None, "error": f"fork exited with wait status {status}"})
    with open(result_path, "w") as fh:
        json.dump({"import_s": import_s, "import_end": import_end, "runs": records}, fh)
    return 0 if records[-1]["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
