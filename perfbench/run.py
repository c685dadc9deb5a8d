"""Benchmark of `partlysmooth experiment`, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload fixed_l1_p200 --seed 1 --seconds 40 --trace 0

See perfbench/README.md for the workloads and metrics.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy loads, here and in
# every child.  With default threads a jobs=2 sweep on 2 cores runs 2 workers
# x 2 threads, and its time measures the scheduler: the same 60-trial p=200
# sweep took 7.5 s with default threads against 0.75 s with one thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPEATS = 3
DEADLINE_S = 165.0  # a run must end within 180 s, set-up and reference runs included
RATE_FLOOR = 0.9  # identification rate required at the checked sweep point
POOL_JOBS = 2  # workers of the traced run's pooled check; jobs x 1 thread <= nproc
RUNS = 4  # CLI runs per interpreter in the untraced repeats (see child.py)

# name -> (unit, better)
END_TO_END = {
    "trials_per_s": ("trials/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_record(root):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
        "git_sha": git,
        "src_sha256": digest.hexdigest(),
    }


def read_records(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    rows = list(csv.DictReader(raw.decode().splitlines()))
    return hashlib.sha256(raw).hexdigest(), rows


def check_rows(run, rows):
    """Output checks of one run; returns (reason or None, non-converged count)."""
    if len(rows) != run.trials:
        return f"records.csv has {len(rows)} rows, expected {run.trials}", 0
    nonconverged = sum(r["converged"] != "true" for r in rows)
    if run.check == "smallest_noise":
        point = min(float(r["sigma"]) for r in rows)
        at = [r for r in rows if float(r["sigma"]) == point]
    else:
        point = max(int(r["n"]) for r in rows)
        at = [r for r in rows if int(r["n"]) == point]
    rate = sum(r["identified"] == "true" for r in at) / len(at)
    if rate < RATE_FLOOR:
        return f"identification rate {rate:.3f} < {RATE_FLOOR} at sweep point {point:g}", nonconverged
    return None, nonconverged


def run_child(run, out_dir, jobs, traced, deadline, src, runs=1):
    """CLI runs from one fresh interpreter (see child.py); one outcome per run."""
    os.makedirs(out_dir)
    result_path = os.path.join(out_dir, "child.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path,
           "spans" if traced else "-", str(runs), "--",
           "experiment", "--config", run.config, "--out", out_dir, "--jobs", str(jobs), "--quiet"]
    env = dict(os.environ, PYTHONPATH=src)
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child, its forks and any pool workers
        proc.communicate()
        return [{"run": run, "jobs": jobs, "reason": "timed out"} for _ in range(runs)]
    try:
        with open(result_path) as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        reason = f"child exited {proc.returncode}: {err.strip()[-500:]}"
        return [{"run": run, "jobs": jobs, "reason": reason} for _ in range(runs)]
    tail = (err.strip().splitlines()[-1:] or [""])[0]
    return [run_outcome(run, jobs, rec, start, res, tail, os.path.join(out_dir, f"run{k}"))
            for k, rec in enumerate(res["runs"])]


def run_outcome(run, jobs, rec, start, res, err_tail, out_dir):
    """Checks and timings of one CLI run of a child started at `start`."""
    outcome = {"run": run, "jobs": jobs, "reason": None}
    if rec["error"] is not None or rec["rc"] != 0:
        outcome["reason"] = f"cli exit {rec['rc']}, {rec['error'] or err_tail}"
        return outcome
    if rec["setup_end"] is None:
        outcome["reason"] = "check_model_stability was never called"
        return outcome
    try:
        sha, rows = read_records(os.path.join(out_dir, "records.csv"))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        outcome["reason"] = f"unreadable records.csv: {exc}"
        return outcome
    outcome["reason"], outcome["nonconverged"] = check_rows(run, rows)
    outcome.update(
        sha256=sha,
        trials=len(rows),
        identified=sum(r["identified"] == "true" for r in rows),
        sweep_s=rec["main_end"] - rec["setup_end"],
        import_s=res["import_s"],
        trial_s=rec["trial_s"],
        setup_s=None,
        rss_mb=None,
    )
    if "main_start" in rec:
        # the child's own run is a fresh user's run: its set-up is the
        # interpreter start and the import, then cli.main up to the end of
        # set-up, leaving out the forked runs made in between
        outcome.update(
            setup_s=res["import_end"] - start + rec["setup_end"] - rec["main_start"],
            rss_mb=rec["maxrss_kb"] / 1024.0,
        )
    if rec["spans"] is not None:
        outcome["spans"] = rec["spans"]
    return outcome


def failed_trials(outcome):
    return outcome["run"].trials if outcome["reason"] else outcome["nonconverged"]


def fastest(outcomes, key):
    """Per run of the workload, the passing outcome with the smallest o[key].

    On a shared 2-vCPU virtual machine, speed switches between a fast and a
    slow state that last seconds to minutes: one run saw the same sweep at
    300 and at 600 trials/s.  A median over repeats follows the share of
    time spent slow; the fastest repeat follows the code.  Across a slow
    spell the median import time rose 43%, the fastest 23%.
    """
    best = {}
    for o in outcomes:
        label = o["run"].label
        if o["reason"] or o[key] is None:
            continue
        if label not in best or o[key] < best[label][key]:
            best[label] = o
    return list(best.values())


def best_trials_per_s(outcomes):
    """Trials over sweep time of the fastest whole sweeps, pooled over runs."""
    best = fastest(outcomes, "sweep_s")
    return sum(o["trials"] for o in best) / sum(o["sweep_s"] for o in best) if best else 0.0


def trialwise_sweep_s(outcomes):
    """Sweep time of one run with every trial at its fastest repeat.

    The machine's slow spells come and go within a second: a 2 ms probe
    loop ran at its fast speed in almost every second, while its median per
    second swung by 45%.  So a whole sweep of half a second or more is
    rarely fast from end to end, but each of its trials, repeated with the
    same inputs, is fast in some repeat.  The sum of per-trial minima, plus
    the fastest remainder (task building, summary, writers), estimates the
    sweep on a quiet machine.  Without per-trial times (the trial function
    was not found), the fastest whole sweep counts.
    """
    done = [o for o in outcomes if not o["reason"]]
    timed = [o for o in done if o.get("trial_s") and len(o["trial_s"]) == o["trials"]]
    if not timed:
        return min(o["sweep_s"] for o in done) if done else None
    trials = sum(map(min, zip(*(o["trial_s"] for o in timed))))
    rest = min(o["sweep_s"] - sum(o["trial_s"]) for o in timed)
    return trials + rest


def trialwise_trials_per_s(runs, outcomes):
    """Trials over trialwise sweep time, pooled over the runs of the workload."""
    trials = sweep = 0.0
    for r in runs:
        s = trialwise_sweep_s([o for o in outcomes if o["run"] is r])
        if s is None:
            return 0.0
        trials += r.trials
        sweep += s
    return trials / sweep if sweep else 0.0


def repeat_median(repeats, key, combine):
    """Median over the repeats whose runs all passed of combine(run values)."""
    values = [combine(o[key] for o in rep if o[key] is not None) for rep in repeats
              if not any(o["reason"] for o in rep)]
    return statistics.median(values) if values else 0.0


def repeat_layers(outcomes, spans):
    """Per-layer figures of one traced repeat."""
    stats = None
    for o in outcomes:
        if "spans" in o:
            stats = spans.aggregate(o["spans"]["spans"], stats)
    m = spans.layer_metrics(stats if stats is not None else {})
    done = [o for o in outcomes if not o["reason"]]
    m["cli.import_s"] = statistics.fmean(o["import_s"] for o in done) if done else 0.0
    trials = sum(o["trials"] for o in done)
    m["experiments.identified_frac"] = sum(o["identified"] for o in done) / trials if trials else 0.0
    return m


def main(argv):
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "partlysmooth", "cli.py")):
        print(f"error: no src/partlysmooth under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    runs = workloads.generate(args.workload, args.seed, os.path.join(work, "inputs"))
    machine = machine_record(root)

    # closed loop: one CLI run at a time; a repeat runs every run of the workload
    # once (untraced, then traced with --trace 1)
    repeats = []
    t_measure = time.monotonic()
    while True:
        t_rep = time.monotonic()
        k = len(repeats)
        rep = {"plain": [o for r in runs for o in run_child(
            r, os.path.join(work, f"r{k}-{r.label}"), 1, False, deadline, src, RUNS)]}
        if args.trace:
            rep["traced"] = [o for r in runs for o in run_child(
                r, os.path.join(work, f"r{k}-{r.label}-traced"), 1, True, deadline, src)]
        repeats.append(rep)
        now = time.monotonic()
        took = now - t_rep
        if len(repeats) >= MIN_REPEATS and now - t_measure + took > args.seconds:
            break
        if now + took > deadline - 20.0:
            break
    measured_s = time.monotonic() - t_measure
    # the traced run also runs each config once on a process pool: it must
    # write the serial bytes, and it gives the parallel efficiency
    pooled = [o for r in runs
              for o in run_child(r, os.path.join(work, f"pool-{r.label}"), POOL_JOBS, False,
                                 deadline, src)] if args.trace else []

    everything = [o for rep in repeats for group in rep.values() for o in group] + pooled
    # the same inputs must give the same records.csv bytes on every run
    first_sha = {}
    for o in everything:
        if not o["reason"]:
            ref = first_sha.setdefault(o["run"].label, o["sha256"])
            if o["sha256"] != ref:
                o["reason"] = "records.csv differs from the first run of the same inputs"

    attempted = sum(o["run"].trials for o in everything)
    failed = sum(failed_trials(o) for o in everything)
    plain = [o for rep in repeats for o in rep["plain"]]
    tps = trialwise_trials_per_s(runs, plain)
    whole_tps = best_trials_per_s(plain)

    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"seed {args.seed}, trace {args.trace}, {len(repeats)} repeats, "
          f"{measured_s:.1f} s measured")
    print("machine " + json.dumps(machine, sort_keys=True))
    for o in everything:
        if o["reason"]:
            print(f"FAILED {o['run'].label} (--jobs {o['jobs']}): {o['reason']}")
    if any(not o["reason"] and o["trial_s"] is None for o in plain):
        print("  note: no per-trial times (experiments._run_task not found); "
              "trials_per_s uses the fastest whole sweeps")
    for r in runs:
        done = [o for o in plain if o["run"] is r and not o["reason"]]
        if done:
            print(f"run {r.label}: {r.trials} trials, fastest sweep "
                  f"{min(o['sweep_s'] for o in done):.4g} s, trialwise sweep "
                  f"{trialwise_sweep_s(done):.4g} s, fastest set-up "
                  f"{min(o['setup_s'] for o in done if o['setup_s'] is not None):.4g} s, "
                  f"records.csv sha256 {first_sha[r.label]}")

    if not args.trace:
        plain_repeats = [rep["plain"] for rep in repeats]
        values = {
            "trials_per_s": tps,
            "setup_s": sum(o["setup_s"] for o in fastest(plain, "setup_s")),
            "peak_rss_mb": repeat_median(plain_repeats, "rss_mb", max),
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
        print(f"  {'fail_frac':<16} {failed / attempted:.6g} ratio ({failed}/{attempted} trials)")
    else:
        layer = [repeat_layers(rep["traced"], spans) for rep in repeats]
        values = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        traced_tps = best_trials_per_s([o for rep in repeats for o in rep["traced"]])
        # whole fastest sweeps on both sides: the traced and pooled runs
        # have no per-trial times
        values["trace.slowdown"] = whole_tps / traced_tps if traced_tps else 0.0
        values["experiments.parallel_efficiency"] = \
            best_trials_per_s(pooled) / (POOL_JOBS * whole_tps) if whole_tps else 0.0
        missing = sorted({n for rep in repeats for o in rep["traced"] if "spans" in o
                          for n in o["spans"]["missing"]})
        if missing:
            print(f"  note: not traced (name not found): {', '.join(missing)}")
        total = None
        for rep in repeats:
            for o in rep["traced"]:
                if "spans" in o:
                    total = spans.aggregate(o["spans"]["spans"], total)
        print("  self-time share by span (all traced repeats):")
        for share, name in spans.self_time_shares(total or {})[:8]:
            print(f"    {share:6.1%}  {name}")
        zero = [n for n, v in values.items() if v == 0.0]
        if zero:
            print(f"  note: 0 means not exercised by this workload: {', '.join(sorted(zero))}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in spans.PER_LAYER.items()}

    for name, m in metrics.items():
        print(f"  {name:<16} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
