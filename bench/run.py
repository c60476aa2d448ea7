"""probcal benchmark: one closed-loop client running probcal commands.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes the workload's input CSVs (``bench/datagen.py``); probcal
sees only those files. With ``--trace 0`` each job's commands run as
``python -m probcal`` subprocesses and the end-to-end metrics are reported.
With ``--trace 1`` the same jobs call ``probcal.cli.main(argv)`` in this
process, once plain and once with ``bench/tracer.py`` hooks installed, and
the per-layer metrics plus the tracing overhead are reported. Either way
every command's output is checked (``bench/checks.py``); a nonzero exit or a
failed check counts as a failed operation.

Jobs run back to back until the next one would end after ``--seconds``;
at least one job always runs. The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a JSON report with every metric's median and quartiles, the input hashes,
the p-values and the environment. Spans and the report are also written to
``bench/_out/``. The run exits 1 without a result when ``src/probcal`` is
missing.
"""

import os

#: BLAS/OpenMP threads for this process and every child. One thread is both
#: faster and steadier than two for these problem sizes on a 2-core machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(THREAD_ENV)  # before numpy loads its BLAS

import argparse
import contextlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

import tracer as tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
WORK = BENCH / "_work"

#: Runs of ``python -m probcal --help`` whose median is ``setup_s``.
SETUP_REPS = 7
#: A run never starts a job that would end past this many seconds.
HARD_STOP_S = 150.0
#: probcal's exit code for a fit that failed.
EXIT_FIT = 4

#: Span names whose inclusive time is a per-layer metric ``<name>_s``.
SPAN_METRICS = (
    "cli.read_predictions", "cli.write_probabilities", "cli.save_model", "cli.load_model",
    "core.clip_probabilities", "optim.minimize", "optim.fun", "optim.hess",
    "dirichlet.fit", "scaling.fit_temperature", "scaling.fit_affine_logit",
    "ovr.fit_ovr", "ovr.apply_ovr", "models.fit_calibrator",
    "harness.cross_val_fit", "harness.compare_methods",
    "metrics.evaluate", "metrics.log_loss",
    "stattest.calibration_test", "stattest.counter_uniforms",
)
#: Spans with traced children, whose self time is also reported as ``<name>_self_s``.
SELF_METRICS = (
    "optim.minimize", "dirichlet.fit", "models.fit_calibrator", "harness.cross_val_fit",
    "harness.compare_methods", "metrics.evaluate", "stattest.calibration_test",
)
#: Per-layer counts: metric name -> tracer counter.
COUNT_METRICS = {
    "optim.minimize_calls": "optim.minimize_calls",
    "optim.iterations": "optim.iterations",
    "optim.fun_evals": "optim.fun_calls",
    "optim.hess_evals": "optim.hess_calls",
    "dirichlet.fit_calls": "dirichlet.fit_calls",
    "models.fit_calibrator_calls": "models.fit_calibrator_calls",
    "harness.cross_val_fit_calls": "harness.cross_val_fit_calls",
    "stattest.resamples": "stattest.resamples",
    "ovr.isotonic_breakpoints": "ovr.isotonic_breakpoints",
    "core.validate_calls": "core.validate_calls",
}


def per_layer_units():
    units = {f"{name}_s": "s" for name in SPAN_METRICS}
    units.update({f"{name}_self_s": "s" for name in SELF_METRICS})
    units.update({name: "count" for name in COUNT_METRICS})
    units["optim.converged_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.absent_hooks"] = "count"
    return units


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "written_mb": "MB"}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, stdout_path, stderr_path, timeout):
    """Run one process; returns (wall seconds, exit code, peak RSS in MB).

    ``launch.py`` starts the process, times it and reads its own peak RSS
    from ``os.wait4``.
    """
    timeout = max(timeout, 1.0)
    launcher = [sys.executable, str(BENCH / "launch.py"), str(stdout_path), str(stderr_path),
                str(timeout), *argv]
    done = subprocess.run(launcher, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout + 30.0, check=True)
    result = json.loads(done.stdout)
    return result["wall_s"], result["exit"], result["peak_rss_kb"] / 1024.0


def run_inprocess(cli, argv, stdout_path, stderr_path):
    """Call ``probcal.cli.main(argv)`` here; returns (wall seconds, exit code)."""
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc()
            code = 1
        return time.perf_counter() - start, code


def run_job(make_job, job_dir, deadline, cli=None, tracer=None, check=True):
    """Run one job's commands back to back, then check their outputs.

    Subprocesses when ``cli`` is None, else in-process calls (traced when
    ``tracer`` is given). Returns a dict of per-command results.
    """
    job_dir.mkdir(parents=True)
    commands = make_job(job_dir)
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for i, cmd in enumerate(commands):
            out, err = job_dir / f"{i}.stdout", job_dir / f"{i}.stderr"
            if cli is None:
                wall, code, rss = run_child([sys.executable, "-m", "probcal", *cmd.argv],
                                            out, err, deadline - time.perf_counter())
            else:
                (wall, code), rss = run_inprocess(cli, cmd.argv, out, err), None
            results.append({"label": cmd.label, "verb": cmd.verb, "wall_s": wall,
                            "exit": code, "peak_rss_mb": rss})
    finally:
        if tracer is not None:
            tracer.uninstall()
    probcal = sys.modules["probcal"]
    for i, (cmd, res) in enumerate(zip(commands, results)):
        res["problems"] = []
        if not check:
            continue
        if res["exit"] != 0:
            tail = (job_dir / f"{i}.stderr").read_text(errors="replace")[-300:]
            res["problems"] = [f"exit code {res['exit']}: {tail.strip()}"]
            continue
        try:
            res["problems"], res["notes"] = cmd.check(job_dir / f"{i}.stdout", probcal)
        except Exception as exc:  # unreadable output is a failed check
            res["problems"] = [f"{cmd.label}: check raised {exc!r}"]
    for res, cmd in zip(results, commands):
        res["shortfall"] = cmd.may_fall_short and res["exit"] in (0, EXIT_FIT)
    sizes = {f.name: f.stat().st_size for f in job_dir.iterdir() if f.suffix != ".stderr"}
    return {"commands": results, "wall_s": sum(r["wall_s"] for r in results),
            "written_mb": sum(sizes.values()) / 2**20,
            "model_mb": sum(v for k, v in sizes.items() if k.endswith(".json")) / 2**20}


def closed_loop(run_one, seconds, run_start):
    """Run jobs one after another until the next would end past ``seconds``."""
    jobs, took = [], []
    loop_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        jobs.append(run_one(len(jobs)))
        took.append(time.perf_counter() - t0)
        now, next_job = time.perf_counter(), statistics.median(took)
        if now - loop_start + next_job > seconds or now - run_start + next_job > HARD_STOP_S:
            return jobs


def measure_setup(work):
    """Median wall time of ``python -m probcal --help``: the import cost."""
    walls = []
    for i in range(SETUP_REPS):
        out, err = work / f"help{i}.stdout", work / f"help{i}.stderr"
        wall, code, _ = run_child([sys.executable, "-m", "probcal", "--help"], out, err, 60.0)
        if code != 0 or not out.read_text().startswith("usage: probcal"):
            raise RuntimeError(f"probcal --help failed with exit code {code}")
        walls.append(wall)
    return walls


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def summary(values):
    values = [float(v) for v in values]
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(t, overhead_s):
    totals, counts = t.totals(), t.counts
    m = {f"{name}_s": totals.get(name, (0.0, 0.0))[0] for name in SPAN_METRICS}
    m.update({f"{name}_self_s": totals.get(name, (0.0, 0.0))[1] for name in SELF_METRICS})
    m.update({name: counts[key] for name, key in COUNT_METRICS.items()})
    calls = counts["optim.minimize_calls"]
    m["optim.converged_ratio"] = counts["optim.converged"] / calls if calls else 0.0
    m["trace.overhead_s"] = overhead_s
    m["trace.absent_hooks"] = len(t.absent)
    return m


def command_metrics(jobs):
    """Per job: summed wall time of each verb, and of each command sharing its verb.

    These times (``fit_s``, ``apply_s``, ``eval_s``, ``compare_s``) are
    reported beside the end-to-end metrics but are not among them: each
    exists only on the workloads that run its command.
    """
    rows = {}
    for job in jobs:
        per = {}
        for c in job["commands"]:
            per[f"{c['verb']}_s"] = per.get(f"{c['verb']}_s", 0.0) + c["wall_s"]
        verbs = [c["verb"] for c in job["commands"]]
        per.update({f"{c['label']} s": c["wall_s"] for c in job["commands"]
                    if verbs.count(c["verb"]) > 1})
        for key, value in per.items():
            rows.setdefault(key, []).append(value)
    return {key: summary(values) for key, values in rows.items()}


def git_sha():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    import scipy
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV, "git_sha": git_sha(), "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def import_probcal():
    """Import probcal from this checkout's ``src``, or exit with an error."""
    if not (SRC / "probcal" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'probcal'} not found; run from a probcal checkout")
    sys.path.insert(0, str(SRC))
    import probcal.cli
    if Path(probcal.__file__).resolve().parent != (SRC / "probcal").resolve():
        sys.exit(f"bench: imported probcal from {probcal.__file__}, not {SRC}")
    return probcal.cli


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def timed_run(make_job, work, seconds, run_start, deadline):
    """End-to-end metrics: subprocess commands, tracing off."""
    setup = measure_setup(work)
    jobs = closed_loop(lambda i: run_job(make_job, work / f"job{i}", deadline),
                       seconds, run_start)
    metrics = {
        "setup_s": summary(setup),
        "wall_s": summary(j["wall_s"] for j in jobs),
        "peak_rss_mb": summary(max(c["peak_rss_mb"] for c in j["commands"]) for j in jobs),
        "written_mb": summary(j["written_mb"] for j in jobs),
    }
    details = command_metrics(jobs)
    details["model_mb"] = summary(j["model_mb"] for j in jobs)
    return jobs, metrics, {"details": details}, []


def traced_run(cli, make_job, work, seconds, run_start, deadline):
    """Per-layer metrics: each job in-process, once plain and once traced."""
    traces, problems = [], []

    def one(i):
        plain = run_job(make_job, work / f"job{i}-plain", deadline, cli=cli, check=False)
        t = tracing.Tracer()
        traced = run_job(make_job, work / f"job{i}", deadline, cli=cli, tracer=t)
        problems.extend(f"untraced {c['label']}: exit code {c['exit']}"
                        for c in plain["commands"] if c["exit"] != 0 and not c["shortfall"])
        traces.append((t, traced["wall_s"] - plain["wall_s"]))
        return traced
    jobs = closed_loop(one, seconds, run_start)
    per_job = [layer_metrics(t, overhead) for t, overhead in traces]
    metrics = {name: summary(m[name] for m in per_job) for name in per_layer_units()}
    extra = {"absent_hooks": traces[0][0].absent,
             "spans": [t.records() for t, _ in traces]}
    return jobs, metrics, extra, problems


def verdict(commands, problems):
    """(correct, failed count, all problems, p-value notes) over a run's commands.

    A command fails on a nonzero exit or a failed check. A fit that misses
    its accuracy target is a failed operation but not a wrong output; any
    other failure, or a p-value that differs between jobs on the same
    inputs, makes the run incorrect.
    """
    notes = {}
    for c in commands:
        for key, value in c.get("notes", {}).items():
            notes.setdefault(f"{c['label']} {key}", set()).add(value)
    problems = problems + [f"{key} differs between jobs on the same inputs: {sorted(v)}"
                           for key, v in notes.items() if len(v) > 1]
    failed = [c for c in commands if c["problems"]]
    correct = not problems and all(c["shortfall"] for c in failed)
    problems += [p for c in failed for p in c["problems"]]
    return correct, len(failed), problems, {key: sorted(v) for key, v in notes.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()
    deadline = run_start + HARD_STOP_S + 20.0

    cli = import_probcal()
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    if declared_metrics() != (END_TO_END_UNITS, per_layer_units()):
        sys.exit("bench: metrics in BENCHMARK.json differ from the ones bench/run.py reports")

    work = WORK / f"{args.workload}-{os.getpid()}"
    (work / "inputs").mkdir(parents=True)
    try:
        hashes, make_job = WORKLOADS[args.workload].prepare(args.seed, work / "inputs")
        if args.trace:
            jobs, metrics, extra, problems = traced_run(
                cli, make_job, work, args.seconds, run_start, deadline)
        else:
            jobs, metrics, extra, problems = timed_run(
                make_job, work, args.seconds, run_start, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    commands = [c for j in jobs for c in j["commands"]]
    correct, failed, problems, notes = verdict(commands, problems)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "jobs": len(jobs), "job_wall_s": [j["wall_s"] for j in jobs],
        "attempted": len(commands),
        "failed": failed, "failed_ratio": failed / len(commands), "correct": correct,
        "problems": problems, "notes": notes, "inputs_sha256": hashes,
        "environment": environment(), "metrics": metrics, **extra,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh)
    report.pop("spans", None)
    print_report(report, units)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": len(commands), "failed": failed,
        "metrics": {name: {"value": metrics[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def print_report(report, units):
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"jobs {report['jobs']}")
    rows = [(name, units[name], s) for name, s in report["metrics"].items()]
    rows += [(name, "MB" if name.endswith("_mb") else "s", s)
             for name, s in report.get("details", {}).items()]
    for name, unit, s in rows:
        print(f"  {name:34s} {unit:6s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n {s['n']}")
    print(f"  {'failed_ratio':34s} {'ratio':6s} {report['failed_ratio']:.6g} "
          f"({report['failed']}/{report['attempted']})")
    for problem in report["problems"]:
        print(f"  failed: {problem}")


if __name__ == "__main__":
    sys.exit(main())
