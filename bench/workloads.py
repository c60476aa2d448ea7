"""The benchmark's workloads: seeded inputs and the probcal commands of one job.

A workload's ``prepare(seed, inputs_dir)`` writes its input CSVs (outside
any timed region) and returns ``(input_hashes, make_job)``. ``make_job(job_dir)``
lists the job's commands, each with the argv that follows ``probcal`` and a
check of the command's output. A client runs a job's commands one after
another and starts the next job only when the previous one has ended.
"""

import json
from dataclasses import dataclass
from typing import Callable

import checks
import datagen

#: Method count of ``probcal compare`` on logit input (every method).
N_METHODS = 10


@dataclass
class Command:
    label: str                 # unique within a job, e.g. "fit k=50"
    verb: str                  # the probcal subcommand
    argv: list                 # arguments after ``probcal``
    check: Callable            # (stdout path, probcal module) -> (problems, notes)
    may_fall_short: bool = False  # a failure may be a missed accuracy target


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable


def _write(inputs, name, X, y, prefix):
    path = inputs / name
    return path, {name: datagen.write_csv(path, X, y, prefix)}


def _resample_k100(seed, inputs):
    p, y = datagen.dirichlet_rows(seed, 10_000, 100, sharpen=1.0)
    csv, hashes = _write(inputs, "probs_n10000_k100.csv", p, y, "p_")

    def check(stdout, probcal):
        records = checks.read_json_lines(stdout)
        notes = {k: records[0].get(k) for k in ("p_conf_ece", "p_cw_ece")} if records else {}
        return checks.check_eval(records, p, y), notes

    def make_job(job_dir):
        argv = ["eval", str(csv), "--resamples", "1000", "--seed", "0",
                "--format", "json-lines"]
        return [Command("eval k=100 R=1000", "eval", argv, check)]
    return hashes, make_job


#: (k, n, folds) of the fit-dirichlet job; folds = 1 is a single fit.
DIRICHLET_CASES = ((10, 5000, 3), (30, 5000, 3), (50, 2000, 1))
DIRICHLET_GRID = "lambda=1e-4,1e-3,1e-2"


def _fit_dirichlet(seed, inputs):
    cases, hashes = [], {}
    for k, n, folds in DIRICHLET_CASES:
        p, y = datagen.dirichlet_rows(seed, n, k, sharpen=2.0)
        csv, h = _write(inputs, f"probs_n{n}_k{k}.csv", p, y, "p_")
        cases.append((k, folds, p, y, csv))
        hashes.update(h)

    def make_job(job_dir):
        commands = []
        for k, folds, p, y, csv in cases:
            model = job_dir / f"dirichlet_k{k}.json"
            argv = ["fit", str(csv), "--method", "dirichlet_odir", "--seed", "0",
                    "-o", str(model)]
            if folds > 1:
                argv += ["--folds", str(folds), "--grid", DIRICHLET_GRID]

            def check(stdout, probcal, model=model, p=p, y=y, folds=folds):
                return checks.check_dirichlet_fit(
                    model, p, y, folds, 0, probcal.harness.stratified_folds), {}
            commands.append(Command(f"fit k={k}", "fit", argv, check, may_fall_short=True))
        return commands
    return hashes, make_job


def _isotonic_io(seed, inputs):
    p, y = datagen.dirichlet_rows(seed, 10_000, 100, sharpen=2.0)
    csv, hashes = _write(inputs, "probs_n10000_k100.csv", p, y, "p_")

    def make_job(job_dir):
        model = job_dir / "isotonic.json"
        out = job_dir / "calibrated.csv"
        loaded = {}

        def check_fit(stdout, probcal):
            with open(model, encoding="utf-8") as fh:
                doc = json.load(fh)
            maps = len(doc.get("params", {}).get("maps", ()))
            if doc.get("method") != "ovr_isotonic" or maps != p.shape[1]:
                return [f"fit wrote a {doc.get('method')} model with {maps} maps"], {}
            loaded["model"] = probcal.models.model_from_dict(doc)
            return [], {}

        def check_apply(stdout, probcal):
            if "model" not in loaded:
                return ["no valid model to check the output against"], {}
            return checks.check_apply(out, loaded["model"], p), {}
        return [
            Command("fit isotonic", "fit",
                    ["fit", str(csv), "--method", "ovr_isotonic", "-o", str(model)], check_fit),
            Command("apply isotonic", "apply",
                    ["apply", str(model), str(csv), "-o", str(out)], check_apply),
        ]
    return hashes, make_job


def _compare_k10(seed, inputs):
    z, y = datagen.gaussian_logits(seed, 3000, 10, sharpen=1.5)
    csv, hashes = _write(inputs, "logits_n3000_k10.csv", z, y, "z_")

    def check(stdout, probcal):
        return checks.check_compare(checks.read_json_lines(stdout), N_METHODS), {}

    def make_job(job_dir):
        argv = ["compare", str(csv), "--repeats", "1", "--folds", "5", "--inner-folds", "3",
                "--resamples", "200", "--seed", "0", "--format", "json-lines"]
        return [Command("compare k=10", "compare", argv, check)]
    return hashes, make_job


WORKLOADS = {w.name: w for w in (
    Workload("resample-k100",
             "eval with 1000 resamples at n=1e4, k=100: the resampling test does the work; no fit",
             _resample_k100),
    Workload("fit-dirichlet",
             "ODIR Dirichlet fits: 3-fold lambda grid at k=10 and k=30, one fit at k=50 past "
             "the dense-Newton limit; optim and dirichlet dominate",
             _fit_dirichlet),
    Workload("isotonic-io",
             "one-vs-rest isotonic fit then apply at n=1e4, k=100: model JSON and CSV I/O "
             "dominate; no optim, no test",
             _isotonic_io),
    Workload("compare-k10",
             "compare of all ten methods at n=3000, k=10: many small fits and tests, so "
             "per-call overhead dominates",
             _compare_k10),
)}
