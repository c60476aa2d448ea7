"""Command-line surface: fit, apply, eval, diagram, test, compare, inspect.

File formats
------------
Prediction files are UTF-8 CSV with a header. Probability inputs use
columns ``p_0..p_{k-1}``, logit inputs ``z_0..z_{k-1}``; an optional
``label`` column holds the class label. Labels may be 0-based integers,
1-based integers, or strings; they are mapped through an explicit label
dictionary recorded in the model file.

Model files are versioned JSON documents carrying the method tag, the
parameter arrays at full precision, the label dictionary, and the fit
metadata (hyperparameters, seed, timestamp). Isotonic maps are stored as
one breakpoint per block of equal values.

Exit codes: 0 success (also a fit that stops short of its tolerance, which
warns on stderr, and a run whose stdout reader goes away, as in ``| head``),
2 parse error, 3 validation error, 4 fit failure (non-finite objective at start).
"""

import argparse
import csv
import itertools
import json
import os
import sys

import numpy as np

from .core import DEFAULT_CLIP_FLOOR, LOGITS, PROBABILITIES
from .diagrams import reliability_table, render_reliability_svg
from .dirichlet import interpretation_points, to_canonical
from .harness import LAMBDA_GRID, HyperGrid, _evaluate_and_test, compare_methods, cross_val_fit
from .metrics import DEFAULT_BINS, classwise_reliability, confidence_reliability, evaluate
from .models import METHOD_INPUT, METHOD_SPECS, METHODS, EnsembleModel, method_spec, model_from_dict
from .optim import OptimizationError
from .stattest import acceptance_rate, calibration_test, check_alpha

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_FIT = 4


class ParseError(Exception):
    """A file could not be read or does not match the expected format."""


# ---------------------------------------------------------------------------
# Prediction files
# ---------------------------------------------------------------------------

#: Rows of the first buffer that the exact reader parses into.
_INITIAL_ROWS = 1024
#: Characters after which numpy's float parser may not agree with the exact
#: reader: a quote starts a CSV quoted field, NUL is a CSV error, and numpy
#: strips the separators 0x1c-0x1f around a number where ``float`` rejects it.
_UNSAFE_CHARS = '"\0\x1c\x1d\x1e\x1f'


def read_predictions(path):
    """Read a prediction CSV.

    Returns ``(X, kind, raw_labels)`` where ``X`` is an (n, k) float64 array
    and ``raw_labels`` is a list of strings or None when the file has no
    label column. Each field converts as Python's ``float`` would; blank
    lines are skipped; an error names the row's line number.

    Most files are read in one streamed pass by numpy's C parser; a file
    that pass cannot show to read exactly as the field-by-field reader
    (quotes, a value ``float`` reads differently, any error) is read again
    by that reader, which also gives every error text.
    """
    try:
        parsed = _read_fast(path)
        return parsed if parsed is not None else _read_exact(path)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _layout(path, header):
    """(kind, k, has_label) of a stripped header row; ParseError if invalid."""
    kind = None
    for prefix, name in (("p_", PROBABILITIES), ("z_", LOGITS)):
        if header and header[0] == f"{prefix}0":
            kind = name
            break
    if kind is None:
        raise ParseError(f"{path}: header must start with p_0.. or z_0.. columns")
    prefix = "p_" if kind == PROBABILITIES else "z_"
    k = 0
    while k < len(header) and header[k] == f"{prefix}{k}":
        k += 1
    if k < 2:
        raise ParseError(f"{path}: need at least columns {prefix}0 and {prefix}1")
    rest = header[k:]
    if rest and rest != ["label"]:
        raise ParseError(f"{path}: unexpected columns {rest!r}; expected only an optional 'label'")
    return kind, k, bool(rest)


def _read_fast(path):
    """``read_predictions`` by ``np.loadtxt``, or None where it cannot show
    the result equal to ``_read_exact``'s.

    One pass streams the lines to numpy: it skips blank lines, stops at a
    line with the wrong field count or an unsafe character, and takes the
    labels. Without quotes a field is the text between commas, and numpy
    converts a number as ``float`` does apart from underscores and
    non-ASCII digits, which it rejects, and the separators in
    ``_UNSAFE_CHARS``, which the pass rejects.
    """
    limit = csv.field_size_limit()
    unsafe = []

    def data_lines(fh, commas, labels):
        for line in fh:
            if "," not in line and not line.strip():
                continue
            if (line.count(",") != commas or len(line) > limit
                    or any(c in line for c in _UNSAFE_CHARS)):
                unsafe.append(line)
                return
            if labels is not None:
                labels.append(line[line.rindex(",") + 1:].strip())
            yield line

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = fh.readline()
            if any(c in header for c in _UNSAFE_CHARS):
                return None
            kind, k, has_label = _layout(path, [h.strip() for h in header.split(",")])
            labels = [] if has_label else None
            lines = data_lines(fh, k - 1 + has_label, labels)
            first = next(lines, None)
            if first is None:
                return None
            X = np.loadtxt(itertools.chain([first], lines), delimiter=",", usecols=range(k),
                           comments=None, ndmin=2)
    except Exception:  # whatever failed, the exact reader reads again and reports it
        return None
    return None if unsafe else (X, kind, labels)


def _read_exact(path):
    """``read_predictions`` field by field: each by Python's ``float``,
    into one buffer that doubles when full; no per-row lists are kept."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        try:
            return _parse_predictions(path, rows)
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise ParseError(f"{path}:{rows.line_num}: {exc}") from exc


def _parse_predictions(path, rows):
    def fail(message, cause=None):
        # Read on to the end first: an undecodable byte or a CSV error
        # anywhere in the file is reported before any format error.
        for _ in rows:
            pass
        raise ParseError(message) from cause

    header = next(rows, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    try:
        kind, k, has_label = _layout(path, [h.strip() for h in header])
    except ParseError as exc:
        fail(str(exc))
    labels = [] if has_label else None
    expected = k + has_label
    # Nothing views X, so it grows and finally shrinks in place.
    X = np.empty((_INITIAL_ROWS, k))
    n = 0
    for lineno, row in enumerate(rows, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != expected:
            fail(f"{path}:{lineno}: expected {expected} fields, got {len(row)}")
        if n == X.shape[0]:
            X.resize((2 * n, k), refcheck=False)
        try:
            X[n] = row[:k]
        except ValueError as exc:
            fail(f"{path}:{lineno}: {exc}", exc)
        if labels is not None:
            labels.append(row[k].strip())
        n += 1
    if n == 0:
        raise ParseError(f"{path}: no data rows")
    X.resize((n, k), refcheck=False)
    return X, kind, labels


def write_probabilities(path, P):
    """Write probability rows as CSV: each value's ``repr``, CRLF line ends
    (the bytes of ``csv.writer``), one row formatted at a time."""
    P = np.asarray(P, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(f"p_{j}" for j in range(P.shape[1])) + "\r\n")
        for row in P:
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def build_label_mapping(raw_labels, k, explicit=None):
    """Map raw label strings to 0-based indices plus the name dictionary.

    Precedence: an explicit ordered name list; else 0-based integers; else
    1-based integers; else the sorted distinct strings, which must number
    exactly k.
    """
    if raw_labels is None:
        raise ParseError("this command needs a 'label' column in the input file")
    if explicit is not None:
        names = list(explicit)
        if len(names) != k:
            raise ValueError(f"--labels must list {k} names, got {len(names)}")
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ValueError(f"--labels repeats {', '.join(map(repr, repeated))}")
        index = {name: i for i, name in enumerate(names)}
        try:
            y = np.array([index[v] for v in raw_labels], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]!r} not in --labels dictionary") from exc
        return y, names
    values = list(raw_labels)
    try:
        ints = [int(v) for v in values]
    except ValueError:
        ints = None
    if ints is not None and all(0 <= v < k for v in ints):
        return np.array(ints, dtype=np.int64), [str(i) for i in range(k)]
    if ints is not None and all(1 <= v <= k for v in ints):
        return np.array(ints, dtype=np.int64) - 1, [str(i + 1) for i in range(k)]
    names = sorted(set(values))
    if len(names) != k:
        raise ValueError(
            f"cannot infer a label dictionary: found {len(names)} distinct labels for "
            f"k={k} classes; pass --labels with the full ordered list"
        )
    index = {name: i for i, name in enumerate(names)}
    return np.array([index[v] for v in values], dtype=np.int64), names


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def save_model(path, model):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, indent=2)
        fh.write("\n")


def load_model(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid model file: {exc}") from exc
    try:
        return model_from_dict(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"{path}: invalid model file: {exc}") from exc


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

def _emit_records(records, fmt, stream):
    """Render a list of flat dicts as text, json-lines, or csv."""
    if fmt == "json-lines":
        for rec in records:
            stream.write(json.dumps(rec) + "\n")
        return
    if fmt == "csv":
        keys = list(records[0].keys())
        writer = csv.writer(stream)
        writer.writerow(keys)
        for rec in records:
            writer.writerow([_plain(rec.get(key, "")) for key in keys])
        return
    for rec in records:
        width = max(len(str(key)) for key in rec)
        for key, value in rec.items():
            stream.write(f"{key:<{width}}  {_plain(value)}\n")
        stream.write("\n")


def _plain(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return " ".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    return value


# ---------------------------------------------------------------------------
# Hyperparameter flags
# ---------------------------------------------------------------------------

def _parse_grid(spec, decouple_mu, method=None):
    """Parse --grid: 'default' or 'name=v1,v2[;name=v1,v2]' with names lambda/mu/bins,
    each of which ``method``, if given, must search (mu too with ``decouple_mu``)."""
    fields = {}
    for part in ([] if spec == "default" else spec.split(";")):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad --grid component {part!r}; expected name=v1,v2,...")
        name, _, values = part.partition("=")
        name = name.strip()
        if name == "bins":
            fields["bins"] = tuple(int(v) for v in values.split(","))
        elif name in ("lambda", "lam"):
            fields["lambdas"] = tuple(float(v) for v in values.split(","))
        elif name == "mu":
            fields["mus"] = tuple(float(v) for v in values.split(","))
        else:
            raise ValueError(f"unknown --grid name {name!r}")
    if not fields and spec != "default":
        raise ValueError(f"empty --grid specification {spec!r}")
    searched = method_spec(method).defaults if method else ("lam", "mu", "bins")
    for field, name, word in (("lambdas", "lam", "lambda"), ("mus", "mu", "mu"),
                              ("bins", "bins", "bin count")):
        if field in fields and name not in searched:
            raise ValueError(f"method {method} takes no {word} in --grid")
    if decouple_mu and "mu" not in searched:
        raise ValueError(f"method {method} takes no mu to search with --decouple-mu")
    if decouple_mu and "mus" not in fields:
        fields["mus"] = fields.get("lambdas", LAMBDA_GRID)
    return HyperGrid(**fields)


def _fixed_hyper(args):
    """Fixed hyperparameters for --method from flags, falling back to defaults.

    A grid sets every hyperparameter it searches and the defaults the rest,
    so with --grid a fixed value is an error, as is --decouple-mu without it.
    """
    hyper = dict(method_spec(args.method).defaults)
    for name, word, value in (("lam", "lambda", args.lam), ("mu", "mu", args.mu),
                              ("bins", "bin count", args.bin_count)):
        if value is None:
            continue
        if name not in hyper:
            raise ValueError(f"method {args.method} takes no {word}")
        if args.grid:
            raise ValueError(f"method {args.method} takes no fixed {word} with --grid")
        hyper[name] = value
    if args.lam is not None and "mu" in hyper and args.mu is None:
        hyper["mu"] = args.lam
    _check_decouple_mu(args)
    return hyper


def _check_decouple_mu(args):
    """--decouple-mu changes only a searched grid, so it needs --grid."""
    if args.decouple_mu and not args.grid:
        raise ValueError("--decouple-mu needs --grid")


def _read_labelled(args):
    """Read ``args.input``, check its kind and map its labels via ``--labels``.

    ``fit`` needs the input kind of ``--method``, ``compare`` takes either
    kind and every other command needs probabilities. Returns
    ``(X, kind, y, label_names)``.
    """
    X, kind, raw_labels = read_predictions(args.input)
    if args.command == "fit":
        need = METHOD_INPUT[args.method]
        if need != kind:
            raise ValueError(f"method {args.method} needs {need} input, file contains {kind}")
    elif args.command != "compare" and kind != PROBABILITIES:
        raise ValueError(f"{args.command} expects probability inputs (p_0..)")
    explicit = args.labels.split(",") if args.labels else None
    y, names = build_label_mapping(raw_labels, X.shape[1], explicit)
    return X, kind, y, names


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    X, _, y, names = _read_labelled(args)
    grid = _parse_grid(args.grid, args.decouple_mu, args.method) if args.grid else None
    fixed = _fixed_hyper(args)
    model, best_hyper, _ = cross_val_fit(
        args.method, X, y, args.folds, seed=args.seed, grid=grid,
        fixed_hyper=fixed, clip_floor=args.clip_floor, label_names=names,
    )
    save_model(args.output, model)
    members = len(model.members) if isinstance(model, EnsembleModel) else 1
    hyper_text = json.dumps(best_hyper) if best_hyper else "{}"
    print(f"fitted {args.method} ({members} member{'s' if members > 1 else ''}, "
          f"hyperparameters {hyper_text}) -> {args.output}")
    return EXIT_OK


def cmd_apply(args) -> int:
    model = load_model(args.model)
    X, kind, _ = read_predictions(args.input)
    if kind != model.input_kind:
        raise ValueError(f"model expects {model.input_kind} input, file contains {kind}")
    P = model.apply(X, out=X)
    write_probabilities(args.output, P)
    print(f"calibrated {P.shape[0]} rows -> {args.output}")
    return EXIT_OK


def cmd_eval(args) -> int:
    X, _, y, _ = _read_labelled(args)
    if args.resamples:
        report, _, _ = _evaluate_and_test(X, y, args.bins, args.clip_floor, args.resamples,
                                          args.seed)
        report.extras["resamples"] = args.resamples
        report.extras["seed"] = args.seed
    else:
        report = evaluate(X, y, args.bins, args.clip_floor)
    _emit_records([report.as_dict()], args.format, sys.stdout)
    return EXIT_OK


def cmd_diagram(args) -> int:
    table_path = os.path.splitext(args.output)[0] + ".csv"
    if table_path == args.output:
        raise ValueError(f"the reliability table would overwrite the chart {args.output}")
    X, _, y, _ = _read_labelled(args)
    if args.mode == "confidence":
        bins_list = [confidence_reliability(X, y, args.bins)]
    else:
        bins_list = [classwise_reliability(X, y, j, args.bins) for j in range(X.shape[1])]
    svg = render_reliability_svg(bins_list)
    table = reliability_table(bins_list)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write(table)
    except OSError as exc:
        raise ParseError(f"cannot write output: {exc}") from exc
    print(f"wrote {len(bins_list)} chart{'s' if len(bins_list) > 1 else ''} "
          f"-> {args.output} and {table_path}")
    return EXIT_OK


def cmd_test(args) -> int:
    check_alpha(args.alpha)
    X, _, y, _ = _read_labelled(args)
    result = calibration_test(X, y, args.statistic, args.bins, args.resamples,
                              args.seed, plus_one=args.plus_one)
    record = {
        "statistic": args.statistic,
        "observed": result.observed_statistic,
        "p_value": result.p_value,
        "resamples": result.n_resamples,
        "seed": result.seed,
        "alpha": args.alpha,
        "decision": "accept" if acceptance_rate([result], args.alpha) else "reject",
    }
    _emit_records([record], args.format, sys.stdout)
    return EXIT_OK


def cmd_compare(args) -> int:
    _check_decouple_mu(args)
    X, kind, y, _ = _read_labelled(args)
    if args.methods:
        methods = [m.strip() for m in args.methods.split(",")]
    else:
        methods = [m for m in METHODS if METHOD_INPUT[m] == kind or kind == LOGITS]
    grids = {m: _parse_grid(args.grid, args.decouple_mu) for m in methods} if args.grid else None
    results = compare_methods(
        X, y, kind, methods, repeats=args.repeats, outer_folds=args.folds,
        inner_folds=args.inner_folds, grids=grids, bins=args.bins,
        n_resamples=args.resamples, alpha=args.alpha, seed=args.seed,
        clip_floor=args.clip_floor,
    )
    _emit_records([r.as_dict() for r in results], args.format, sys.stdout)
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    members = model.members if isinstance(model, EnsembleModel) else [model]
    records = []
    for i, member in enumerate(members):
        as_dirichlet = method_spec(member.method).as_dirichlet
        if as_dirichlet is None:
            family = [m for m, spec in METHOD_SPECS.items() if spec.as_dirichlet is not None]
            raise ValueError(
                f"method {member.method} is not in the Dirichlet family; "
                f"inspect supports {', '.join(family[:-1])} and {family[-1]}"
            )
        canonical = to_canonical(as_dirichlet(member.params, member.k))
        points = interpretation_points(canonical, args.epsilon)
        records.append({
            "member": i,
            "method": member.method,
            "A": [[float(v) for v in row] for row in canonical.A],
            "c": [float(v) for v in canonical.c],
            "interpretation_points": [
                {"point": [float(v) for v in pt], "image": [float(v) for v in img]}
                for pt, img in points
            ],
        })
    if args.format == "json-lines":
        _emit_records(records, args.format, sys.stdout)
    else:
        for rec in records:
            print(f"member {rec['member']} ({rec['method']})")
            print("A (rows):")
            for row in rec["A"]:
                print("  " + "  ".join(f"{v: .6f}" for v in row))
            print("c: " + "  ".join(f"{v:.6f}" for v in rec["c"]))
            print("interpretation points (point -> image):")
            for item in rec["interpretation_points"]:
                pt = " ".join(f"{v:.6g}" for v in item["point"])
                img = " ".join(f"{v:.6g}" for v in item["image"])
                print(f"  ({pt}) -> ({img})")
            print()
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p, bins=True, seed=True, clip=True, fmt=True, labels=True):
    if bins:
        p.add_argument("--bins", type=int, default=DEFAULT_BINS,
                       help=f"equal-width bin count (default {DEFAULT_BINS})")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="seed (default 0)")
    if clip:
        p.add_argument("--clip-floor", type=float, default=DEFAULT_CLIP_FLOOR,
                       help="probability clipping floor (default 2.2e-308)")
    if fmt:
        p.add_argument("--format", choices=("text", "json-lines", "csv"), default="text")
    if labels:
        p.add_argument("--labels", help="comma-separated ordered label dictionary")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probcal",
        description="Post-hoc multiclass probability calibration toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a calibration model")
    p.add_argument("input", help="prediction CSV with a label column")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.add_argument("--folds", type=int, default=1,
                   help="inner CV folds; >1 fits a per-fold ensemble (default 1)")
    p.add_argument("--grid", help="'default' or 'lambda=...;mu=...;bins=...'")
    p.add_argument("--lambda", dest="lam", type=float, help="fixed penalty weight")
    p.add_argument("--mu", type=float, help="fixed intercept penalty weight")
    p.add_argument("--bin-count", type=int, help="fixed bin count for binning methods")
    p.add_argument("--decouple-mu", action="store_true",
                   help="search mu independently of lambda in --grid default")
    _add_common(p, bins=False, fmt=False)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("apply", help="apply a model to new predictions")
    p.add_argument("model", help="model file")
    p.add_argument("input", help="prediction CSV")
    p.add_argument("-o", "--output", required=True, help="calibrated CSV to write")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("eval", help="compute the evaluation measure bundle")
    p.add_argument("input", help="probability CSV with a label column")
    p.add_argument("--resamples", type=int, default=10000,
                   help="resamples for the significance tests; 0 disables (default 10000)")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diagram", help="emit reliability diagrams as SVG + CSV")
    p.add_argument("input", help="probability CSV with a label column")
    p.add_argument("--mode", choices=("confidence", "classwise"), default="confidence")
    p.add_argument("-o", "--output", required=True, help="SVG path (CSV written alongside)")
    _add_common(p, seed=False, clip=False, fmt=False)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("test", help="resampling significance test of calibration")
    p.add_argument("input", help="probability CSV with a label column")
    p.add_argument("--statistic", choices=("conf_ece", "cw_ece"), default="conf_ece")
    p.add_argument("--resamples", type=int, default=10000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--plus-one", action="store_true",
                   help="report (count+1)/(N+1) instead of count/N")
    _add_common(p, clip=False)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("compare", help="nested cross-validation method comparison")
    p.add_argument("input", help="prediction CSV with a label column")
    p.add_argument("--methods", help="comma-separated method tags (default: all compatible)")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--folds", type=int, default=5, help="outer folds (default 5)")
    p.add_argument("--inner-folds", type=int, default=3)
    p.add_argument("--grid", help="'default' or explicit grid for every searched method")
    p.add_argument("--decouple-mu", action="store_true")
    p.add_argument("--resamples", type=int, default=10000)
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("inspect", help="canonical parametrization of a Dirichlet-family model")
    p.add_argument("model", help="model file")
    p.add_argument("--epsilon", type=float, default=1e-6,
                   help="facet offset for the interpretation points (default 1e-6)")
    p.add_argument("--format", choices=("text", "json-lines"), default="text")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (``probcal inspect m.json | head``).
        # Point stdout at the null device, so the interpreter's final flush
        # does not fail again, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OptimizationError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (ValueError, TypeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
