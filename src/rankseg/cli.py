"""Command-line interface: detect, simulate, study and evaluate subcommands.

Input series are CSV files with either one value per line or ``time,value``
rows; all reported positions are 1-based. Results are emitted as versioned
JSON so downstream goldens stay valid. Models are named by their bare id;
``--length`` and ``--rate`` size them.

Exit codes: 0 on success (however many change-points were found); 2 for a bad
command line, including a flag value of the wrong type; 1 for unreadable,
non-numeric or non-finite input, unwritable output, settings the library
rejects and runtime failures; 3 for an input series with fewer than two
values. Every output is rendered after the work. Each output file is written
to a temporary file beside it, and the files are replaced only once all are
written; stdout comes last. So a failed write leaves no new data behind:
every existing output file stays as it was and nothing is printed, also for
``simulate`` (``.csv`` and ``.truth.json``) and ``study`` with both ``--out``
and ``--csv``. A symlinked output updates the file it names, and an output
that is not a regular file (``/dev/null``, a pipe) is written through, after
the files. The ``detect`` document is ``Segmentation.to_dict()`` plus
``runtime_ms``. Each detector flag sets the ``DetectorConfig`` field named by
its ``dest`` and takes its default from ``DetectorConfig()``.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import secrets
import shutil
import sys
import time
from dataclasses import fields
from functools import partial

import numpy as np

from .contrast import _check_positions
from .detector import (
    DEFAULT_CONSTANTS,
    DEFAULT_GRID_SIZE,
    FULL_EVAL_MAX,
    SCHEMA_VERSION,
    DetectorConfig,
    Norm,
    StopRule,
)
from .evaluation import hausdorff, largest_segment, replicate_study
from .selector import segment
from .simulate import ModelSpec, generate, list_models

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TOO_FEW = 3


class TooFewValues(ValueError):
    """An input series with fewer than two values (exit code 3)."""


def _read_series(path: str) -> np.ndarray:
    """Parse a one-column or time,value CSV into a float array."""
    values = []
    with open(path, newline="", errors="replace") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not any(field.strip() for field in row):
                continue
            cell = row[-1].strip()
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}:{reader.line_num}: non-numeric value {cell!r}"
                ) from None
    if len(values) < 2:
        raise TooFewValues(f"{path}: need at least 2 values, got {len(values)}")
    return np.asarray(values, dtype=float)


def _word_or_int(words: dict, value: str):
    """An argparse ``type`` once ``words`` is bound: a mapped word or an integer."""
    if value in words:
        return words[value]
    try:
        return int(value)
    except ValueError:
        choices = ", ".join(map(repr, words))
        raise argparse.ArgumentTypeError(f"expects {choices} or an integer, got {value!r}") from None


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _commit(outputs: dict[str | None, str]) -> None:
    """Write each ``path: text`` of ``outputs``, the text keyed ``None`` last to stdout.

    A regular (or absent) target, found through any symlink, gets its text in
    a temporary file beside it, and the targets are replaced only once every
    temporary file is written, so a failure leaves no new data behind and
    prints nothing. Any other target (``/dev/null``, a pipe) is written
    through after that, as ``open(path, "w")`` would.
    """
    staged, through = [], []
    try:
        for path, text in outputs.items():
            if path is None:
                continue
            target = os.path.realpath(path)
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if os.path.exists(target) and not os.path.isfile(target):
                through.append((target, text))
                continue
            tmp = f"{target}.{secrets.token_hex(8)}.tmp"
            try:
                handle = open(tmp, "x", newline="")
            except OSError as exc:  # name the target, not its temporary file
                raise OSError(exc.errno, exc.strerror, path) from None
            staged.append((tmp, target))
            with handle:
                if os.path.isfile(target):
                    shutil.copymode(target, tmp)
                handle.write(text)
        while staged:
            os.replace(*staged[0])
            staged.pop(0)
    finally:
        for tmp, _ in staged:
            os.remove(tmp)
    for target, text in through:
        with open(target, "w", newline="") as handle:
            handle.write(text)
    print(outputs.get(None, ""), end="")


def _cmd_detect(args: argparse.Namespace) -> None:
    values = _read_series(args.input)
    config = DetectorConfig(**{f.name: getattr(args, f.name) for f in fields(DetectorConfig)})
    start = time.perf_counter()
    result = segment(values, config)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    _commit({args.out or None: _json({**result.to_dict(), "runtime_ms": elapsed_ms})})


def _cmd_simulate(args: argparse.Namespace) -> None:
    spec = ModelSpec(args.model, args.seed, args.length, args.rate)
    series = generate(spec)
    csv_path = f"{args.out}.csv"
    truth_path = f"{args.out}.truth.json"
    truth = {
        "schema": SCHEMA_VERSION,
        "model": spec.model,
        "seed": spec.seed,
        "length": len(series),
        "changepoints": list(series.truth or ()),
    }
    _commit({
        csv_path: "".join(f"{float(value)!r}\n" for value in series.values),
        truth_path: _json(truth),
        None: f"wrote {csv_path} and {truth_path}\n",
    })


def _cmd_study(args: argparse.Namespace) -> None:
    spec = ModelSpec(args.model, args.seed, args.length, args.rate)
    config = DetectorConfig(**{f.name: getattr(args, f.name) for f in fields(DetectorConfig)})
    report = replicate_study(spec, config, reps=args.reps)
    outputs = {args.out or None: _json(report.to_dict())}
    if args.csv:
        row = report.csv_row()
        table = io.StringIO()
        writer = csv.DictWriter(table, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
        outputs[args.csv] = table.getvalue()
    _commit(outputs)


def _read_changepoints(path: str, length: int) -> tuple[int, ...]:
    """Positions from a JSON list or ``changepoints`` key, checked against ``T``."""
    with open(path, errors="replace") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("changepoints")
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a list of integers or a 'changepoints' key")
    try:
        return _check_positions(data, length, "change-points")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_evaluate(args: argparse.Namespace) -> None:
    if args.length < 2:
        raise ValueError(f"--T must be >= 2, got {args.length}")
    truth = _read_changepoints(args.truth, args.length)
    est = _read_changepoints(args.est, args.length)
    distance = hausdorff(truth, est, largest_segment(truth, args.length))
    print("NA" if distance is None else f"{distance:.10g}")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", required=True,
        help=f"model id, e.g. {', '.join(list_models()[:4])}, ... (size it with --length/--rate)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--length", type=int, default=None)
    parser.add_argument("--rate", type=float, default=None)


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    defaults = DetectorConfig().to_dict()
    group = parser.add_argument_group("detector settings", "one flag per DetectorConfig field")

    def flag(name, dest, **kwargs):
        group.add_argument(name, dest=dest, default=defaults[dest], **kwargs)

    flag("--lambda", "expansion_step", type=int, metavar="N",
         help="interval expansion step (default %(default)s)")
    flag("--norm", "norm", choices=[n.value for n in Norm],
         help="mean-dominant norm (default %(default)s)")
    flag("--const", "threshold_constant", type=float, metavar="C",
         help="threshold constant (default per norm: "
         + ", ".join(f"{n.value} {c:g}" for n, c in DEFAULT_CONSTANTS.items()) + ")")
    flag("--stop", "stop", choices=[r.value for r in StopRule],
         help="stop rule (default %(default)s)")
    flag("--grid", "grid", type=partial(_word_or_int, {"auto": "auto", "full": "full"}),
         metavar="auto|full|Q",
         help="evaluation levels: 'full' (all T order statistics), Q equally spaced "
         f"ones, or 'auto' (full up to T = {FULL_EVAL_MAX}, else {DEFAULT_GRID_SIZE}) "
         "(default %(default)s)")
    flag("--split", "split", type=partial(_word_or_int, {"off": None}), metavar="off|N",
         help="window length for splitting long series (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankseg",
        description="Rank-based multiple change-point detection for univariate series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="detect change-points in a CSV series")
    p_detect.add_argument("input", help="CSV file: one value per line or time,value rows")
    _add_detector_flags(p_detect)
    p_detect.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_detect.set_defaults(func=_cmd_detect)

    p_sim = sub.add_parser("simulate", help="generate a benchmark series")
    _add_model_flags(p_sim)
    p_sim.add_argument("--out", required=True, help="output prefix for .csv and .truth.json")
    p_sim.set_defaults(func=_cmd_simulate)

    p_study = sub.add_parser("study", help="run seeded replications of one model")
    _add_model_flags(p_study)
    p_study.add_argument("--reps", type=int, default=100)
    _add_detector_flags(p_study)
    p_study.add_argument("--out", default=None, help="write the JSON report here")
    p_study.add_argument("--csv", default=None, help="also write a one-row CSV summary")
    p_study.set_defaults(func=_cmd_study)

    p_eval = sub.add_parser("evaluate", help="scaled Hausdorff distance between two sets")
    p_eval.add_argument("--truth", required=True, help="JSON with true change-points")
    p_eval.add_argument("--est", required=True, help="JSON with estimated change-points")
    p_eval.add_argument("--T", dest="length", type=int, required=True, help="series length")
    p_eval.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:  # nothing reads stdout: send the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"rankseg: error: {exc}", file=sys.stderr)
        return EXIT_TOO_FEW if isinstance(exc, TooFewValues) else EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
