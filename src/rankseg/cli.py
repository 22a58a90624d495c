"""Command-line interface: detect, simulate, study and evaluate subcommands.

Input series are CSV files with either one value per line or ``time,value``
rows; all reported positions are 1-based. Results are emitted as versioned
JSON so downstream goldens stay valid. Models are named by their bare id;
``--length`` and ``--rate`` size them.

Exit codes: 0 on success (regardless of how many change-points were found),
1 for unreadable, non-numeric or non-finite input, invalid settings and
runtime failures, 2 for bad command lines (argparse), 3 for an empty input
series. The ``detect`` document is ``Segmentation.to_dict()`` plus
``runtime_ms``. Each detector flag sets the ``DetectorConfig`` field named by
its ``dest`` and takes its default from ``DetectorConfig()``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from .contrast import _check_positions
from .detector import (
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
EXIT_EMPTY = 3


class CliError(Exception):
    """A user-facing failure with its process exit code."""

    def __init__(self, message: str, code: int = EXIT_ERROR):
        super().__init__(message)
        self.code = code


def _read_series(path: str) -> np.ndarray:
    """Parse a one-column or time,value CSV into a float array."""
    try:
        with open(path, newline="") as handle:
            rows = [row for row in csv.reader(handle) if row and any(f.strip() for f in row)]
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CliError(f"{path}: empty series", EXIT_EMPTY)
    values = []
    for lineno, row in enumerate(rows, start=1):
        fields = [f.strip() for f in row]
        cell = fields[-1] if len(fields) >= 2 else fields[0]
        try:
            values.append(float(cell))
        except ValueError:
            raise CliError(f"{path}:{lineno}: non-numeric value {cell!r}") from None
    return np.asarray(values, dtype=float)


def _word_or_int(flag: str, value, words: dict):
    """A flag value that is one of ``words`` (mapped) or an integer."""
    if value in words:
        return words[value]
    try:
        return int(value)
    except ValueError:
        choices = ", ".join(map(repr, words))
        raise CliError(f"{flag} expects {choices} or an integer, got {value!r}") from None


def _config_from_args(args: argparse.Namespace) -> DetectorConfig:
    return DetectorConfig(
        expansion_step=args.expansion_step,
        norm=args.norm,
        threshold_constant=args.threshold_constant,
        stop=args.stop,
        grid=_word_or_int("--grid", args.grid, {"auto": "auto", "full": "full"}),
        split=_word_or_int("--split", args.split, {"off": None}),
    )


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_detect(args: argparse.Namespace) -> int:
    values = _read_series(args.input)
    if values.size < 2:
        raise CliError(f"{args.input}: need at least 2 observations", EXIT_EMPTY)
    config = _config_from_args(args)
    start = time.perf_counter()
    result = segment(values, config)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    _write_json({**result.to_dict(), "runtime_ms": elapsed_ms}, args.out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = ModelSpec(args.model, args.seed, args.length, args.rate)
    series = generate(spec)
    csv_path = f"{args.out}.csv"
    truth_path = f"{args.out}.truth.json"
    with open(csv_path, "w") as handle:
        for value in series.values:
            handle.write(f"{float(value)!r}\n")
    _write_json(
        {
            "schema": SCHEMA_VERSION,
            "model": spec.model,
            "seed": spec.seed,
            "length": len(series),
            "changepoints": list(series.truth or ()),
        },
        truth_path,
    )
    print(f"wrote {csv_path} and {truth_path}")
    return EXIT_OK


def _cmd_study(args: argparse.Namespace) -> int:
    spec = ModelSpec(args.model, args.seed, args.length, args.rate)
    config = _config_from_args(args)
    report = replicate_study(spec, config, reps=args.reps)
    _write_json(report.to_dict(), args.out)
    if args.csv:
        row = report.csv_row()
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(row))
            writer.writeheader()
            writer.writerow(row)
    return EXIT_OK


def _read_changepoints(path: str, length: int) -> tuple[int, ...]:
    """Positions from a JSON list or ``changepoints`` key, checked against ``T``."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("changepoints")
    if not isinstance(data, list):
        raise CliError(f"{path}: expected a list of integers or a 'changepoints' key")
    try:
        return _check_positions(data, length, "change-points")
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.length < 2:
        raise CliError(f"--T must be >= 2, got {args.length}")
    truth = _read_changepoints(args.truth, args.length)
    est = _read_changepoints(args.est, args.length)
    distance = hausdorff(truth, est, largest_segment(truth, args.length))
    print("NA" if distance is None else f"{distance:.10g}")
    return EXIT_OK


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
         help="threshold constant (default: calibrated per norm)")
    flag("--stop", "stop", choices=[r.value for r in StopRule],
         help="stop rule (default %(default)s)")
    flag("--grid", "grid", metavar="auto|full|Q",
         help="evaluation levels: 'full' (all T order statistics), Q equally spaced "
         f"ones, or 'auto' (full up to T = {FULL_EVAL_MAX}, else {DEFAULT_GRID_SIZE}) "
         "(default %(default)s)")
    flag("--split", "split", metavar="off|N",
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
    p_sim.add_argument(
        "--model", required=True,
        help=f"model id, e.g. {', '.join(list_models()[:4])}, ... (size it with --length/--rate)",
    )
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--length", type=int, default=None)
    p_sim.add_argument("--rate", type=float, default=None)
    p_sim.add_argument("--out", required=True, help="output prefix for .csv and .truth.json")
    p_sim.set_defaults(func=_cmd_simulate)

    p_study = sub.add_parser("study", help="run seeded replications of one model")
    p_study.add_argument("--model", required=True)
    p_study.add_argument("--reps", type=int, default=100)
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument("--length", type=int, default=None)
    p_study.add_argument("--rate", type=float, default=None)
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
        return args.func(args)
    except (CliError, ValueError) as exc:  # a ValueError is an invalid setting or input
        print(f"rankseg: error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
