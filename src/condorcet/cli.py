"""Command-line entry point.

Every invocation emits a run record (command, parameters, results, seed,
version, wall time) so any published number can be reproduced from its own
output.  Randomized commands accept --seed; when omitted a seed is drawn
and printed with the results.

Exit codes: 0 success, 1 usage or input error, 2 verification violations,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import secrets
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import __version__
from .asymptotic import (
    SUPPORTED_K,
    estimate_leading_constant,
    impartial_leading_term,
    min_prob_large_k_rate,
    min_prob_large_n_leading_exact,
)
from .cultures import STREAM_VERSION
from .exact import (
    MAX_WINNER_CHECKS,
    condorcet_probability,
    marginal_lower_bound,
    min_condorcet_probability,
    multiset_count,
)
from .model import MAX_EXPLICIT_SUPPORT, NAMED_KINDS, CapExceededError, Culture, load_culture
from .montecarlo import estimate_condorcet_probability, sweep
from .verify import SUITES, run_suites


# Target error of the leading constant that ``asymptote --mode impartial``
# computes when --constant is omitted.
IMPARTIAL_CONSTANT_TARGET = 1e-12


@dataclass
class RunRecord:
    command: str
    parameters: dict
    results: dict
    seed: Optional[int]
    version: str
    wall_time_ms: int


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for verification
    violations, so usage errors remap to exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_voter_args(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--voters", type=int, help="odd voter count 2k-1 (the native parameterization)"
    )
    group.add_argument("--k", type=int, help="majority threshold k (alias for 2k-1 voters)")


def _resolve_k(args: argparse.Namespace) -> int:
    if args.k is not None:
        if args.k < 1:
            raise ValueError("k must be at least 1")
        return args.k
    voters = args.voters
    if voters < 1 or voters % 2 == 0:
        raise ValueError(f"voter count must be odd and positive, got {voters}")
    return (voters + 1) // 2


def _add_culture_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--culture",
        required=True,
        help=f"a named kind, {' or '.join(NAMED_KINDS)} (with --n), or a path to a culture file",
    )
    sub.add_argument("--n", type=int, help="alternative count for named cultures")


def _resolve_culture(args: argparse.Namespace) -> Culture:
    name = args.culture
    if name in NAMED_KINDS:
        if args.n is None:
            raise ValueError(f"--n is required with --culture {name}")
        return Culture(args.n, name)
    culture = load_culture(name)
    if args.n is not None and args.n != culture.n:
        raise ValueError(f"--n {args.n} does not match culture file n={culture.n}")
    return culture


def _add_common_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv", "human"), default="human")
    sub.add_argument("--out", help="also write the rendered report to this path")


def _fraction_fields(value: Fraction) -> Tuple[str, float]:
    return str(value), float(value)


def _cmd_exact(args: argparse.Namespace) -> Tuple[dict, Optional[int]]:
    k = _resolve_k(args)
    culture = _resolve_culture(args)
    result = condorcet_probability(
        culture,
        k,
        max_winner_checks=args.max_winner_checks,
        max_support=args.max_support,
    )
    rational, decimal = _fraction_fields(result.value)
    if culture.kind in NAMED_KINDS:
        # a named kind is symmetric, so every alternative has the same share
        shares = {"per_alternative_each": str(result.per_alternative[0])}
    else:
        shares = {"per_alternative": [str(p) for p in result.per_alternative]}
    return {
        "value": rational,
        "value_float": decimal,
        "method": result.method,
        **shares,
        "n": culture.n,
        "k": k,
        "multisets": (
            multiset_count(culture.support_size, k) if result.method == "enumeration" else None
        ),
        "winner_checks": result.winner_checks,
        "moves": result.moves,
    }, None


def _cmd_minprob(args: argparse.Namespace) -> Tuple[dict, Optional[int]]:
    k = _resolve_k(args)
    if args.n < 1:
        raise ValueError("n must be at least 1")
    value = min_condorcet_probability(args.n, k)
    rational, decimal = _fraction_fields(value)
    return {"value": rational, "value_float": decimal, "n": args.n, "k": k}, None


def _cmd_lowerbound(args: argparse.Namespace) -> Tuple[dict, Optional[int]]:
    k = _resolve_k(args)
    culture = _resolve_culture(args)
    value = marginal_lower_bound(culture, k)
    rational, decimal = _fraction_fields(value)
    return {
        "value": rational,
        "value_float": decimal,
        "method": "marginal_bound",
        "n": culture.n,
        "k": k,
    }, None


def _cmd_simulate(args: argparse.Namespace) -> Tuple[dict, Optional[int]]:
    k = _resolve_k(args)
    culture = _resolve_culture(args)
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    estimate = estimate_condorcet_probability(
        culture, k, args.samples, seed=seed, workers=args.workers
    )
    # A seeded p_hat reproduces from (seed, stream version), so both are kept.
    return {**asdict(estimate), "n": culture.n, "k": k, "stream_version": STREAM_VERSION}, seed


# Columns of a sweep cell, in output order: every Estimate field but samples
# and the work counters (winner_table, blocks, rejudged_profiles).
_CELL_COLUMNS = ["n", "k", "p_hat", "std_error", "ci_low", "ci_high", "seed"]

# Columns of a verify report row; worst_input is JSON-encoded in CSV and human.
_REPORT_COLUMNS = [
    "name", "trials", "violations", "worst_margin", "worst_inequality", "worst_input"
]


def _cmd_sweep(args: argparse.Namespace) -> Tuple[dict, Optional[int]]:
    k = _resolve_k(args)
    n_values = [int(part) for part in args.n_values.split(",") if part.strip()]
    if not n_values and args.n_values.strip():
        raise ValueError(f"could not parse --n-values {args.n_values!r}")
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    cells = sweep(args.family, k, n_values, args.samples, seed=seed, workers=args.workers)
    rows = []
    for n, est in cells:
        fields = {"n": n, "k": k, **asdict(est)}
        rows.append({column: fields[column] for column in _CELL_COLUMNS})
    # Each cell's p_hat reproduces from (cell seed, stream version).
    return {"cells": rows, "stream_version": STREAM_VERSION}, seed


def _cmd_ck(args: argparse.Namespace) -> Tuple[dict, Optional[int]]:
    estimate = estimate_leading_constant(args.k, target_error=args.target_error, box=args.full)
    return {
        "k": estimate.k,
        "value": estimate.value,
        "quadrature_error": estimate.quadrature_error,
        "truncation_bound": estimate.truncation_bound,
        "truncation_a": estimate.truncation_a,
        "total_error": estimate.total_error,
        "refinements": [asdict(step) for step in estimate.refinements],
    }, None


def _log10(value: Fraction) -> float:
    return math.log10(value.numerator) - math.log10(value.denominator)


def _cmd_asymptote(args: argparse.Namespace) -> Tuple[dict, Optional[int]]:
    k = _resolve_k(args)
    n = args.n
    if args.mode == "large-n":
        exact = min_condorcet_probability(n, k)
        leading = min_prob_large_n_leading_exact(n, k)
        # log10 from the exact integers: at large k both values underflow a float
        return {
            "mode": "large-n",
            "n": n,
            "k": k,
            "exact_min_prob": float(exact),
            "log10_exact_min_prob": _log10(exact),
            "leading_term": float(leading),
            "log10_leading_term": _log10(leading),
            "relative_deviation": float(abs(exact - leading) / leading),
        }, None
    if args.mode == "large-k":
        rate = min_prob_large_k_rate(n)
        # -log P from the exact integers: P itself underflows a float at large k
        exact = min_condorcet_probability(n, k)
        empirical = (math.log(exact.denominator) - math.log(exact.numerator)) / k
        return {
            "mode": "large-k",
            "n": n,
            "k": k,
            "decay_rate": rate,
            "empirical_rate": empirical,
            "relative_deviation": abs(empirical - rate) / rate,
        }, None
    constant, constant_error = args.constant, None
    if constant is None:
        if k not in SUPPORTED_K:
            raise ValueError(
                f"--constant is required with --mode impartial for k outside {SUPPORTED_K}"
            )
        estimate = estimate_leading_constant(k, target_error=IMPARTIAL_CONSTANT_TARGET)
        constant, constant_error = estimate.value, estimate.total_error
    return {
        "mode": "impartial",
        "n": n,
        "k": k,
        "constant": constant,
        "constant_error": constant_error,
        "leading_term": impartial_leading_term(n, k, constant),
    }, None


def _cmd_verify(args: argparse.Namespace) -> Tuple[dict, Optional[int]]:
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    reports = run_suites([args.suite], seed=seed)
    rows = []
    for report in reports:
        worst = report.worst_witness or {}
        rows.append(
            {
                "name": report.name,
                "trials": report.trials,
                "violations": report.violations,
                "worst_margin": worst.get("margin"),
                "worst_inequality": worst.get("inequality"),
                "worst_input": worst.get("input"),
            }
        )
    return {
        "reports": rows,
        "violations_total": sum(r.violations for r in reports),
    }, seed


def _exact_args(sub: argparse.ArgumentParser) -> None:
    _add_culture_args(sub)
    _add_voter_args(sub)
    sub.add_argument(
        "--max-winner-checks", type=int, default=MAX_WINNER_CHECKS,
        help="cap on the work of one exact run, checked before any: the multiset "
        "count C(S+2k-2, 2k-1) over a support of S rankings, or for the impartial "
        "culture the exact move count of its dynamic programme, "
        "sum_{t<2k-2} C(n-2+e, e-1) with e = min(2t+2, 2k-1)",
    )
    sub.add_argument(
        "--max-support", type=int, default=MAX_EXPLICIT_SUPPORT,
        help="cap on the support S that enumeration tabulates (the impartial culture "
        "builds none)",
    )


def _minprob_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True)
    _add_voter_args(sub)


def _lowerbound_args(sub: argparse.ArgumentParser) -> None:
    _add_culture_args(sub)
    _add_voter_args(sub)


def _simulate_args(sub: argparse.ArgumentParser) -> None:
    _add_culture_args(sub)
    _add_voter_args(sub)
    sub.add_argument("--samples", type=int, required=True)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--workers", type=int, default=1)


def _sweep_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=NAMED_KINDS, required=True)
    _add_voter_args(sub)
    sub.add_argument("--n-values", required=True, help="comma-separated list, e.g. 200,800")
    sub.add_argument("--samples", type=int, required=True)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--workers", type=int, default=1)


def _ck_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--target-error", type=float, default=0.1)
    sub.add_argument(
        "--full", action="store_true",
        help="use the truncated-box oracle (k >= 2): tensor quadrature plus a tail bound",
    )


def _asymptote_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=("large-n", "large-k", "impartial"), required=True)
    sub.add_argument("--n", type=int, required=True)
    _add_voter_args(sub)
    sub.add_argument(
        "--constant", type=float,
        help=f"leading constant for --mode impartial (computed if omitted, k in {SUPPORTED_K})",
    )


def _verify_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--suite", default="all", choices=("all",) + tuple(SUITES))
    sub.add_argument("--seed", type=int)


# Every subcommand, in help order: (help text, argument adder, handler).
# Each subparser also takes the common output options.
_COMMANDS: Dict[str, Tuple[str, Callable[[argparse.ArgumentParser], None], Callable]] = {
    "exact": ("exact probability (impartial: a dynamic programme; else enumeration)",
              _exact_args, _cmd_exact),
    "minprob": ("closed-form minimum probability", _minprob_args, _cmd_minprob),
    "lowerbound": ("marginal lower bound", _lowerbound_args, _cmd_lowerbound),
    "simulate": ("Monte Carlo estimate", _simulate_args, _cmd_simulate),
    "sweep": ("estimates across n for a culture family", _sweep_args, _cmd_sweep),
    "ck": ("orthant-integral constant with error bounds", _ck_args, _cmd_ck),
    "asymptote": ("closed form against its asymptotic forms", _asymptote_args, _cmd_asymptote),
    "verify": ("run inequality suites", _verify_args, _cmd_verify),
}


def build_parser(command: Optional[str] = None) -> _Parser:
    """The top-level parser with the subparser of ``command`` only, or with
    every subparser when ``command`` is None or not a subcommand.

    A call that names its subcommand builds just that one: in a child
    forked after import, the full parser took 8.5 ms and the one with a
    single subparser 6.2 ms (medians of 21 children, 2 vCPUs).  Its help,
    usage and error texts are the same as the full parser's.
    """
    parser = _Parser(prog="condorcet", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # With one subparser the usage line would list only its name; the
    # metavar lists them all.  The full parser keeps no metavar, since
    # argparse names the positional by its metavar in "invalid choice" and
    # "required" errors, which read "argument command" without one.
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    subparsers = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser, metavar=metavar
    )
    for name in names:
        help_text, add_args, handler = _COMMANDS[name]
        sub = subparsers.add_parser(name, help=help_text)
        add_args(sub)
        _add_common_output_args(sub)
        sub.set_defaults(handler=handler)
    return parser


def _flat_text(value, separator: str) -> str:
    """One CSV cell or human field for a result value: a list of scalars
    joined by ``separator``, a list of records (the ck refinement history)
    and an empty list JSON-encoded, so that no list reads as a blank,
    anything else as ``str``."""
    if not isinstance(value, list):
        return str(value)
    if not value or any(isinstance(v, dict) for v in value):
        return json.dumps(value)
    return separator.join(str(v) for v in value)


def _render_json(record: RunRecord) -> str:
    return json.dumps(asdict(record), indent=2, default=str)


def _csv_rows(record: RunRecord) -> List[List[str]]:
    """The CSV rows of a record.  A sweep or verify table ends with padded
    rows naming the stream version or the violation total, and then the
    seed, as the human output does, so that the CSV alone reruns it."""
    results = record.results
    if "cells" in results:
        columns, footer, cells = _CELL_COLUMNS, "stream_version", results["cells"]
    elif "reports" in results:
        columns, footer = _REPORT_COLUMNS, "violations_total"
        cells = [{**report, "worst_input": json.dumps(report["worst_input"])}
                 for report in results["reports"]]
    else:
        return [[key, _flat_text(value, ";")] for key, value in results.items()]
    padding = [""] * (len(columns) - 2)
    return [columns, *([str(cell[field]) for field in columns] for cell in cells),
            [footer, str(results[footer])] + padding, ["seed", str(record.seed)] + padding]


def _render_csv(record: RunRecord) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(_csv_rows(record))
    return buffer.getvalue().rstrip("\n")


def _render_human(record: RunRecord) -> str:
    lines = [f"command: {record.command}"]
    results = record.results
    if "cells" in results:
        lines.append("  ".join(_CELL_COLUMNS))
        for cell in results["cells"]:
            lines.append("  ".join(str(cell[field]) for field in _CELL_COLUMNS))
        lines.append(f"stream_version: {results['stream_version']}")
    elif "reports" in results:
        for report in results["reports"]:
            lines.append(
                f"{report['name']}: trials={report['trials']} "
                f"violations={report['violations']} worst_margin={report['worst_margin']} "
                f"worst_inequality={json.dumps(report['worst_inequality'])} "
                f"worst_input={json.dumps(report['worst_input'])}"
            )
        lines.append(f"violations_total: {results['violations_total']}")
    else:
        for key, value in results.items():
            lines.append(f"{key}: {_flat_text(value, ', ')}")
    if record.seed is not None:
        lines.append(f"seed: {record.seed}")
    lines.append(f"version: {record.version}")
    lines.append(f"wall_time_ms: {record.wall_time_ms}")
    return "\n".join(lines)


_RENDERERS: dict = {"json": _render_json, "csv": _render_csv, "human": _render_human}


def run(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, execute, print the report, return the exit code.

    ``argv`` defaults to ``sys.argv[1:]``, as argparse's does.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    start = time.monotonic()
    try:
        results, seed = args.handler(args)
    except CapExceededError as exc:
        print(f"condorcet: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"condorcet: error: {exc}", file=sys.stderr)
        return 1
    wall_ms = int((time.monotonic() - start) * 1000)
    parameters = {
        key: value
        for key, value in vars(args).items()
        if key not in ("handler", "format", "out") and value is not None
    }
    record = RunRecord(args.command, parameters, results, seed, __version__, wall_ms)
    text = _RENDERERS[args.format](record)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.command == "verify" and results["violations_total"] > 0:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(run())
