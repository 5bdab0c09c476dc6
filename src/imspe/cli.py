"""Command-line interface.

Four subcommands: ``eval`` (criterion value of a design), ``integral``
(single or pair kernel average, closed form and/or quadrature), ``search``
(multistart optimization), and ``reproduce-tables`` (regenerate the
checked-in reference optima and report PASS/FAIL).

Every subcommand emits one RunRecord: a JSON object (or its flattened CSV
key/value form) with fields command, inputs, outputs, timing_ms, version,
validating against data/runrecord.schema.json. Criterion values are printed
as shortest round-trip decimal strings plus binary64 hex so bit-exact
comparison survives the text round trip. timing_ms is wall-clock and
volatile; everything else is deterministic for a given seed. ``--quiet``
suppresses human-readable narration, leaving only the record.

CSV format: header ``key,value``, then one row per flattened record field in
record order; nested keys join with ``.``, list indices appear as ``[i]``.

Exit codes: 0 success / all rows PASS; 1 reproduction FAIL; 2 usage error;
3 singular design; 4 search converged nowhere.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .criterion import imspe
from .errors import ImspeError, InvalidDesignError, OracleDivergenceError, SingularDesignError
from .integrals import pair_integral, single_integral
from .kernels import FAMILY_KINDS, CovarianceFamily, Design
from .quadrature import integrate_pair, integrate_single
from .reference import load_reference_cases
from .search import DEFAULT_CONFIG, SearchConfig, multistart_search

EXIT_OK = 0
EXIT_REPRODUCE_FAIL = 1
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_NO_CONVERGENCE = 4

# (flag, SearchConfig field, help); each flag's default dest is its record key
_SEARCH_OPTIONS = (
    ("--seed", "seed", "multistart seed"),
    ("--starts", "starts", "number of starts"),
    ("--tol-opt", "optimality_tol", "projected-gradient infinity-norm convergence tolerance"),
    ("--max-iterations", "max_iterations", "iteration cap per start"),
)


def _fmt(value):
    """Shortest round-trip decimal string for a float."""
    return repr(float(value))


def _hex(value):
    return float(value).hex()


def _flatten(obj, prefix, rows):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            _flatten(val, f"{prefix}[{i}]", rows)
    elif isinstance(obj, bool):
        rows.append((prefix, "true" if obj else "false"))
    elif isinstance(obj, float):
        rows.append((prefix, _fmt(obj)))
    elif obj is None:
        rows.append((prefix, ""))
    else:
        rows.append((prefix, str(obj)))


def _emit(record, args):
    if args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        rows = []
        _flatten(record, "", rows)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("key", "value"))
        writer.writerows(rows)


def _record(command, inputs, outputs, started):
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "timing_ms": (time.perf_counter() - started) * 1000.0,
        "version": __version__,
    }


def _parse_points(raw_points):
    points = []
    for chunk in raw_points:
        try:
            coords = tuple(float(t) for t in chunk.split(","))
        except ValueError:
            raise InvalidDesignError(f"could not parse point {chunk!r}") from None
        points.append(coords)
    widths = {len(p) for p in points}
    if len(widths) != 1:
        raise InvalidDesignError("every --points value must have the same number of coordinates")
    return np.array(points, dtype=float)


def cmd_eval(args):
    started = time.perf_counter()
    family = CovarianceFamily(args.family, args.theta)
    design = Design(_parse_points(args.points))
    evaluation = imspe(family, design)
    outputs = {
        "imspe": _fmt(evaluation.value),
        "imspe_hex": _hex(evaluation.value),
        "method": "closed-form",
        "n": design.n,
        "d": design.d,
        "condition_estimate": float(evaluation.condition_estimate),
    }
    if args.diagnostics:
        outputs["diagnostics"] = {
            "R": evaluation.R.tolist(),
            "W": evaluation.W.tolist(),
            "v": evaluation.v.tolist(),
        }
    inputs = {
        "family": family.kind,
        "theta": list(family.theta),
        "points": [list(row) for row in design.points],
    }
    _emit(_record("eval", inputs, outputs, started), args)
    return EXIT_OK


def cmd_integral(args):
    started = time.perf_counter()
    pair = args.b is not None
    outputs = {"kind": "pair" if pair else "single", "method": args.method}
    if args.method in ("closed", "both"):
        value = (
            pair_integral(args.family, args.theta, args.a, args.b)
            if pair
            else single_integral(args.family, args.theta, args.a)
        )
        outputs["value"] = _fmt(value)
        outputs["value_hex"] = _hex(value)
    if args.method in ("quadrature", "both"):
        oracle = (
            integrate_pair(args.family, args.theta, args.a, args.b)
            if pair
            else integrate_single(args.family, args.theta, args.a)
        )
        outputs["quadrature_value"] = _fmt(oracle)
        outputs["quadrature_value_hex"] = _hex(oracle)
    if args.method == "both":
        scale = max(abs(value), abs(oracle), 1e-300)
        outputs["relative_discrepancy"] = _fmt(abs(value - oracle) / scale)
    inputs = {
        "family": args.family,
        "theta": args.theta,
        "a": float(args.a),
        "b": None if args.b is None else float(args.b),
        "method": args.method,
    }
    _emit(_record("integral", inputs, outputs, started), args)
    return EXIT_OK


def _dest(flag):
    return flag[2:].replace("-", "_")


def _search_config(args):
    fields = {field: getattr(args, _dest(flag)) for flag, field, _ in _SEARCH_OPTIONS}
    return SearchConfig(**fields)


def _search_inputs(config):
    return {_dest(flag): getattr(config, field) for flag, field, _ in _SEARCH_OPTIONS}


def cmd_search(args):
    started = time.perf_counter()
    family = CovarianceFamily(args.family, args.theta)
    config = _search_config(args)
    result = multistart_search(family, args.n, args.d, config)
    outputs = {
        "starts_converged": result.starts_converged,
        "iterations_total": result.iterations_total,
        "local_minima": [
            {
                "design": [list(row) for row in design.points],
                "imspe": _fmt(value),
                "imspe_hex": _hex(value),
            }
            for design, value in result.local_minima
        ],
    }
    if result.best_design is None:
        outputs["best_design"] = None
        outputs["best_imspe"] = None
    else:
        outputs["best_design"] = [list(row) for row in result.best_design.points]
        outputs["best_imspe"] = _fmt(result.best_imspe)
        outputs["best_imspe_hex"] = _hex(result.best_imspe)
    inputs = {
        "family": family.kind,
        "theta": list(family.theta),
        "n": args.n,
        "d": args.d,
        **_search_inputs(config),
    }
    _emit(_record("search", inputs, outputs, started), args)
    if result.best_design is None:
        print("error: no start converged; try more starts or looser --tol-opt", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _reproduce_case(case, config):
    family = CovarianceFamily(case.family, [case.theta])
    result = multistart_search(family, case.n, 1, config)
    row = {
        "table": case.table,
        "family": case.family,
        "theta": case.theta,
        "n": case.n,
        "reference_design": list(case.design),
        "reference_imspe": case.imspe_digits,
        "converged": result.best_design is not None,
    }
    if result.best_design is None:
        row.update(
            computed_design=None,
            computed_imspe=None,
            computed_imspe_hex=None,
            max_coord_error=None,
            rel_error=None,
            status="FAIL",
        )
        return row, False
    computed = np.sort(result.best_design.points[:, 0])
    reference = np.sort(np.asarray(case.design))
    coord_err = float(np.max(np.abs(computed - reference)))
    rel_err = abs(result.best_imspe - case.imspe) / abs(case.imspe)
    ok = coord_err <= case.coord_atol and rel_err <= case.imspe_rtol
    row.update(
        computed_design=[float(c) for c in computed],
        computed_imspe=_fmt(result.best_imspe),
        computed_imspe_hex=_hex(result.best_imspe),
        max_coord_error=float(coord_err),
        rel_error=float(rel_err),
        status="PASS" if ok else "FAIL",
    )
    return row, ok


def cmd_reproduce_tables(args):
    started = time.perf_counter()
    cases = load_reference_cases(args.table)
    config = _search_config(args)
    rows = []
    all_ok = True
    for case in cases:
        row, ok = _reproduce_case(case, config)
        rows.append(row)
        all_ok = all_ok and ok
    if not args.quiet:
        print(
            f"{'table':<6}{'family':<13}{'theta':>6}  {'n':>2}  "
            f"{'reference imspe':<36}{'computed imspe':<26}{'rel error':>10}  "
            f"{'coord err':>10}  status"
        )
        for row in rows:
            rel = "-" if row["rel_error"] is None else f"{row['rel_error']:.2e}"
            coord = "-" if row["max_coord_error"] is None else f"{row['max_coord_error']:.2e}"
            computed = row["computed_imspe"] if row["computed_imspe"] is not None else "-"
            print(
                f"{row['table']:<6}{row['family']:<13}{row['theta']:>6g}  {row['n']:>2}  "
                f"{row['reference_imspe']:<36}{computed:<26}{rel:>10}  "
                f"{coord:>10}  {row['status']}"
            )
        passed = sum(1 for row in rows if row["status"] == "PASS")
        print(f"overall: {'PASS' if all_ok else 'FAIL'} ({passed}/{len(rows)} rows)")
    inputs = {"table": str(args.table), **_search_inputs(config)}
    outputs = {"rows": rows, "overall": "PASS" if all_ok else "FAIL"}
    _emit(_record("reproduce-tables", inputs, outputs, started), args)
    return EXIT_OK if all_ok else EXIT_REPRODUCE_FAIL


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="record output format"
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress narration; emit only the record"
    )

    search_common = argparse.ArgumentParser(add_help=False)
    for flag, field, help_text in _SEARCH_OPTIONS:
        default = getattr(DEFAULT_CONFIG, field)
        search_common.add_argument(flag, type=type(default), default=default, help=help_text)

    family_common = argparse.ArgumentParser(add_help=False)
    family_common.add_argument("--family", required=True, choices=FAMILY_KINDS)
    family_common.add_argument(
        "--theta", type=float, action="append", required=True,
        help="length scale; repeat once per dimension for anisotropy",
    )

    parser = argparse.ArgumentParser(
        prog="imspe",
        description="Closed-form integrated-prediction-variance evaluation and design search on [-1, 1]^d.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser(
        "eval", parents=[common, family_common], help="criterion value of a given design"
    )
    p_eval.add_argument(
        "--points", action="append", required=True, metavar="X[,Y,...]",
        help="one design point; repeat per point",
    )
    p_eval.add_argument(
        "--diagnostics", action="store_true", help="include R, W, v in the record"
    )
    p_eval.set_defaults(func=cmd_eval)

    p_int = sub.add_parser(
        "integral", parents=[common], help="single or pair kernel average over the box"
    )
    p_int.add_argument("--family", required=True, choices=FAMILY_KINDS)
    p_int.add_argument("--theta", type=float, required=True)
    p_int.add_argument("--a", type=float, required=True, help="first anchor point")
    p_int.add_argument(
        "--b", type=float, default=None, help="second anchor point (omit for the single average)"
    )
    p_int.add_argument("--method", choices=("closed", "quadrature", "both"), default="closed")
    p_int.set_defaults(func=cmd_integral)

    p_search = sub.add_parser(
        "search", parents=[common, search_common, family_common], help="multistart design optimization"
    )
    p_search.add_argument("--n", type=int, required=True, help="number of design points")
    p_search.add_argument("--d", type=int, default=1, help="dimension of the box")
    p_search.set_defaults(func=cmd_search)

    p_rep = sub.add_parser(
        "reproduce-tables", parents=[common, search_common],
        help="regenerate the checked-in reference optima and report PASS/FAIL",
    )
    p_rep.add_argument("--table", choices=("1", "2", "all"), default="all")
    p_rep.set_defaults(func=cmd_reproduce_tables)
    return parser


_VALUE_FLAGS = (
    "--theta", "--points", "--a", "--b", "--n", "--d",
    *(flag for flag, _, _ in _SEARCH_OPTIONS),
)


def _merge_negative_values(argv):
    # argparse reads "-0.4,0.2" as a flag, not a value; fold such values
    # into --flag=value form so negative coordinates parse everywhere
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in _VALUE_FLAGS
            and nxt is not None
            and nxt.startswith("-")
            and not nxt.startswith("--")
            and len(nxt) > 1
        ):
            merged.append(f"{tok}={nxt}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


@functools.cache
def _parser():
    # parsing leaves the parser as it was, so one per process serves every call
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(_merge_negative_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except SingularDesignError as exc:
        print(f"error: singular design: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except OracleDivergenceError as exc:
        print(f"error: quadrature oracle diverged: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ImspeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
