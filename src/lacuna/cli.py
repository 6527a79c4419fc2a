"""Command-line front end for evaluation, classification, certification.

One report per invocation, to stdout or ``--output``, as json, csv, or
text. Every command builds one :class:`Report` and :func:`_write` is
the only code that knows the three formats. Exit codes are a stable
contract: 0 success, 1 verification failure, 2 usage or range error.
Reports carry no timestamps, paths, or machine identity, so identical
configuration and seed give byte-identical bytes; json is written as
``json.dumps(payload, sort_keys=True, indent=2)`` would write it.
Classify's json points and csv rows go out a batch at a time, never as
one report-sized string.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import itertools
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO

from . import bessel
from . import integrals as ig
from . import spectrum as sp
from .errors import LacunaError, RangeError, SpectrumError, check_int

if TYPE_CHECKING:  # only certify imports it, when it runs
    from . import certificate as ct

SCHEMA = "lacuna-verify/1"
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_FORMATS = ("json", "csv", "text")
AMPLITUDE_BOX = (1.0e-40, 1.0e40)


# ---------------------------------------------------------------------------
# one report, one renderer


@dataclass(frozen=True)
class Report:
    """One command's result, ready for any of the three formats.

    ``payload`` is the json body (``schema`` is added on rendering); a
    value of its top level may be an :class:`EncodedList`.
    ``rows`` yields finished csv cells, one list per row, and it and
    ``text`` are called only when csv or text is asked for, so a large
    json report never pays for its other forms.
    """

    payload: dict
    header: list[str]
    rows: Callable[[], Iterable[Iterable]]
    text: Callable[[], str]
    code: int = EXIT_OK


@dataclass(frozen=True)
class EncodedList:
    """A top-level json list whose items ``encode`` writes, a batch at a time.

    ``encode(item)`` returns the item's text as ``json.dumps(...,
    sort_keys=True, indent=2)`` would write it as an element of a list
    that is a value of the report object: no leading indent, inner lines
    indented for that depth. The items are encoded when the report is
    written, and the list text is never held whole.
    """

    items: Sequence
    encode: Callable[[object], str]


_BATCH = 1024  # items per write of an EncodedList, rows per write of csv


def _table(header: list[str], records: list[dict]) -> Callable[[], Iterable[list]]:
    """Csv rows that read each header name as a key of each record.

    A flat list value becomes one space-joined cell. Anything else goes
    to the csv writer as is, which writes None as an empty cell and a
    float, numpy scalars included, as ``str``, the shortest decimal that
    reads back as the same float.
    """
    return lambda: (
        [" ".join(map(str, v)) if isinstance(v, list) else v for v in map(rec.get, header)]
        for rec in records
    )


def _json_parts(payload: dict) -> Iterator[str]:
    """``json.dumps(payload, sort_keys=True, indent=2)`` one top-level value at a time.

    An ``EncodedList`` value is written a batch of items at a time. The
    ascii encoder escapes every newline inside a string, so indenting a
    value's lines by one level cannot touch its contents.
    """
    sep = "{\n  "
    for key, value in sorted(payload.items()):
        head = f"{sep}{json.dumps(key)}: "
        sep = ",\n  "
        if not isinstance(value, EncodedList):
            yield head + json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
            continue
        if not value.items:
            yield head + "[]"
            continue
        lead = head + "[\n    "
        for i in range(0, len(value.items), _BATCH):
            yield lead + ",\n    ".join(map(value.encode, value.items[i : i + _BATCH]))
            lead = ",\n    "
        yield "\n  ]"
    yield "\n}"


def _write(report: Report, fmt: str, out: TextIO) -> None:
    """Write ``report`` as ``fmt`` to ``out`` as it is produced, ending in one newline."""
    if fmt == "csv":  # every row, the header too, ends in the line terminator
        rows, batch = iter(report.rows()), [report.header]
        while batch:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(batch)
            out.write(buf.getvalue())
            batch = list(itertools.islice(rows, _BATCH))
        return
    if fmt == "json":
        for part in _json_parts({"schema": SCHEMA, **report.payload}):
            out.write(part)
    else:
        out.write(report.text())
    out.write("\n")


def _render(report: Report, fmt: str, output: str | None) -> int:
    """Write ``report`` as ``fmt`` to ``output`` or stdout; return its exit code."""
    if not output:
        try:
            _write(report, fmt, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout early (| head): the verdict stands, and
            # devnull takes the interpreter's last flush, which would raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return report.code
    try:
        with open(output, "w", encoding="utf-8") as out:
            _write(report, fmt, out)
    except OSError as exc:
        raise RangeError(f"cannot write report: {exc}") from None
    return report.code


def _finite(x: float) -> float | None:
    # json has no portable infinity; absent bound -> null
    return None if math.isinf(x) else x


# ---------------------------------------------------------------------------
# spectrum construction shared by two subcommands


def _add_spectrum_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambdas", help="comma-separated absolute values, e.g. 0,1,5,25")
    parser.add_argument("--base", type=int, help="geometric generator base (> 3)")
    parser.add_argument("--depth", type=int, help="number of positive generator powers")
    parser.add_argument("--scale", type=int, help="generator multiplier (default 1)")


def _spectrum_from_args(args: argparse.Namespace) -> sp.SpectrumSet:
    if args.lambdas is not None:
        if args.base is not None or args.depth is not None or args.scale is not None:
            raise RangeError("give either --lambdas or --base/--depth/--scale, not both")
        try:
            lams = [int(part) for part in args.lambdas.split(",") if part.strip() != ""]
        except ValueError as exc:
            raise RangeError(f"bad --lambdas entry: {exc}") from None
        return sp.make_spectrum(lams)
    if args.base is None or args.depth is None:
        raise RangeError("need --lambdas or both --base and --depth")
    scale = 1 if args.scale is None else args.scale
    return sp.make_spectrum(base=args.base, depth=args.depth, scale=scale)


def _spectrum_desc(spectrum: sp.SpectrumSet) -> dict:
    return {
        "lambdas": list(spectrum.lambdas),
        "elements": sorted(spectrum.elements),
    }


# ---------------------------------------------------------------------------
# bessel


def cmd_bessel_eval(args: argparse.Namespace) -> Report:
    value = bessel.besselj(args.n, args.x)
    return Report(
        {"command": "bessel.eval", "n": args.n, "x": args.x, "value": value},
        ["n", "x", "value"],
        lambda: [[args.n, args.x, value]],
        lambda: repr(value),
    )


def cmd_bessel_zeros(args: argparse.Namespace) -> Report:
    values = [float(z) for z in bessel.j1_zeros(args.count)]
    return Report(
        {"command": "bessel.zeros", "count": args.count, "zeros": values},
        ["r", "zero"],
        lambda: enumerate(values),
        lambda: "\n".join(map(repr, values)),
    )


# ---------------------------------------------------------------------------
# integrals

_TRIPLE_HEADER = ["k", "m", "n", "value", "error", "method"]


def _triple_report(command: str, method: str, iv: ig.IntegralValue, k=0, m=0, n=0) -> Report:
    return Report(
        {"command": command, "k": k, "m": m, "n": n,
         "value": iv.value, "error": iv.error_bound, "method": method},
        _TRIPLE_HEADER,
        lambda: [[k, m, n, iv.value, iv.error_bound, method]],
        lambda: f"({k},{m},{n}) = {iv.value!r} +- {iv.error_bound!r} [{method}]",
    )


def cmd_integrals_f(args: argparse.Namespace) -> Report:
    k, m, n = args.orders
    rv = ig.f_ratio(k, m, n, r_max=args.r_max)
    err = max(rv.value - rv.lo, rv.hi - rv.value)
    return Report(
        {"command": "integrals.F", "k": k, "m": m, "n": n,
         "value": rv.value, "lo": rv.lo, "hi": _finite(rv.hi)},
        _TRIPLE_HEADER,
        lambda: [[k, m, n, rv.value, err, "direct_ratio"]],
        lambda: f"F({k},{m},{n}) = {rv.value!r} in [{rv.lo!r}, {rv.hi!r}]",
    )


def cmd_integrals_copt(args: argparse.Namespace) -> Report:
    return _triple_report("integrals.copt", "direct_truncated", ig.c_opt(r_max=args.r_max))


def cmd_integrals_tilde(args: argparse.Namespace) -> Report:
    k, m, n = args.orders
    check_int(args.order_cap, "order_cap", 1, ig.ORDER_GUARANTEE_CAP)
    top = max(abs(k), abs(m), abs(n))
    if top > ig.ORDER_GUARANTEE_CAP:
        raise RangeError(
            f"order {top} exceeds {ig.ORDER_GUARANTEE_CAP}, the table route's certified range"
        )
    table = ig.build_table(max(args.order_cap, top))
    iv = ig.i_tilde(abs(k), abs(m), abs(n), table)
    return _triple_report("integrals.tilde", "quadrature_lemma8", iv, k, m, n)


def cmd_integrals_direct(args: argparse.Namespace) -> Report:
    orders = list(args.orders)
    iv = ig.i_direct(tuple(orders), r_max=args.r_max)
    return Report(
        {"command": "integrals.direct", "orders": orders,
         "value": iv.value, "error": iv.error_bound, "method": "direct_truncated"},
        [f"n{i}" for i in range(1, 7)] + ["value", "error", "method"],
        lambda: [[*orders, iv.value, iv.error_bound, "direct_truncated"]],
        lambda: f"I{tuple(orders)} = {iv.value!r} +- {iv.error_bound!r}",
    )


def cmd_integrals_sweep(args: argparse.Namespace) -> Report:
    if args.suite != "bounds-f":
        raise RangeError(f"unknown suite {args.suite!r}; available: bounds-f")
    # below SWEEP_MIN_N some family's window is empty, and its floor unchecked
    n_max = check_int(args.n_max, "n_max", ig.SWEEP_MIN_N, ig.SWEEP_MAX_N)
    sweep = ig.sweep_diagonal(n_max, r_max=args.r_max)
    rows: list[dict] = []
    for label, floor, window in ig.SWEEP_FLOORS:
        lo, point = min((sweep.ratio(*p).lo, p) for p in window(n_max))
        rows.append(
            {
                "family": label.format(floor),
                "threshold": floor,
                "worst_point": list(point),
                "worst_lo": lo,
                "margin": lo - floor,
                "status": "pass" if lo > floor else "fail",
            }
        )
    # F(1,0,0) equals the single floor, which no strict check can clear, so
    # the report's second row checks that F's whole enclosure lies within
    # 2e-2 of it instead; its upper end is unbounded where den - e <= 0
    single, f100 = ig.F_FLOOR_SINGLE, sweep.ratio(1, 0, 0)
    margin = 2e-2 - max(single - f100.lo, f100.hi - single)
    rows.insert(
        1,
        {
            "family": f"single (1,0,0) within 2e-2 of {single:g}",
            "threshold": 2e-2,
            "worst_point": [1, 0, 0],
            "worst_lo": f100.lo,
            "margin": margin,
            "status": "pass" if margin >= 0.0 else "fail",
        },
    )
    passed = all(r["status"] == "pass" for r in rows)

    def text() -> str:
        lines = [
            f"{r['status'].upper():4}  {r['family']}: worst "
            f"{tuple(r['worst_point'])} -> {r['worst_lo']:.4f} (margin {r['margin']:+.4f})"
            for r in rows
        ]
        lines.append("suite: " + ("pass" if passed else "FAIL"))
        return "\n".join(lines)

    header = ["family", "threshold", "worst_point", "worst_lo", "margin", "status"]
    return Report(
        {
            "command": "integrals.sweep",
            "suite": args.suite,
            "config": {
                "n_max": n_max,
                "r_max": args.r_max,
                "quad_diff": sweep.quad_diff,
            },
            "rows": [{**r, "margin": _finite(r["margin"])} for r in rows],
            "passed": passed,
        },
        header,
        _table(header, rows),
        text,
        EXIT_OK if passed else EXIT_FAIL,
    )


# ---------------------------------------------------------------------------
# spectrum


# the json and csv text of each enum value; a point without a subtype has
# null in json and an empty csv cell
_KIND_JSON = {k: f'"{k.value}"' for k in sp.PointKind}
_SUBTYPE_JSON = {None: "null", **{k: f'"{k.value}"' for k in sp.ExceptionKind}}
_KIND_CSV = {k: k.value for k in sp.PointKind}
_SUBTYPE_CSV = {None: None, **{k: k.value for k in sp.ExceptionKind}}
_REP_JSON = "[\n          %d,\n          %d,\n          %d\n        ]"


def _point_json(p: sp.ClassifiedPoint) -> str:
    """One point as ``json.dumps`` writes it in the classify report's ``points`` list.

    The shape is fixed: six keys in sorted order, ``families`` a sorted
    list of ints, ``reps`` a list of int triples (a point has at least one).
    """
    reps = p.reps  # most points have one
    reps_json = (
        _REP_JSON % reps[0]
        if len(reps) == 1
        else ",\n        ".join([_REP_JSON % r for r in reps])
    )
    families = (
        "[\n        " + ",\n        ".join(map(str, sorted(p.family_tags))) + "\n      ]"
        if p.family_tags
        else "[]"
    )
    return (
        f'{{\n      "D": {p.point},'
        f'\n      "boundary_safe": {"true" if p.boundary_safe else "false"},'
        f'\n      "class": {_KIND_JSON[p.kind]},'
        f'\n      "families": {families},'
        f'\n      "reps": [\n        {reps_json}\n      ],'
        f'\n      "subtype": {_SUBTYPE_JSON[p.subtype]}\n    }}'
    )


def cmd_spectrum(args: argparse.Namespace) -> Report:
    spectrum = _spectrum_from_args(args)
    points = sp.classify_brute_force(spectrum)
    kinds = [p.kind for p in points]
    counts = {k.value: kinds.count(k) for k in sp.PointKind}
    exceptions = [p for p in points if p.kind is sp.PointKind.EXCEPTION]
    unique_sums, witness = sp.has_unique_pair_sums(spectrum)
    cross = None
    if args.cross_check:
        brute = {(p.point, p.reps, p.subtype) for p in exceptions if p.boundary_safe}
        equations = {
            (p.point, p.reps, p.subtype)
            for p in sp.exceptions_from_equations(spectrum)
            if p.boundary_safe
        }
        cross = "ok" if brute == equations else "mismatch"

    def rows() -> Iterator[list]:
        for p in points:
            reps = p.reps  # most points have one
            yield [
                p.point,
                _KIND_CSV[p.kind],
                _SUBTYPE_CSV[p.subtype],
                " ".join(map(str, sorted(p.family_tags))) if p.family_tags else "",
                "%d,%d,%d" % reps[0] if len(reps) == 1 else ";".join("%d,%d,%d" % r for r in reps),
                p.boundary_safe,
            ]

    def text() -> str:
        lines = [
            f"spectrum: {list(spectrum.lambdas)} ({len(spectrum.elements)} elements)"
        ]
        for p in exceptions:
            reps = " = ".join("+".join(map(str, r)) for r in p.reps)
            lines.append(f"exception D={p.point} [{p.subtype.value}]: {reps}")
        lines.append(
            "counts: "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
        if cross is not None:
            lines.append(f"cross-check: {cross}")
        return "\n".join(lines)

    return Report(
        {
            "command": "spectrum.classify",
            "spectrum": _spectrum_desc(spectrum),
            "points": EncodedList(points, _point_json),
            "summary": {
                **counts,
                "total": len(points),
                "boundary_safe_exceptions": sum(1 for p in exceptions if p.boundary_safe),
                "unique_pair_sums": unique_sums,
            },
            "cross_check": cross,
        },
        ["D", "class", "subtype", "families", "reps", "boundary_safe"],
        rows,
        text,
        EXIT_OK if cross in (None, "ok") else EXIT_FAIL,
    )


# ---------------------------------------------------------------------------
# certify


def _read_coefficients(path: str, spectrum: sp.SpectrumSet) -> ct.CoefficientVector:
    from . import certificate as ct
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise RangeError(f"cannot read coefficient file: {exc}") from None
    reader = csv.reader(io.StringIO(raw))
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header] != ["n", "re", "im"]:
        raise RangeError("coefficient file must start with the header: n,re,im")
    values: dict[int, complex] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            n = int(row[0])
            z = complex(float(row[1]), float(row[2]))
        except (ValueError, IndexError) as exc:
            raise RangeError(f"bad coefficient row {lineno}: {exc}") from None
        if n in values:
            raise RangeError(f"duplicate frequency {n} in coefficient file")
        values[n] = z
    vec = ct.CoefficientVector.from_dict(spectrum, values)
    if not vec.entries:
        raise RangeError("coefficient file has no nonzero amplitude: no vector would be checked")
    # inside the box sixth powers, cubed masses and error terms stay normal
    # floats; outside it they overflow or underflow to 0 and fake a verdict
    lo, hi = AMPLITUDE_BOX
    top = max(abs(z) for _, z in vec.entries)
    if not lo <= top <= hi:
        raise RangeError(f"largest amplitude modulus {top:g} outside [{lo:g}, {hi:g}]")
    return vec


def _instance_dict(inst: ct.SystemInstance) -> dict:
    return {
        "point": inst.point,
        "description": inst.description,
        "eps_lo": _finite(inst.eps_lo),
        "eps_hi": _finite(inst.eps_hi),
        "feasible": inst.feasible,
        "margin": _finite(inst.margin),
    }


def _report_dict(report: ct.SystemReport) -> dict:
    return {
        "system": report.system_id,
        "passed": report.passed,
        "tightest_margin": _finite(report.tightest_margin),
        "instances": [_instance_dict(i) for i in report.instances],
    }


def _trial_dict(
    index: int,
    label: str,
    vec: ct.CoefficientVector,
    s: ig.IntegralValue,
    ub: ig.IntegralValue,
    verdict: ct.TheoremVerdict,
) -> dict:
    grouped_ok = s.value <= ub.value + ub.error_bound + s.error_bound
    passed = grouped_ok and (verdict.verdict == "holds" or verdict.equality_case)
    return {
        "index": index,
        "source": label,
        "support": list(vec.support),
        "s_exact": s.value,
        "upper_bound": ub.value,
        "grouped_ok": grouped_ok,
        "verdict": verdict.verdict,
        "margin": verdict.margin,
        "error_budget": verdict.error_budget,
        "equality_case": verdict.equality_case,
        "passed": passed,
    }


# one csv row per trial, one column per trial key
_CERTIFY_HEADER = [
    "index", "source", "support", "s_exact", "upper_bound", "grouped_ok",
    "verdict", "margin", "error_budget", "equality_case", "passed",
]


def cmd_certify(args: argparse.Namespace) -> Report:
    from . import certificate as ct
    check_int(args.trials, "trials", 0, math.inf)
    if args.trials == 0 and args.coeff is None:
        raise RangeError("trials must be >= 1 without --coeff: no vector would be checked")
    b = ct.DEFAULT_B if args.b is None else args.b
    if not math.isfinite(b):
        raise RangeError(f"b must be finite, got {b}")
    spectrum = _spectrum_from_args(args)
    ig.quad_bound(args.r_max, spectrum.top)  # refuses a bad r_max before any grid
    # the vectors come first: a bad --coeff file is a usage error whatever b is
    jobs: list[tuple[int, str, ct.CoefficientVector]] = []
    if args.coeff == "const":
        jobs.append((0, "const", ct.CoefficientVector.constant(spectrum)))
    elif args.coeff is not None:
        jobs.append((0, args.coeff, _read_coefficients(args.coeff, spectrum)))
    else:
        for i in range(args.trials):
            rng = random.Random(f"{args.seed}:{i}")
            vec = ct.random_vector(spectrum, rng, adversarial=(i % 3 == 0))
            jobs.append((i, "random", vec))
    payload: dict = {
        "command": "certify",
        "config": {
            "spectrum": _spectrum_desc(spectrum),
            "b": b,
            "trials": args.trials,
            "seed": args.seed,
            "r_max": args.r_max,
            "coeff": args.coeff,
        },
        "trials_run": [],
    }
    reports = ct.check_systems(spectrum, b, r_max=args.r_max)
    payload["system_reports"] = [_report_dict(r) for r in reports]
    verdict = "system infeasible"
    if all(r.passed for r in reports):
        params = ct.params_from_reports(b, reports)
        payload["eps"] = [[d, e] for d, e in params.eps]
        # both forms are built once, on the frequencies the vectors use: a --coeff
        # file that avoids an element past the direct route's order cap still runs
        vectors = [vec for _, _, vec in jobs]
        support = sorted(set().union(*(vec.support for vec in vectors)))
        forms = ct.assemble_forms(spectrum, params, support, r_max=args.r_max)
        payload["trials_run"] = [
            _trial_dict(index, label, vec, s, ub, ct.verdict_of(s, vec, r_max=args.r_max))
            for (index, label, vec), (s, ub) in zip(jobs, ct.evaluate_forms(forms, vectors))
        ]
        verdict = "holds" if all(t["passed"] for t in payload["trials_run"]) else "fails"
    payload["verdict"] = verdict
    return Report(
        payload,
        _CERTIFY_HEADER,
        _table(_CERTIFY_HEADER, payload["trials_run"]),
        lambda: _certify_text(payload),
        EXIT_OK if verdict == "holds" else EXIT_FAIL,
    )


def _certify_text(payload: dict) -> str:
    lines = [f"b = {payload['config']['b']}"]
    for rep in payload["system_reports"]:
        lines.append(
            f"system {rep['system']}: "
            + ("ok" if rep["passed"] else "INFEASIBLE")
            + f" ({len(rep['instances'])} rows)"
        )
    if "eps" in payload:
        eps = ", ".join(f"{d} -> {e:.4f}" for d, e in payload["eps"])
        lines.append(f"eps: {eps or '(none)'}")
    trials = payload["trials_run"]
    if trials:
        ok = sum(1 for t in trials if t["passed"])
        worst = min(trials, key=lambda t: t["margin"] - t["error_budget"])
        lines.append(
            f"trials: {ok}/{len(trials)} pass; tightest margin "
            f"{worst['margin']:.3e} vs budget {worst['error_budget']:.3e}"
            + (" (equality case)" if worst["equality_case"] else "")
        )
    lines.append(f"verdict: {payload['verdict']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lacuna-verify",
        description="verification toolkit for the sharp sextic extension inequality",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS, default=None)
    common.add_argument("--output", default=None, help="write the report to this path")
    common.add_argument(
        "--threads", type=int, default=1, help="accepted (>= 1); runs are single-threaded"
    )

    subs = parser.add_subparsers(dest="command", required=True)

    # common flags attach to leaf parsers only: a parent default on an
    # outer parser would overwrite a value parsed before the subcommand.
    # Each leaf names its report builder; each group its default format.
    p_bessel = subs.add_parser("bessel", help="Bessel function values")
    p_bessel.set_defaults(default_fmt="text")
    bessel_subs = p_bessel.add_subparsers(dest="bessel_cmd", required=True)
    p_eval = bessel_subs.add_parser("eval", parents=[common])
    p_eval.add_argument("-n", type=int, required=True, help="order, |n| <= 1200")
    p_eval.add_argument("-x", type=float, required=True, help="argument in [0, 1e4]")
    p_eval.set_defaults(func=cmd_bessel_eval)
    p_zeros = bessel_subs.add_parser("zeros", parents=[common])
    p_zeros.add_argument("-c", "--count", type=int, required=True)
    p_zeros.set_defaults(func=cmd_bessel_zeros)

    p_int = subs.add_parser("integrals", help="sextet integrals and F")
    p_int.set_defaults(default_fmt="csv")
    int_subs = p_int.add_subparsers(dest="integrals_cmd", required=True)
    p_f = int_subs.add_parser("F", parents=[common])
    p_f.add_argument("orders", type=int, nargs=3, metavar="N")
    p_f.set_defaults(func=cmd_integrals_f)
    p_copt = int_subs.add_parser("copt", parents=[common])
    p_copt.set_defaults(func=cmd_integrals_copt)
    p_tilde = int_subs.add_parser("tilde", parents=[common])
    p_tilde.add_argument("orders", type=int, nargs=3, metavar="N")
    p_tilde.add_argument("--order-cap", type=int, default=ig.ORDER_GUARANTEE_CAP)
    p_tilde.set_defaults(func=cmd_integrals_tilde)
    p_direct = int_subs.add_parser("direct", parents=[common])
    p_direct.add_argument("orders", type=int, nargs=6, metavar="N")
    p_direct.set_defaults(func=cmd_integrals_direct)
    p_sweep = int_subs.add_parser("sweep", parents=[common])
    p_sweep.add_argument("--suite", required=True)
    p_sweep.add_argument("--n-max", type=int, default=ig.SWEEP_N_MAX)
    p_sweep.set_defaults(func=cmd_integrals_sweep)
    for sub in (p_f, p_copt, p_direct):  # the table route takes no --r-max
        sub.add_argument("--r-max", dest="r_max", type=float, default=ig.DEFAULT_R_MAX)
    p_sweep.add_argument("--r-max", dest="r_max", type=float, default=ig.SWEEP_R_MAX)

    p_spec = subs.add_parser("spectrum", help="triple-sum classification")
    p_spec.set_defaults(default_fmt="json")
    spec_subs = p_spec.add_subparsers(dest="spectrum_cmd", required=True)
    p_cls = spec_subs.add_parser("classify", parents=[common])
    _add_spectrum_args(p_cls)
    p_cls.add_argument(
        "--cross-check",
        action="store_true",
        help="compare brute force against the equation route",
    )
    p_cls.set_defaults(func=cmd_spectrum)

    p_cert = subs.add_parser("certify", parents=[common], help="run the certificate")
    _add_spectrum_args(p_cert)
    p_cert.add_argument(
        "--b",
        type=float,
        help="weight b > 1 of the grouped bound; the system rows decide it",
    )
    p_cert.add_argument("--trials", type=int, default=100)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument(
        "--coeff",
        default=None,
        help="coefficient CSV (header n,re,im) or the literal 'const'",
    )
    p_cert.add_argument("--r-max", dest="r_max", type=float, default=ig.DEFAULT_R_MAX)
    p_cert.set_defaults(func=cmd_certify, default_fmt="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A deep classification is hundreds of thousands of acyclic records; each
    # cyclic GC pass would rescan them all and free nothing, so the collector
    # pauses until the report is out.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        check_int(args.threads, "threads", 1, math.inf)
        return _render(args.func(args), args.format or args.default_fmt, args.output)
    except (RangeError, SpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LacunaError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
