"""End-to-end command tests through lacuna.cli.main."""

import collections
import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lacuna
from lacuna import cli
from lacuna import spectrum as sp
from lacuna.cli import main
from lacuna.errors import CertificateError, StructureViolation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bessel


def test_bessel_eval_origin(capsys):
    code, out, _ = run(capsys, "bessel", "eval", "-n", "0", "-x", "0")
    assert code == 0 and out.strip() == "1.0"


def test_bessel_eval_json(capsys):
    code, out, _ = run(capsys, "bessel", "eval", "-n", "1", "-x", "1", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["schema"] == "lacuna-verify/1"
    assert payload["value"] == pytest.approx(0.4400505857449335, rel=1e-12)


def test_bessel_eval_order_cap(capsys):
    code, out, err = run(capsys, "bessel", "eval", "-n", "1300", "-x", "1")
    assert code == 2 and out == "" and "error" in err


def test_bessel_zeros(capsys):
    code, out, _ = run(capsys, "bessel", "zeros", "-c", "3")
    values = [float(line) for line in out.strip().splitlines()]
    assert code == 0
    assert values[0] == 0.0
    assert values[1] == pytest.approx(3.8317059702075125, rel=1e-12)
    assert values[2] == pytest.approx(7.0155866698154465, rel=1e-12)


def test_bessel_zeros_past_the_box_exit_2(capsys):
    # zero 3183 lies at 10000.47, past the evaluation box
    code, out, err = run(capsys, "bessel", "zeros", "-c", "3184")
    assert code == 2 and out == "" and "3183" in err


# ---------------------------------------------------------------------------
# integrals


def test_integrals_f_csv(capsys):
    code, out, _ = run(capsys, "integrals", "F", "--", "1", "0", "0")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and len(rows) == 1
    row = rows[0]
    assert (row["k"], row["m"], row["n"]) == ("1", "0", "0")
    assert float(row["value"]) == pytest.approx(5.0, abs=2e-2)
    assert float(row["error"]) > 0
    assert row["method"] == "direct_ratio"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_integrals_f_where_the_denominator_reaches_zero(capsys, fmt):
    # den.lo <= 0 for F(512,8,1) at the default r_max: hi is unbounded,
    # lo = I(0^6).lo / I(512,512,8,8,1,1).hi is still proven
    from lacuna import integrals as ig

    lo = ig.i_direct((0,) * 6).lo / ig.i_direct((512, 512, 8, 8, 1, 1)).hi
    code, out, err = run(capsys, "integrals", "F", "512", "8", "1", "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        payload = json.loads(out)
        assert payload["hi"] is None and payload["lo"] == lo
        assert lo < payload["value"]
    elif fmt == "csv":
        [row] = csv.DictReader(io.StringIO(out))
        assert row["error"] == "inf" and row["method"] == "direct_ratio"
    else:
        assert out.rstrip("\n").endswith(f"in [{lo!r}, inf]")
        assert 3043.0 < lo < 3044.0


def test_integrals_copt_json(capsys):
    code, out, _ = run(capsys, "integrals", "copt", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == pytest.approx(524.93, abs=0.2)
    assert payload["method"] == "direct_truncated"


def test_integrals_tilde_table_route(capsys):
    code, out, _ = run(capsys, "integrals", "tilde", "1", "0", "0", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["method"] == "quadrature_lemma8"
    # the table value undershoots by less than its gap, so the direct
    # route must sit within the two bounds
    from lacuna import integrals as ig

    direct = ig.i_direct((1, 1, 0, 0, 0, 0))
    assert abs(payload["value"] - direct.value) <= payload["error"] + direct.error_bound
    # the table route reads no --r-max, and no command takes --tol
    with pytest.raises(SystemExit) as exc:
        main(["integrals", "tilde", "1", "0", "0", "--tol", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, "integrals", "tilde", "1", "0", "0", "--order-cap", "0")
    assert code == 2 and out == ""
    assert "order_cap 0 outside [1, 532]" in err and "r_max" not in err


def test_integrals_tilde_past_certified_range_exits_2(capsys, monkeypatch):
    # past order 532 the table's gap is not certified: no value is printed,
    # and no table is built to find that out
    from lacuna import integrals as ig

    def forbidden(order_cap):
        raise AssertionError(f"built a table to order {order_cap}")

    with monkeypatch.context() as mp:
        mp.setattr(ig, "build_table", forbidden)
        code, out, err = run(capsys, "integrals", "tilde", "533", "0", "0")
    assert code == 2 and out == ""
    assert "order 533 exceeds 532" in err
    # the table itself holds no row past the certified range
    code, out, err = run(capsys, "integrals", "tilde", "1", "0", "0", "--order-cap", "533")
    assert code == 2 and out == "" and "order_cap 533 outside" in err


def test_integrals_direct_csv(capsys):
    code, out, _ = run(capsys, "integrals", "direct", "--", "1", "-1", "0", "0", "1", "-1")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and len(rows) == 1
    assert float(rows[0]["value"]) == pytest.approx(0.042371, abs=1e-4)


def test_integrals_sweep_low_precision_fails_honestly(capsys):
    # at r_max 4000 the tail bound is wider than the 7.94 margin, so the
    # pair-zero row must report failure rather than a fake pass
    code, out, _ = run(
        capsys,
        "integrals", "sweep", "--suite", "bounds-f",
        "--n-max", "4", "--r-max", "4000",
        "--format", "json",
    )
    payload = json.loads(out)
    assert code == 1 and payload["passed"] is False
    failing = [r["family"] for r in payload["rows"] if r["status"] == "fail"]
    assert failing == ["pair-zero (n,n,0) > 7.94"]


def test_integrals_sweep_csv_plain_floats(capsys):
    # the default csv format writes numbers as plain decimals, never as
    # numpy reprs, and each one reads back as the json report's value
    args = (
        "integrals", "sweep", "--suite", "bounds-f",
        "--n-max", "4", "--r-max", "4000",
    )
    code_csv, out_csv, _ = run(capsys, *args)
    code_json, out_json, _ = run(capsys, *args, "--format", "json")
    assert code_csv == code_json == 1
    assert "np." not in out_csv
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    expected = json.loads(out_json)["rows"]
    assert [r["family"] for r in rows] == [r["family"] for r in expected]
    for got, want in zip(rows, expected):
        assert float(got["worst_lo"]) == want["worst_lo"]
        assert float(got["margin"]) == want["margin"]


# every command on the direct route, with its largest order (None: 0, below any r_max)
_DIRECT_ROUTE = [
    (("integrals", "direct", "200", "0", "0", "0", "0", "0"), 200),
    (("integrals", "F", "200", "0", "0"), 200),
    (("integrals", "copt"), None),
    (("integrals", "sweep", "--suite", "bounds-f", "--n-max", "200"), 200),
    (("certify", "--lambdas", "0,1,4,13,40,121,364", "--trials", "1"), 364),
]


@pytest.mark.parametrize("argv, top", _DIRECT_ROUTE, ids=["direct", "F", "copt", "sweep", "certify"])
def test_integrals_direct_r_max_below_order_exits_2(capsys, monkeypatch, argv, top):
    # the tail envelope needs r_max above the largest order, and no grid
    # past MAX_R_MAX is supported: both are refused before a grid is built
    from lacuna import integrals as ig

    def forbidden(r_max):
        raise AssertionError(f"built a grid to r_max {r_max}")

    monkeypatch.setattr(ig, "_grid_blocks", forbidden)
    if top is not None:
        code, out, err = run(capsys, *argv, "--r-max", "150")
        assert code == 2 and out == "" and f"order {top}" in err
    for r_max in ("40001", "1e300"):
        code, out, err = run(capsys, *argv, "--r-max", r_max)
        assert code == 2 and out == "" and "exceeds 40000" in err, r_max


def test_integrals_sweep_unknown_suite(capsys):
    code, _, err = run(capsys, "integrals", "sweep", "--suite", "nope")
    assert code == 2 and "unknown suite" in err


def test_integrals_sweep_refuses_past_its_ceiling(capsys, monkeypatch):
    from lacuna import integrals as ig

    def forbidden(r_max):
        raise AssertionError(f"built a grid to r_max {r_max}")

    monkeypatch.setattr(ig, "_grid_blocks", forbidden)
    argv = ("integrals", "sweep", "--suite", "bounds-f", "--n-max", str(ig.SWEEP_MAX_N + 1))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "n_max 201 outside [3, 200]" in err


def test_integrals_sweep_needs_an_order(capsys):
    # n_max 0 leaves every family empty, and below 3 the (n,n,0), 3 <= n
    # window is: a report could read "suite: pass" with a floor unchecked
    for n_max in ("0", "1", "2"):
        code, out, err = run(capsys, "integrals", "sweep", "--suite", "bounds-f", "--n-max", n_max)
        assert code == 2 and out == "", n_max
        assert f"n_max {n_max} outside [3, 200]" in err


def test_integrals_sweep_text_report(capsys):
    # every family's name, order, floor, worst point and status, pinned
    code, out, _ = run(
        capsys,
        "integrals", "sweep", "--suite", "bounds-f",
        "--n-max", "3", "--r-max", "4000", "--format", "text",
    )
    assert code == 1
    assert out == (
        "PASS  single (n,0,0) > 5, 2 <= n: worst (2, 0, 0) -> 9.1043 (margin +4.1043)\n"
        "PASS  single (1,0,0) within 2e-2 of 5: worst (1, 0, 0) -> 4.9943 (margin +0.0142)\n"
        "FAIL  pair-zero (n,n,0) > 7.94: worst (1, 1, 0) -> 7.9354 (margin -0.0046)\n"
        "PASS  pair-zero (n,n,0) > 10.8, 3 <= n: worst (3, 3, 0) -> 10.8538 (margin +0.0538)\n"
        "PASS  diagonal (n,n,n) > 3.2: worst (1, 1, 1) -> 3.2103 (margin +0.0103)\n"
        "PASS  pair (n,n,m) > 10, n != m, not {1,1,2}: worst (2, 2, 1) -> 10.0470 "
        "(margin +0.0470)\n"
        "PASS  distinct (n,m,k) > 18, not (3,2,0): worst (2, 1, 0) -> 24.2022 "
        "(margin +6.2022)\n"
        "suite: FAIL\n"
    )


def test_integrals_sweep_f100_row_reads_the_enclosure(capsys):
    # at r_max 100 the point ratio F(1,0,0) is 5.0000, within 2e-2 of 5, but
    # the sweep's enclosure of it is [4.7781, 5.2397]: the row must fail
    sweep = ("integrals", "sweep", "--suite", "bounds-f", "--format", "json")
    code, out, _ = run(capsys, *sweep, "--n-max", "3", "--r-max", "100")
    row = json.loads(out)["rows"][1]
    assert code == 1 and row["worst_point"] == [1, 0, 0] and row["status"] == "fail"
    assert row["worst_lo"] == pytest.approx(4.7781, abs=1e-4)
    # an error bound past I(1,1,0,0,0,0) leaves the enclosure no upper end
    code, out, _ = run(capsys, *sweep, "--n-max", "100", "--r-max", "100.01")
    row = json.loads(out)["rows"][1]
    assert code == 1 and row["status"] == "fail" and row["margin"] is None


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_classify_cross_check(capsys):
    code, out, _ = run(
        capsys, "spectrum", "classify", "--base", "5", "--depth", "5", "--cross-check"
    )
    payload = json.loads(out)
    assert code == 0 and payload["cross_check"] == "ok"
    exc = {p["D"] for p in payload["points"] if p["class"] == "exception"}
    assert exc == {3, -3, 15, -15, 75, -75, 375, -375}
    assert all(
        p["boundary_safe"] for p in payload["points"] if p["class"] == "exception"
    )
    assert payload["summary"]["unique_pair_sums"] is True


def test_spectrum_past_the_element_cap_exits_2_at_once(capsys, monkeypatch):
    from lacuna import spectrum as sp

    def forbidden(*args, **kwargs):
        raise AssertionError("the cap must stop the run before any triple is formed")

    # depth 69 (139 elements) peaks at 301 MB; depth 70 is the cap plus one
    assert len(sp.make_spectrum(base=5, depth=69).elements) == 139
    monkeypatch.setattr(sp, "triples_by_sum", forbidden)
    code, out, err = run(
        capsys, "spectrum", "classify", "--base", "5", "--depth", "70", "--cross-check"
    )
    assert code == 2 and out == ""
    assert "141 elements exceed the supported 140" in err


_CLASSIFY20 = ("spectrum", "classify", "--base", "5", "--depth", "20", "--cross-check")


class _Writes:
    """A stand-in stdout that keeps every write apart."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def test_spectrum_classify_streams_its_json(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    assert main([*_CLASSIFY20, "--output", str(target)]) == 0
    writes = _Writes()
    monkeypatch.setattr(sys, "stdout", writes)
    assert main(list(_CLASSIFY20)) == 0
    out = "".join(writes.parts)
    assert out.encode() == target.read_bytes()
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    # the points go out a batch at a time, never as one report-sized string
    assert len(writes.parts) > 8
    assert max(map(len, writes.parts)) < len(out) / 8


def test_spectrum_classify_streams_its_csv(tmp_path, monkeypatch):
    argv = [*_CLASSIFY20, "--format", "csv"]
    target = tmp_path / "report.csv"
    assert main([*argv, "--output", str(target)]) == 0
    writes = _Writes()
    monkeypatch.setattr(sys, "stdout", writes)
    assert main(argv) == 0
    out = "".join(writes.parts)
    assert out.encode() == target.read_bytes()
    # the rows go straight to the destination, never joined into one string
    assert len(writes.parts) > 1
    assert max(map(len, writes.parts)) < len(out) / 8


def test_spectrum_classify_writes_nothing_before_the_last_point(monkeypatch):
    def broken(spectrum):
        raise StructureViolation("point 3 has two repeat-free representations")

    monkeypatch.setattr(sp, "exceptions_from_equations", broken)
    writes = _Writes()
    monkeypatch.setattr(sys, "stdout", writes)
    assert main(list(_CLASSIFY20)) == 1
    assert writes.parts == []


# sha256 of the bytes an earlier renderer wrote from per-point dicts
@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "816182f378f2d16fafec14a853e93417504b55fe6dd3ff60f97c7479f7dbabe7"),
        ("csv", "63c73ff4ae238476ef72ec038a1afc3e809492fc7838c9743638d4c828f564e5"),
        ("text", "76dcf03f5ebb29dd01c6b6462185956d875b44c12a41ebfab0c641b866e66227"),
    ],
)
def test_spectrum_classify_csv_and_text_bytes(capsys, fmt, digest):
    code, out, _ = run(
        capsys,
        "spectrum", "classify", "--base", "5", "--depth", "8", "--cross-check",
        "--format", fmt,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _point_tree(p):
    return {
        "D": p.point,
        "class": p.kind.name.lower(),
        "subtype": p.subtype.name.lower() if p.subtype else None,
        "families": sorted(p.family_tags),
        "reps": [list(r) for r in p.reps],
        "boundary_safe": p.boundary_safe,
    }


def test_point_encoder_is_json_dumps():
    spectra = [
        sp.make_spectrum([0, 1, 4, 13, 40, 121, 364]),
        sp.make_spectrum(base=4, depth=6, scale=3),
        sp.make_spectrum(base=5, depth=5, scale=10**25),
    ]
    points = [
        p
        for spectrum in spectra
        for route in (sp.classify_brute_force, sp.exceptions_from_equations)
        for p in route(spectrum)
    ]
    # every shape the encoder meets: each subtype and none, tagged points,
    # one representation or several, sums past 64 bits
    assert {p.subtype for p in points} == {None, *sp.ExceptionKind}
    assert {p.kind for p in points} == set(sp.PointKind)
    assert any(p.family_tags for p in points)
    assert {1, 2} < {len(p.reps) for p in points}
    assert min(p.point for p in points) < -(2**63)
    head, tail = '{\n  "points": [\n    ', "\n  ]\n}"
    for p in points:
        text = json.dumps({"points": [_point_tree(p)]}, sort_keys=True, indent=2)
        assert text.startswith(head) and text.endswith(tail)
        assert cli._point_json(p) == text[len(head) : -len(tail)]


@pytest.mark.parametrize("count", [0, 1, cli._BATCH, 2 * cli._BATCH + 1])
def test_encoded_list_is_written_as_json_dumps(count):
    items = list(range(-count, count, 2))
    parts = list(
        cli._json_parts({"a": "x", "items": cli.EncodedList(items, str), "z": [None]})
    )
    assert "".join(parts) == _dumps({"a": "x", "items": items, "z": [None]})
    # one part per plain key, per batch of items, and the closing brace
    assert len(parts) == 4 + -(-len(items) // cli._BATCH)


def test_spectrum_classify_no_exceptions(capsys):
    code, out, _ = run(capsys, "spectrum", "classify", "--lambdas", "0,1,10,100")
    payload = json.loads(out)
    assert code == 0 and payload["summary"]["exception"] == 0


def test_spectrum_classify_ratio_violation(capsys):
    code, _, err = run(capsys, "spectrum", "classify", "--lambdas", "0,1,3")
    assert code == 2 and "ratio" in err


def test_spectrum_classify_argument_validation(capsys):
    code, _, err = run(capsys, "spectrum", "classify", "--base", "5")
    assert code == 2 and "depth" in err
    code, _, err = run(
        capsys, "spectrum", "classify", "--base", "5", "--depth", "2", "--lambdas", "0,1"
    )
    assert code == 2 and "not both" in err
    code, out, err = run(capsys, "spectrum", "classify", "--lambdas", "0,1,5", "--scale", "3")
    assert code == 2 and out == "" and "not both" in err


# ---------------------------------------------------------------------------
# certify


def test_certify_equality_case(capsys):
    code, out, _ = run(capsys, "certify", "--lambdas", "0", "--coeff", "const")
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "holds"
    trial = payload["trials_run"][0]
    assert trial["verdict"] == "indeterminate" and trial["equality_case"] is True
    assert abs(trial["margin"]) <= trial["error_budget"]


def test_certify_b_above_window_fails_the_cross_row(capsys):
    # b = 7.5 lies above the paper's window (397/97, 353/53); the global rows
    # refuse it through F(1,1,0), and no other system fails
    code, out, _ = run(capsys, "certify", "--base", "4", "--depth", "4", "--b", "7.5")
    payload = json.loads(out)
    assert code == 1 and payload["verdict"] == "system infeasible"
    assert payload["trials_run"] == []
    assert "eps" not in payload and "b_interval" not in payload
    failed = [r for r in payload["system_reports"] if not r["passed"]]
    assert [r["system"] for r in failed] == ["trivial"]
    assert failed[0]["tightest_margin"] == pytest.approx(-0.4108, abs=5e-5)
    worst = min(failed[0]["instances"], key=lambda inst: inst["margin"])
    assert worst["description"] == "9(b-3)/(b-1) + 18 <= 3F(1,1,0)"


def test_certify_b_outside_paper_window_holds_without_unit_modulus(capsys):
    # with +-1 outside the spectrum every row accepts b = 7 > 353/53
    code, out, _ = run(
        capsys, "certify", "--lambdas", "0,5,22,88,274", "--b", "7", "--trials", "20"
    )
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "holds"
    assert all(r["passed"] for r in payload["system_reports"])
    assert len(payload["trials_run"]) == 20


@pytest.mark.parametrize("b", ["1", "0.5"])
def test_certify_b_at_most_one_is_a_usage_error(capsys, b):
    code, out, err = run(capsys, "certify", "--base", "4", "--depth", "4", "--b", b)
    assert code == 2 and out == "" and "weight b must exceed 1" in err


def test_certify_system_infeasible(capsys):
    # b = 4.1 lies inside the b window, yet the S4 window at +-2 is empty
    code, out, _ = run(capsys, "certify", "--base", "4", "--depth", "4", "--b", "4.1")
    payload = json.loads(out)
    assert code == 1 and payload["verdict"] == "system infeasible"
    assert payload["trials_run"] == [] and "eps" not in payload
    reports = {r["system"]: r for r in payload["system_reports"]}
    assert [s for s, r in reports.items() if not r["passed"]] == ["S4"]
    assert reports["S4"]["tightest_margin"] == pytest.approx(-0.26507, abs=1e-5)
    assert reports["S2"]["tightest_margin"] is None and not reports["S2"]["instances"]
    assert reports["S5"]["tightest_margin"] is None and not reports["S5"]["instances"]


def test_certify_bad_coefficient_file_exits_2_whatever_b(tmp_path, capsys):
    # the file is read before the system rows judge b: usage error, no report
    missing = str(tmp_path / "missing.csv")
    for extra in ((), ("--b", "1.5")):
        code, out, err = run(
            capsys, "certify", "--lambdas", "0,1,4,13,40,121,364", "--coeff", missing, *extra
        )
        assert code == 2 and out == "" and "cannot read coefficient file" in err


def test_certify_random_trials_hold(capsys):
    code, out, _ = run(
        capsys, "certify", "--base", "5", "--depth", "4", "--trials", "4", "--seed", "7"
    )
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "holds"
    assert len(payload["trials_run"]) == 4
    for trial in payload["trials_run"]:
        assert trial["passed"] and trial["grouped_ok"]
        assert trial["verdict"] == "holds"
        assert trial["margin"] > trial["error_budget"]
    eps_points = {d for d, _ in payload["eps"]}
    assert eps_points == {3, -3, 15, -15, 75, -75}


def test_certify_deterministic_bytes(capsys):
    args = ("certify", "--base", "5", "--depth", "4", "--trials", "3", "--seed", "11")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def _without_descriptions(out):
    # the report with every "description" key removed, rendered as certify
    # renders json: json.dumps(sort_keys=True, indent=2) plus a newline
    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "description"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(json.loads(out)), sort_keys=True, indent=2) + "\n"


# sha256 of certify's stdout and, for json, of the same report without its
# descriptions. Both spectra reach all five systems. The second digests are
# those of the reports from before the rows read each writing's power of
# eps from one table: only the descriptions of S2 rows with a zero pair and
# the order within S4 rows moved, and no number did. Since then only the
# text of an S2 pair writing moved, from "9(..) + 9 eps" to "9(2 + eps)"
@pytest.mark.parametrize(
    "argv, digest, numbers",
    [
        (
            ("--lambdas", "0,5,22,88,274", "--trials", "60", "--seed", "2"),
            "6514546d589ac0606c6aea1c59e49c7a91d3f146c7c713849c16f03013df52d8",
            "346dff9c0fdadb69f03dc094476ee054e2c07f68c033550a7126689715dbfc3e",
        ),
        (
            ("--lambdas", "0,5,20,70,222", "--trials", "60", "--format", "csv"),
            "cf877dde81f1abe011b1615d1b932962d1c67b327e3818b3eaa29fd35db5107f",
            None,
        ),
        # the benchmark's two certify commands at seed 0
        (
            ("--base", "4", "--depth", "5", "--trials", "400", "--seed", "0"),
            "30595a8c0333d9a1ecd42e578084500c5b2518f26e3576763c83ab73607b2ead",
            "d7cf1512e08ba9d0df1dbff4b937b50e7e836686df655b0cf438da826cf3d8df",
        ),
        (
            ("--lambdas", "0,1,4,13,40,121,364", "--trials", "20", "--seed", "0"),
            "8d4bcf750904799c37fc6aff9503fed4f00c99f383efaca5bc7624d0c0eb0e4b",
            "161a49180f658eef824fd39050f1c241d1620754dfc381bd76863e86fcda0e73",
        ),
    ],
    ids=["json", "csv", "certify-trials", "certify-wide"],
)
def test_certify_five_system_bytes(capsys, argv, digest, numbers):
    code, out, _ = run(capsys, "certify", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if numbers is not None:
        assert hashlib.sha256(_without_descriptions(out).encode()).hexdigest() == numbers


def test_certify_wide_names_the_lower_end_first(capsys):
    # every eps row names the writing that bounds eps below first, and a
    # pair's or zero pair's row names every flat term it checks
    code, out, _ = run(
        capsys, "certify", "--lambdas", "0,1,4,13,40,121,364", "--trials", "1", "--seed", "0"
    )
    rows = {
        (r["system"], i["point"]): i["description"]
        for r in json.loads(out)["system_reports"]
        for i in r["instances"]
    }
    assert code == 0
    assert rows["S4", 2] == (
        "9(2 + 1/eps) <= 3F(1,1,4) [F_lo=17.2539]; "
        "9(b+1)/(b-1) + 9(1+eps) <= 3F(1,1,0) [F_lo=7.9400]"
    )
    assert rows["S2", 242] == (
        "15 + 6/eps <= F(364, 121, 1) [F_lo=1718.4207]; "
        "9(b+1)/(b-1) + 9(1+eps) <= 3F(121,121,0) [F_lo=278.3046]"
    )
    assert rows["S2", -243] == (
        "15 + 6/eps <= F(364, 121, 0) [F_lo=1652.6255]; "
        "9(2 + eps) <= 3F(121,121,1) [F_lo=269.2163]"
    )


# sha256 of the stdout of the benchmark's other three commands
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("integrals", "tilde", "1", "0", "0", "--order-cap", "40", "--format", "json"),
            "9b1f7960d8dd14798b0f60ba1a1480d33fb73151be5faa7874bffcdfe1f72a44",
        ),
        (
            ("integrals", "sweep", "--suite", "bounds-f", "--n-max", "8", "--format", "json"),
            "f3ba661d8fe0875e29b4a7f1184eede93b2f19e79b3fd438efb4ae74ceadec81",
        ),
        (
            ("spectrum", "classify", "--base", "5", "--depth", "40", "--cross-check"),
            "275fe92e1c3c7c932268108eafd9eae44fd2000a1dc9699f47890a61a98e1344",
        ),
    ],
    ids=["tilde", "sweep", "classify-deep"],
)
def test_benchmark_command_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_certify_threads_do_not_change_output(capsys):
    base = ("certify", "--base", "5", "--depth", "4", "--trials", "3", "--seed", "2")
    _, out1, _ = run(capsys, *base, "--threads", "1")
    _, out2, _ = run(capsys, *base, "--threads", "2")
    assert out1 == out2


def test_certify_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "certify", "--base", "4", "--depth", "4", "--trials", "-3")
    assert code == 2 and out == "" and "trials" in err


@pytest.mark.parametrize(
    "extra",
    [
        ("--b", "nan"),
        ("--b", "inf"),
        # the b check would fail before any integral validates r_max
        ("--b", "7.5", "--r-max", "inf"),
        ("--r-max", "nan"),
    ],
)
def test_certify_rejects_non_finite_numbers(capsys, extra):
    # json has no NaN or Infinity, so these must never reach a report
    code, out, err = run(capsys, "certify", "--base", "5", "--depth", "2", *extra)
    assert code == 2 and out == "" and "finite" in err


def test_certify_holds_where_a_denominator_interval_straddles_zero(capsys):
    # F(512,8,1) and F(512,1,0) have den.lo <= 0 at the default r_max
    code, out, err = run(capsys, "certify", "--base", "8", "--depth", "4", "--trials", "20")
    assert code == 0 and err == ""
    assert json.loads(out)["verdict"] == "holds"


def test_certify_rejects_zero_trials_without_coeff(capsys):
    # no vector would be checked, so no verdict may be printed
    code, out, err = run(capsys, "certify", "--base", "4", "--depth", "4", "--trials", "0")
    assert code == 2 and out == "" and "trials" in err and "--coeff" in err
    code, out, _ = run(
        capsys, "certify", "--base", "4", "--depth", "4", "--trials", "0", "--coeff", "const"
    )
    assert code == 0 and json.loads(out)["verdict"] == "holds"


def test_certify_runs_each_stage_once(monkeypatch, capsys):
    from lacuna import certificate as ct

    calls = collections.Counter()

    def counted(name):
        original = getattr(ct, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(ct, name, wrapper)

    names = (
        "assemble_forms", "evaluate_forms", "compute_S_exact", "compute_S_upper_bound",
        "verify_theorem", "check_systems", "classify_brute_force",
    )
    for name in names:
        counted(name)
    ct._exceptions.cache_clear()
    code, _, _ = run(
        capsys, "certify", "--base", "5", "--depth", "4", "--trials", "6", "--seed", "7"
    )
    assert code == 0
    # both forms are built once; no trial walks the literal sums
    assert calls["assemble_forms"] == calls["evaluate_forms"] == 1
    assert calls["compute_S_exact"] == calls["compute_S_upper_bound"] == 0
    assert calls["verify_theorem"] == 0
    assert calls["check_systems"] == 1
    assert calls["classify_brute_force"] <= 1


def test_certify_support_past_the_literal_cap(capsys):
    # 13 elements: past MAX_SUPPORT of the literal sums, within the forms
    code, out, _ = run(
        capsys, "certify", "--lambdas", "0,1,4,13,40,121,364", "--coeff", "const"
    )
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "holds"
    [trial] = payload["trials_run"]
    assert len(trial["support"]) == 13
    assert trial["passed"] and trial["grouped_ok"] and trial["verdict"] == "holds"
    assert trial["margin"] > trial["error_budget"]


def test_certify_coefficient_file(tmp_path, capsys):
    path = tmp_path / "coeff.csv"
    path.write_text("n,re,im\n1,1.0,0.0\n-1,1.0,0.0\n")
    code, out, _ = run(
        capsys, "certify", "--lambdas", "0,1,5,25,125", "--coeff", str(path)
    )
    payload = json.loads(out)
    assert code == 0
    trial = payload["trials_run"][0]
    assert trial["support"] == [-1, 1]
    assert trial["s_exact"] == pytest.approx(2.096621516760595, rel=1e-9)
    assert trial["margin"] == pytest.approx(0.5978409167803687, rel=1e-6)


def test_certify_coefficient_file_validation(tmp_path, capsys):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("freq,re,im\n1,1,0\n")
    code, _, err = run(
        capsys, "certify", "--lambdas", "0,1,5", "--coeff", str(bad_header)
    )
    assert code == 2 and "header" in err
    off_spectrum = tmp_path / "off.csv"
    off_spectrum.write_text("n,re,im\n2,1,0\n")
    code, _, err = run(
        capsys, "certify", "--lambdas", "0,1,5", "--coeff", str(off_spectrum)
    )
    assert code == 2 and "not a spectrum element" in err
    # a file with no nonzero amplitude checks no vector, so no verdict
    for body in ("n,re,im\n", "n,re,im\n1,0,0\n"):
        zero = tmp_path / "zero.csv"
        zero.write_text(body)
        code, out, err = run(capsys, "certify", "--lambdas", "0,1,5", "--coeff", str(zero))
        assert code == 2 and out == "" and "no nonzero amplitude" in err
    # past the amplitude box mass^3 overflows, or S, the bound and mass^3
    # underflow to 0 and read as "fails": both are refused before any sum
    for name, body in (
        ("huge", "n,re,im\n1,1e60,0\n"),
        ("tiny", "n,re,im\n1,1e-60,0\n4,1e-60,0\n"),
    ):
        path = tmp_path / f"{name}.csv"
        path.write_text(body)
        code, out, err = run(
            capsys, "certify", "--base", "4", "--depth", "3", "--coeff", str(path)
        )
        assert code == 2 and out == "" and "largest amplitude modulus" in err, name
    edge = tmp_path / "edge.csv"
    edge.write_text("n,re,im\n1,1e-40,0\n4,1e-40,0\n")
    code, out, _ = run(capsys, "certify", "--base", "4", "--depth", "3", "--coeff", str(edge))
    assert code == 0 and json.loads(out)["verdict"] == "holds"


def test_certify_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "certify", "--lambdas", "0", "--coeff", "const", "--output", str(target),
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["schema"] == "lacuna-verify/1"


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(
        capsys, "bessel", "eval", "-n", "1", "-x", "1", "--output", str(target)
    )
    assert code == 2 and out == "" and "cannot write report" in err
    assert not target.exists()


def test_thread_count_validation(capsys):
    code, _, err = run(capsys, "bessel", "eval", "-n", "0", "-x", "1", "--threads", "0")
    assert code == 2 and "threads" in err


def test_main_restores_the_callers_gc_state(monkeypatch, capsys):
    def broken(args):
        raise CertificateError("lost accuracy")

    assert gc.isenabled()
    assert run(capsys, "bessel", "eval", "-n", "0", "-x", "1")[0] == 0
    assert gc.isenabled()
    assert run(capsys, "bessel", "eval", "-n", "0", "-x", "1", "--threads", "0")[0] == 2
    assert gc.isenabled()
    monkeypatch.setattr(cli, "cmd_bessel_eval", broken)
    assert run(capsys, "bessel", "eval", "-n", "0", "-x", "1")[0] == 1
    assert gc.isenabled()
    gc.disable()
    try:
        assert run(capsys, "bessel", "eval", "-n", "0", "-x", "1", "--threads", "0")[0] == 2
        assert not gc.isenabled()
    finally:
        gc.enable()


# a fresh interpreter runs the command and reports whether scipy and the
# certificate got loaded
_PROBE = (
    "import sys\n"
    "import lacuna.cli\n"
    "code = lacuna.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "sys.stderr.write(f'scipy loaded: {\"scipy\" in sys.modules}, '\n"
    "                 f'certificate loaded: {\"lacuna.certificate\" in sys.modules}')\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("spectrum", "classify", "--base", "5", "--depth", "3"),
        ("integrals", "tilde", "1", "0", "0", "--order-cap", "8"),
        ("integrals", "direct", "1", "1", "0", "0", "1", "1"),
        ("integrals", "sweep", "--suite", "bounds-f", "--n-max", "3"),
        ("certify", "--base", "4", "--depth", "3", "--trials", "2"),
    ],
    ids=["import", "classify", "tilde", "direct", "sweep", "certify"],
)
def test_no_command_imports_scipy(tmp_path, argv):
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(lacuna.__file__).resolve().parents[1]),
    }
    command = [sys.executable, "-c", _PROBE]
    if argv:
        command += [*argv, "--output", str(tmp_path / "report")]
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # only certify runs the certificate, so only certify imports it
    loaded = argv[:1] == ("certify",)
    assert proc.stderr == f"scipy loaded: False, certificate loaded: {loaded}"


def test_closed_stdout_keeps_the_exit_code(tmp_path):
    # the report is far larger than a pipe buffer, so the child is still
    # writing when the reader closes the pipe after one line
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(lacuna.__file__).resolve().parents[1]),
    }
    argv = ["spectrum", "classify", "--base", "5", "--depth", "12"]
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "lacuna.cli", *argv],
            stdout=subprocess.PIPE, stderr=err, env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        err.seek(0)
        assert err.read() == b""


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lacuna.cli", "bessel", "eval", "-n", "1", "-x", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.strip()) == pytest.approx(0.4400505857449335, rel=1e-12)


# ---------------------------------------------------------------------------
# every leaf command in every format

_TRIPLE = ["k", "m", "n", "value", "error", "method"]
_LEAVES = [
    (("bessel", "eval", "-n", "1", "-x", "1"), ["n", "x", "value"], 0),
    (("bessel", "zeros", "-c", "3"), ["r", "zero"], 0),
    (("integrals", "F", "1", "0", "0"), _TRIPLE, 0),
    (("integrals", "copt"), _TRIPLE, 0),
    (("integrals", "tilde", "1", "0", "0"), _TRIPLE, 0),
    (
        ("integrals", "direct", "1", "1", "0", "0", "1", "1"),
        ["n1", "n2", "n3", "n4", "n5", "n6", "value", "error", "method"],
        0,
    ),
    (
        # at r_max 4000 the pair-zero family fails, so the suite exits 1
        (
            "integrals", "sweep", "--suite", "bounds-f",
            "--n-max", "3", "--r-max", "4000",
        ),
        ["family", "threshold", "worst_point", "worst_lo", "margin", "status"],
        1,
    ),
    (
        ("spectrum", "classify", "--base", "5", "--depth", "3", "--cross-check"),
        ["D", "class", "subtype", "families", "reps", "boundary_safe"],
        0,
    ),
    (
        ("certify", "--base", "5", "--depth", "3", "--trials", "2"),
        [
            "index", "source", "support", "s_exact", "upper_bound", "grouped_ok",
            "verdict", "margin", "error_budget", "equality_case", "passed",
        ],
        0,
    ),
]


def _leaf_id(argv: tuple[str, ...]) -> str:
    return " ".join(w for w in argv[:2] if not w.startswith("-"))


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "argv, header, expected_code", _LEAVES, ids=[_leaf_id(a) for a, _, _ in _LEAVES]
)
def test_every_command_renders_every_format(capsys, argv, header, expected_code, fmt):
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == expected_code
    if fmt == "json":
        assert json.loads(out)["schema"] == "lacuna-verify/1"
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == header and len(rows) > 1
        assert all(len(row) == len(header) for row in rows)
    else:
        assert out.strip() and out.endswith("\n") and not out.endswith("\n\n")


# no command keeps state between runs, so none takes --no-cache
@pytest.mark.parametrize(
    "argv", [a for a, _, _ in _LEAVES], ids=[_leaf_id(a) for a, _, _ in _LEAVES]
)
def test_no_cache_is_refused_by_every_command(capsys, argv):
    _assert_refused(capsys, argv, "--no-cache")


# the proven error bound is the only accuracy setting, so no command takes --tol
@pytest.mark.parametrize(
    "argv", [a for a, _, _ in _LEAVES], ids=[_leaf_id(a) for a, _, _ in _LEAVES]
)
def test_tol_is_refused_by_every_command(capsys, argv):
    _assert_refused(capsys, argv, "--tol", "1e-6")


def _assert_refused(capsys, argv, *flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# one fresh interpreter runs each [argv, report path] job given as json, printing the exit codes
_RUN_ALL = (
    "import json, sys\n"
    "import lacuna.cli\n"
    "jobs = json.loads(sys.argv[1])\n"
    "print(json.dumps([lacuna.cli.main([*argv, '--output', out]) for argv, out in jobs]))\n"
)
_SWEEP8 = ("integrals", "sweep", "--suite", "bounds-f", "--n-max", "8", "--format", "json")


def test_nothing_is_written_outside_output(tmp_path):
    home, cache, reports = (tmp_path / name for name in ("home", "cache", "reports"))
    for d in (home, cache, reports):
        d.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(lacuna.__file__).resolve().parents[1]),
        "HOME": str(home),
        "LACUNA_CACHE_DIR": str(cache),
    }

    def run_all(*argvs):
        jobs = [[list(argv), str(reports / f"{i}.out")] for i, argv in enumerate(argvs)]
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_ALL, json.dumps(jobs)],
            capture_output=True, text=True, env=env, cwd=reports,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout), [Path(out).read_bytes() for _, out in jobs]

    tilde5 = ("integrals", "tilde", "1", "0", "0", "--order-cap", "5")
    codes, outputs = run_all(*(argv for argv, _, _ in _LEAVES), tilde5, _SWEEP8)
    assert codes == [code for _, _, code in _LEAVES] + [0, 0]
    assert list(home.iterdir()) == [] and list(cache.iterdir()) == []
    assert outputs[-2] == (
        b"k,m,n,value,error,method\n1,0,0,0.06734252275225588,0.01,quadrature_lemma8\n"
    )
    # wrong values where earlier versions kept this sweep between runs
    junk = np.full((9, 9, 9), 1.0e3)
    np.savez(cache / "sweep_v6_8_40000_10_0.78539816339744828.npz", direct=junk)
    _, [again] = run_all(_SWEEP8)
    assert again == outputs[-1]


# ---------------------------------------------------------------------------
# the json writer


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


_JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, float("nan"), float("inf"), float("-inf")]),
)
_JSON_STRINGS = st.one_of(st.text(), st.sampled_from(["", "\x00\x1f\"\\/\t", "é€😀\u2028"]))
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    _JSON_FLOATS,
    _JSON_FLOATS.map(np.float64),  # a float subclass, as numpy results are
    _JSON_STRINGS,
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_JSON_STRINGS, kids, max_size=4),
    ),
    max_leaves=24,
)


def _written(value) -> str:
    # the value at depth 1, beside an EncodedList, as a report carries it
    return "".join(cli._json_parts({"a": value, "items": cli.EncodedList([1, 2], str)}))


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_json_writer_is_json_dumps(tree):
    assert _written(tree) == _dumps({"a": tree, "items": [1, 2]})


def test_json_writer_rejects_what_json_rejects():
    for bad in (object(), np.int64(1), {"a": {1, 2}}, [1j], {(1, 2): 0}):
        with pytest.raises(TypeError):
            _dumps(bad)
        with pytest.raises(TypeError):
            _written(bad)
