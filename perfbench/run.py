"""Benchmark of the lacuna-verify command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload certify-trials --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one line each
    python3 perfbench/run.py --record                # rewrite perfbench/expected.json

A repetition runs the workload's commands as fresh ``python -m lacuna.cli``
child processes, one at a time (closed loop), each with ``--threads 1`` and
a new empty ``LACUNA_CACHE_DIR``. Repetitions are repeated for ``--seconds``
and the end-to-end metrics are their medians. Every output is checked
against ``expected.json``, recorded from the seed commit.

With ``--trace 1`` untraced and traced repetitions alternate; a traced
repetition runs each command under ``perfbench/traced.py``, which wraps the
public layer functions from outside the program, and the per-layer metrics
come from its spans. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACED_PY = HERE / "traced.py"

DEFAULT_SEED = 0
MIN_REPS = 3            # a median of at least three repetitions
SETUP_REPS = 7          # interpreter starts timed for setup_s
DEADLINE_S = 170.0      # a run must exit within 180 s
UNIT_ROUNDOFF = 2.0**-53
GAUGE_WINDOW_S = 0.8    # speed-gauge sampling before setup and after each repetition
REFERENCE_PASS_S = 0.020  # gauge pass time on the 2-vCPU Xeon host the figures were set on

sys.path.insert(0, str(HERE))
from traced import TRACED  # noqa: E402

CERTIFY_TRIALS = {"certify-trials": 400, "certify-wide": 20}


def _commands(workload: str, seed: int) -> list[list[str]]:
    if workload == "certify-trials":
        cmds = [["certify", "--base", "4", "--depth", "5", "--trials", "400", "--seed", str(seed)]]
    elif workload == "certify-wide":
        cmds = [
            ["certify", "--lambdas", "0,1,4,13,40,121,364", "--trials", "20", "--seed", str(seed)]
        ]
    elif workload == "cold-cache":
        cmds = [
            ["integrals", "tilde", "1", "0", "0", "--order-cap", "40", "--format", "json"],
            ["integrals", "sweep", "--suite", "bounds-f", "--n-max", "8", "--format", "json"],
        ]
    elif workload == "classify-deep":
        cmds = [["spectrum", "classify", "--base", "5", "--depth", "40", "--cross-check"]]
    else:
        raise ValueError(workload)
    return [cmd + ["--threads", "1"] for cmd in cmds]


WORKLOADS = ("certify-trials", "certify-wide", "cold-cache", "classify-deep")


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Proc:
    returncode: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Rep:
    procs: list[Proc]
    wall: float
    spans: list[list[dict]] = field(default_factory=list)

    @property
    def cpu(self) -> float:
        return sum(p.cpu for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)


class Runner:
    """Launches children with an isolated environment under one scratch dir."""

    def __init__(self, scratch: Path, deadline: float) -> None:
        self.scratch = scratch
        self.deadline = deadline

    def _env(self, cache: Path) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["LACUNA_CACHE_DIR"] = str(cache)
        env["TMPDIR"] = str(self.scratch)
        # serial BLAS: the child stays on the harness's one CPU and cpu_s
        # is the cost of serial work
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        return env

    def launch(self, argv: list[str], cache: Path) -> Proc:
        with tempfile.TemporaryFile(dir=self.scratch) as out, tempfile.TemporaryFile(dir=self.scratch) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=out, stderr=err, env=self._env(cache), cwd=ROOT
            )
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Proc(
                returncode=proc.returncode,
                wall=wall,
                cpu=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0,
                stdout=out.read(),
                stderr=err.read(),
            )

    def rep(self, commands: list[list[str]], traced: bool) -> Rep:
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        procs, span_paths = [], []
        start = time.perf_counter()
        for cmd in commands:
            if traced:
                span_paths.append(cache / f"spans-{len(procs)}.jsonl")
                procs.append(self.launch([str(TRACED_PY), str(span_paths[-1]), *cmd], cache))
            else:
                procs.append(self.launch(["-m", "lacuna.cli", *cmd], cache))
        wall = time.perf_counter() - start
        spans = [_read_spans(p) for p in span_paths]
        shutil.rmtree(cache)
        for p in procs:
            if p.returncode != 0:
                sys.stderr.write(p.stderr.decode("utf-8", "replace")[-2000:])
        return Rep(procs, wall, spans)

    def setup_seconds(self) -> float:
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        walls = []
        for _ in range(SETUP_REPS):
            proc = self.launch(["-c", "import lacuna.cli"], cache)
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: cannot import lacuna.cli:\n{proc.stderr.decode()}")
            walls.append(proc.wall)
        shutil.rmtree(cache)
        return statistics.median(walls)


def _read_spans(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# output checks: each returns (attempted, failed, relative error of the report)


def certify_summary(report: dict) -> dict:
    """Parts of a certify report fixed by the spectrum alone."""
    return {
        "systems": [
            [r["system"], len(r["instances"]), sorted(i["point"] for i in r["instances"] if i["point"] is not None)]
            for r in report["system_reports"]
        ],
        "eps_points": [d for d, _ in report["eps"]],
    }


def check_certify(workload, procs, seed, expected):
    trials = CERTIFY_TRIALS[workload]
    exp = expected[workload]
    proc = procs[0]
    try:
        report = json.loads(proc.stdout)
        rows = report["trials_run"]
        if not (
            proc.returncode == 0
            and report["verdict"] == "holds"
            and len(rows) == trials
            and certify_summary(report) == exp["summary"]
        ):
            return trials, trials, None
        ok = [t["passed"] for t in rows]
        if seed == DEFAULT_SEED:
            for i, (t, (s, budget)) in enumerate(zip(rows, exp["intervals"])):
                if abs(t["s_exact"] - s) > t["error_budget"] + budget:
                    ok[i] = False
        err = statistics.median(t["error_budget"] / (t["s_exact"] + t["margin"]) for t in rows)
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        return trials, trials, None
    return trials, ok.count(False), err


def check_cold(workload, procs, seed, expected):
    exp = expected[workload]
    tilde_proc, sweep_proc = procs
    failed, err = 0, None
    try:
        tilde = json.loads(tilde_proc.stdout)
        err = tilde["error"] / tilde["value"]
        if tilde_proc.returncode != 0 or abs(tilde["value"] - exp["tilde"]["value"]) > (
            tilde["error"] + exp["tilde"]["error"]
        ):
            failed += 1
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        failed += 1
    try:
        sweep = json.loads(sweep_proc.stdout)
        rows = sweep["rows"]
        good = sweep_proc.returncode == 0 and sweep["passed"] is True and len(rows) == len(exp["rows"])
        for row, ref in zip(rows, exp["rows"]):
            good = good and (
                [row["family"], row["worst_point"], row["status"]]
                == [ref["family"], ref["worst_point"], ref["status"]]
                and abs(row["worst_lo"] - ref["worst_lo"]) <= ref["worst_lo_tol"]
            )
        failed += 0 if good else 1
    except (ValueError, KeyError, TypeError):
        failed += 1
    return 2, failed, err


def check_classify(workload, procs, seed, expected):
    exp = expected[workload]
    proc = procs[0]
    good = (
        proc.returncode == 0
        and b'"cross_check": "ok"' in proc.stdout
        and hashlib.sha256(proc.stdout).hexdigest() == exp["sha256"]
    )
    return 1, 0 if good else 1, None


CHECKS = {
    "certify-trials": check_certify,
    "certify-wide": check_certify,
    "cold-cache": check_cold,
    "classify-deep": check_classify,
}


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(rep: Rep, trials: int) -> dict[str, tuple[float, str]]:
    names = [f"{m}.{f}" for m, fns in TRACED.items() for f in fns]
    calls = dict.fromkeys(names, 0)
    incl = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    keys: dict[str, list] = defaultdict(list)
    for spans in rep.spans:
        child = [0.0] * len(spans)
        for sp in spans:
            if sp["parent"] is not None:
                child[sp["parent"]] += sp["end"] - sp["start"]
        for sp, covered in zip(spans, child):
            name, dur = sp["name"], sp["end"] - sp["start"]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - covered
            if "key" in sp:
                keys[name].append(json.dumps(sp["key"]))
    out: dict[str, tuple[float, str]] = {}
    for name in names:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (incl[name], "s")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for module, fns in TRACED.items():
        out[f"{module}.self_s"] = (sum(self_s[f"{module}.{f}"] for f in fns), "s")
    per_vec = 1.0 / trials if trials else 0.0
    out["certificate.S_per_vector"] = (calls["certificate.compute_S_exact"] * per_vec, "count")
    out["certificate.ms_per_vector"] = (out["certificate.self_s"][0] * 1e3 * per_vec, "ms")
    for name in ("integrals.i_direct", "spectrum.classify_brute_force"):
        n = calls[name]
        out[f"{name}.unique_frac"] = (len(set(keys[name])) / n if n else 0.0, "frac")
    proc_wall = sum(p.wall for p in rep.procs)
    out["trace.coverage_frac"] = (incl["cli.main"] / proc_wall, "frac")
    return out


# ---------------------------------------------------------------------------
# one benchmark run


def provenance() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        **versions,
    }


def _reference_pass() -> int:
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return s


class SpeedGauge:
    """Times a fixed pure-Python loop between repetitions, in this process.

    The shared host this benchmark was written on drifts in speed by
    +-15% over minutes, and the drift moves every timing of a run alike.
    Timings are scaled by REFERENCE_PASS_S / (mean pass time seen in the
    run), so they read as seconds on a host running the pass in
    REFERENCE_PASS_S. The program never runs in this loop, so a change to
    the program cannot move the scale.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []

    def sample(self) -> None:
        end = time.perf_counter() + GAUGE_WINDOW_S
        while time.perf_counter() < end:
            t = time.perf_counter()
            _reference_pass()
            self.passes.append(time.perf_counter() - t)

    @property
    def pass_s(self) -> float:
        return statistics.fmean(self.passes)

    @property
    def scale(self) -> float:
        return REFERENCE_PASS_S / self.pass_s


def run_workload(workload: str, seed: int, seconds: float, trace: bool, runner: Runner, expected: dict) -> dict:
    commands = _commands(workload, seed)
    check = CHECKS[workload]
    trials = CERTIFY_TRIALS.get(workload, 0)
    gauge = SpeedGauge()
    gauge.sample()
    setup = None if trace else runner.setup_seconds()

    plain: list[Rep] = []
    traced: list[Rep] = []
    attempted = failed = 0
    errs: list[float] = []
    start = time.perf_counter()
    while True:
        for is_traced in (False, True) if trace else (False,):
            rep = runner.rep(commands, is_traced)
            (traced if is_traced else plain).append(rep)
            a, f, e = check(workload, rep.procs, seed, expected)
            attempted, failed = attempted + a, failed + f
            if e is not None:
                errs.append(e)
        gauge.sample()
        elapsed = time.perf_counter() - start
        last = sum(r.wall for r in (plain[-1], *traced[-1:]))
        enough = len(plain) >= (1 if trace else MIN_REPS)
        if enough and (elapsed + last > seconds or time.monotonic() + 2 * last > runner.deadline):
            break

    scale = gauge.scale
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        per_rep = [layer_metrics(r, trials) for r in traced]
        for name, (_, unit) in per_rep[0].items():
            value = statistics.median(m[name][0] for m in per_rep)
            metrics[name] = (value * scale if unit in ("s", "ms") else value, unit)
        overhead = statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in plain)
        metrics["trace.overhead_frac"] = (overhead - 1.0, "frac")
        metrics["bench.reference_pass_ms"] = (gauge.pass_s * 1e3, "ms")
    else:
        metrics["wall_s"] = (statistics.median(r.wall for r in plain) * scale, "s")
        metrics["cpu_s"] = (statistics.median(r.cpu for r in plain) * scale, "s")
        metrics["setup_s"] = (setup * scale, "s")
        metrics["peak_rss_mb"] = (statistics.median(r.rss_mb for r in plain), "MB")
        metrics["ok_frac"] = (1.0 - failed / attempted, "frac")
        # exact results carry only the rounding of a double
        metrics["err_rel_med"] = (max(errs, default=UNIT_ROUNDOFF), "frac")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# reference outputs


def record(runner: Runner) -> dict:
    """Run every workload once at the default seed and keep its references."""
    expected: dict = {"provenance": provenance()}
    for workload in WORKLOADS:
        procs = runner.rep(_commands(workload, DEFAULT_SEED), traced=False).procs
        if any(p.returncode != 0 for p in procs):
            raise SystemExit(f"perfbench: {workload} failed while recording")
        if workload in CERTIFY_TRIALS:
            report = json.loads(procs[0].stdout)
            expected[workload] = {
                "summary": certify_summary(report),
                "intervals": [[t["s_exact"], t["error_budget"]] for t in report["trials_run"]],
            }
        elif workload == "cold-cache":
            expected[workload] = {
                "tilde": json.loads(procs[0].stdout),
                "rows": _sweep_rows_with_tolerance(json.loads(procs[1].stdout)),
            }
        else:
            expected[workload] = {"sha256": hashlib.sha256(procs[0].stdout).hexdigest()}
    return expected


def _sweep_rows_with_tolerance(report: dict) -> list[dict]:
    # The tolerance on worst_lo is the width of F's enclosure at the worst
    # point, [(num - e) / (den + e), (num + e) / (den - e)], from the sweep's
    # own error bound e.
    sys.path.insert(0, str(SRC))
    from lacuna import integrals

    cfg = report["config"]
    sweep = integrals.sweep_diagonal(cfg["n_max"], r_max=cfg["r_max"], tol=cfg["tol"], cache=False)
    e = sweep.error_bound
    num = sweep.value(0, 0, 0)
    rows = []
    for row in report["rows"]:
        den = sweep.value(*row["worst_point"])
        width = (num + e) / (den - e) - (num - e) / (den + e)
        keep = ("family", "worst_point", "worst_lo", "status")
        rows.append({**{k: row[k] for k in keep}, "worst_lo_tol": width})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="certify workloads only")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help=f"rewrite {EXPECTED.name}")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Harness, gauge and children share one CPU, so the gauge samples the
    # speed of the CPU the program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not args.record and args.workload is None:
        parser.error("need --workload or --record")
    if not (SRC / "lacuna" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'lacuna'}", file=sys.stderr)
        return 2

    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    runner = Runner(scratch, time.monotonic() + DEADLINE_S)
    try:
        if args.record:
            EXPECTED.write_text(json.dumps(record(runner), indent=1) + "\n", encoding="utf-8")
            return 0
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        print("# provenance " + json.dumps(provenance()))
        if args.workload == "all":
            results = {}
            for workload in WORKLOADS:
                runner.deadline = time.monotonic() + DEADLINE_S
                results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace), runner, expected)
                for name, m in results[workload]["metrics"].items():
                    print(f"{workload:15} {name:45} {m['value']:.6g} {m['unit']}")
            print(json.dumps(results))
        else:
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), runner, expected)))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
