#!/usr/bin/env python3
"""Benchmark of the `eop` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One client runs the workload's seeded `eop` jobs one after another (a closed
loop) for `--seconds`, then checks every job's artifacts against independent
oracles. With `--trace 0` it prints the end-to-end metrics, with every time
scaled to a reference machine speed by calibrations run between the jobs
(see "machine speed" below; the raw times are printed too); with `--trace 1`
it runs each job twice, once with every traced function wrapped (see
tracing.py) and once without, and prints the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Full results and span
dumps go to `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS, Job, jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
# In-process set-up includes a warm-up of up to seconds, so fewer samples.
SETUP_SAMPLES_IN_PROCESS = 5
SETUP_SAMPLES_COLD = 9
CHILD_TIMEOUT_S = 60
# Ten jobs beyond the tail percentile, plus the one it reads.
TAIL_BEYOND = 10
# Jobs checked with the slow mpmath.diff oracle per run.
DEEP_CHECKS = 1
# Bernoulli numbers computed by one calibration, and the time it takes at the
# reference speed (that of a 2.1 GHz Xeon vCPU, Python 3.11, unloaded).
CALIBRATION_M = 230
CALIBRATION_REF_S = 0.055


@dataclass
class JobResult:
    index: int
    job: Job
    out: Path
    wall_s: float
    error: str | None  # set when the job failed (nonzero exit or exception)
    wrong: str | None = None  # set when its output failed the check
    scale: float = 1.0  # from wall_s to seconds at the reference speed


# --- machine speed -----------------------------------------------------------
#
# On a shared host, a virtual machine's speed can change by up to 2x, in phases
# of seconds to minutes, so a timed run reads whichever phases it falls in.
# Every timing is therefore scaled to a reference speed, measured by a calibration run next to
# it: a fixed exact-rational computation (the Bernoulli recurrence on
# Fractions), the same kind of interpreter and big-integer work as the
# program's, in the benchmark's own code, so that no change to the program
# changes it.


def _calibration_s() -> float:
    """Wall time of one calibration: B_0..B_CALIBRATION_M."""
    start = time.perf_counter()
    out, row = [Fraction(1)], [1, 1]
    for j in range(1, CALIBRATION_M + 1):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        out.append(-sum(row[i] * out[i] for i in range(j) if out[i]) / (j + 1))
    return time.perf_counter() - start


def _scale(before: float, after: float) -> float:
    """Factor from seconds measured between two calibrations to seconds at
    the reference speed."""
    return 2 * CALIBRATION_REF_S / (before + after)


def _calibrated(measure) -> tuple:
    """`measure()` (seconds) between two calibrations: (raw s, scale)."""
    before = _calibration_s()
    raw = measure()
    return raw, _scale(before, _calibration_s())


# --- set-up ------------------------------------------------------------------


def _warm_up(workload) -> None:
    from eoplab import cli

    out = WORK / f"warmup-{os.getpid()}"
    try:
        for argv in workload.warmup:
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main([*argv, "--out", str(out)])
            except Exception as exc:  # no set-up, nothing to measure
                raise SystemExit(f"warm-up job {' '.join(argv)} raised {exc!r}") from exc
            if rc != 0:
                raise SystemExit(f"warm-up job {' '.join(argv)} exited {rc}")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _setup_sample(workload) -> float:
    """Fresh-process import of the CLI plus the untimed warm-up."""
    start = time.perf_counter()
    import eoplab.cli  # noqa: F401

    _warm_up(workload)
    return time.perf_counter() - start


def _setup_in_process(workload, args) -> list:
    """Set up this process, then time the same set-up in fresh processes.
    Returns (raw s, scale) pairs."""

    def child():
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
             "--seed", str(args.seed), "--setup-sample"],
            env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        return float(proc.stdout.split()[-1])

    return [_calibrated(lambda: _setup_sample(workload))] + [
        _calibrated(child) for _ in range(SETUP_SAMPLES_IN_PROCESS - 1)]


def _setup_cold() -> list:
    """Interpreter start plus `import eoplab.cli`, in fresh child processes.
    Returns (raw s, scale) pairs."""

    def child():
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import eoplab.cli"], env=CHILD_ENV,
                       cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - start

    return [_calibrated(child) for _ in range(SETUP_SAMPLES_COLD)]


# --- the closed loop -----------------------------------------------------------


def _job_in_process(index, job, out, tracer=None):
    """One job through `cli.main` in this process, traced when `tracer` is
    given."""
    from eoplab import cli

    argv = [*job.argv, "--out", str(out)]
    sink = io.StringIO()
    if tracer is not None:
        tracer.job = index
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
            error = None if rc == 0 else f"exit {rc}: {sink.getvalue().strip()[-200:]}"
        except Exception:  # the job boundary: record the failure, go on
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return JobResult(index, job, out, wall, error)


def _job_cold(index, job, out, traced=False):
    """One job in a fresh `python -m eoplab.cli` child (or, traced, in
    `tracing.py`, which installs the wrappers before it calls `cli.main`)."""
    argv = [*job.argv, "--out", str(out)]
    if traced:
        out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "tracing.py"), str(out / "spans.json"), *argv]
    else:
        cmd = [sys.executable, "-m", "eoplab.cli", *argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        error = None if proc.returncode == 0 else (
            f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        error = f"no exit within {CHILD_TIMEOUT_S} s"
    return JobResult(index, job, out, time.perf_counter() - t0, error)


def _closed_loop(run_one, job_stream, seconds, calibrated=False):
    """Run jobs one after another until `seconds` have passed. Returns the
    results and the wall time of the loop. When `calibrated`, a calibration
    runs between each two jobs, and each job's scale comes from the two
    around it."""
    results = []
    before = _calibration_s() if calibrated else None
    start = time.perf_counter()
    for index, job in enumerate(job_stream):
        if time.perf_counter() - start >= seconds:
            break
        result = run_one(index, job)
        if calibrated:
            after = _calibration_s()
            result.scale = _scale(before, after)
            before = after
        results.append(result)
    return results, time.perf_counter() - start


def _check(workload, results, seed) -> None:
    import oracles

    pick = random.Random(f"deep:{workload.name}:{seed}")
    ok = [r for r in results if r.error is None]
    candidates = [r.index for r in ok if r.job.params.get("order", 0) >= 1]
    deep = set(pick.sample(candidates, min(DEEP_CHECKS, len(candidates))))
    for r in ok:
        rng = random.Random(f"check:{workload.name}:{seed}:{r.index}")
        r.wrong = oracles.check(r.job, r.out, rng, deep=r.index in deep)


def _fit_probe(results, probe_dir) -> list:
    """`eop fit` on the CSV of the first gamma and the first euler job."""
    from eoplab import cli

    outcomes = []
    for kind in ("gamma", "euler"):
        source = next((r for r in results if r.job.kind == kind and r.error is None), None)
        if source is None:
            continue
        stem = "gamma_approx" if kind == "gamma" else "euler_approx"
        argv = ["fit", "--input", str(source.out / f"{stem}.csv"), "--out", str(probe_dir)]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
            outcomes.append(None if rc == 0 else f"exit {rc}")
        except Exception:  # the defect being probed raises here
            outcomes.append(traceback.format_exc())
    return outcomes


# --- metrics -----------------------------------------------------------------


def _tail(times):
    """The highest percentile that still has TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def _end_to_end(results, wall, setup, peak_rss_mb):
    """Times at the reference speed, with the raw wall times in the notes."""
    ok = [r for r in results if r.error is None and r.wrong is None]
    passed = [r.wall_s * r.scale for r in ok]
    raw = [r.wall_s for r in ok]
    busy = sum(r.wall_s * r.scale for r in results)
    tail, pct, beyond = _tail(passed)
    metrics = {
        "jobs_per_s": (len(passed) / busy, "1/s"),
        "job_s.p50": (statistics.median(passed), "s"),
        "job_s.tail": (tail, "s"),
        "setup_s": (statistics.median(s * k for s, k in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    n = len(results)
    notes = {
        "jobs_per_s": f"{len(passed)} passed of {n} attempted in {busy:.3f} s of job time; "
                      f"raw {len(passed) / wall:.4f} over the {wall:.3f} s window",
        "job_s.p50": f"raw {statistics.median(raw):.4f}",
        "job_s.tail": f"p{pct:.1f}, {beyond} of {len(passed)} passed jobs beyond it; "
                      f"raw {_tail(raw)[0]:.4f}",
        "setup_s": "median of " + ", ".join(f"{s * k:.4f}" for s, k in setup)
                   + "; raw " + ", ".join(f"{s:.4f}" for s, _ in setup),
    }
    return metrics, notes


def _ratios(results):
    n = max(1, len(results))
    failed = sum(r.error is not None for r in results)
    wrong = sum(r.wrong is not None for r in results)
    return {
        "fail_ratio": (failed / n, "ratio", f"{failed} of {n}"),
        "wrong_ratio": (wrong / n, "ratio", f"{wrong} of {n}"),
    }


def _child_spans(results):
    """Merge the span dumps of traced child processes into one trace."""
    from tracing import merge_counts

    spans, errors, counts = [], Counter(), Counter()
    startup = {}
    for r in results:
        path = r.out / "spans.json"
        if not path.exists():
            continue
        dump = json.loads(path.read_text(encoding="utf-8"))
        base = len(spans)
        roots = 0.0
        for name, start, end, parent, _ in dump["spans"]:
            spans.append([name, start, end, parent + base if parent >= 0 else -1, r.index])
            if parent < 0:
                roots += end - start
        startup[r.index] = r.wall_s - roots
        errors.update(dump["errors"])
        merge_counts(counts, dump["counts"])
        path.unlink()
    return spans, errors, counts, startup


def _per_layer(results, spans, errors, counts, startup, overhead):
    from tracing import SPAN_NAMES, STARTUP, self_times

    walls = {r.index: r.wall_s for r in results}
    total = sum(walls.values())
    n = len(results)
    busy, calls = defaultdict(float), Counter()
    for span, self_s in zip(spans, self_times(spans)):
        busy[span[0]] += self_s
        calls[span[0]] += 1
    busy[STARTUP] = sum(startup.values())
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_pct"] = (100.0 * busy[name] / total, "%")
        if name != "cli.main":
            metrics[f"{name}.calls"] = (calls[name] / n, "1/job")
        metrics[f"{name}.errors"] = (errors[name], "count")
    written = sum(f.stat().st_size for r in results if r.out.is_dir()
                  for f in r.out.iterdir())
    metrics[f"{STARTUP}.self_pct"] = (100.0 * busy[STARTUP] / total, "%")
    metrics["cli.bytes_written"] = (written / n, "B/job")
    metrics["holonomic.unroll.terms"] = (counts["holonomic.unroll.terms"] / n, "1/job")
    metrics["numcore.bernoulli.max_k"] = (counts["numcore.bernoulli.max_k"], "count")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    top = sorted(((s, name) for name, s in busy.items()), reverse=True)[:3]
    return metrics, top


# --- environment and output ----------------------------------------------------


def _environment():
    import mpmath

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def _print_metrics(metrics, notes=None):
    for name, (value, unit) in metrics.items():
        note = (notes or {}).get(name)
        print(f"  {name:40s} {value:>14.6g} {unit}" + (f"  ({note})" if note else ""))


def _timed(workload, args, run_dir):
    """The untraced run: results, wall time, set-up samples, peak RSS (MB)."""
    _calibration_s()  # untimed: the first run of any code is slower
    if workload.in_process:
        setup = _setup_in_process(workload, args)
        run_one, who = _job_in_process, resource.RUSAGE_SELF
    else:
        setup = _setup_cold()
        run_one, who = _job_cold, resource.RUSAGE_CHILDREN
    results, wall = _closed_loop(lambda i, job: run_one(i, job, run_dir / f"j{i}"),
                                 jobs(workload, args.seed), args.seconds, calibrated=True)
    return results, wall, setup, resource.getrusage(who).ru_maxrss / 1024


def _traced(workload, args, run_dir):
    """The traced run. Each job runs twice in a row, traced and untraced (in
    alternating order), so that the overhead ratio compares the same jobs
    under the same machine conditions. Returns the traced results and the
    inputs of _per_layer."""
    from tracing import Tracer

    if workload.in_process:
        _setup_sample(workload)
        tracer = Tracer()

    def run_one(index, job, on):
        out = run_dir / ("traced" if on else "untraced") / f"j{index}"
        if workload.in_process:
            return _job_in_process(index, job, out, tracer if on else None)
        return _job_cold(index, job, out, traced=on)

    untraced = []

    def pair(index, job):
        first = index % 2 == 0
        result = run_one(index, job, first)
        other = run_one(index, job, not first)
        traced, plain = (result, other) if first else (other, result)
        untraced.append(plain)
        return traced

    results, _ = _closed_loop(pair, jobs(workload, args.seed), args.seconds)
    if workload.in_process:
        trace = tracer.spans, tracer.errors, tracer.counts, {}  # no child start-up
    else:
        trace = _child_spans(results)
    overhead = sum(r.wall_s for r in results) / sum(r.wall_s for r in untraced) - 1
    return results, (*trace, overhead)


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            results, layer_inputs = _traced(workload, args, run_dir)
        else:
            results, wall, setup, peak_rss_mb = _timed(workload, args, run_dir)
        _check(workload, results, args.seed)
        probe = _fit_probe(results, run_dir / "fit") if workload.name == "seq-all" else []

        env = _environment()
        print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env,
                  "jobs": [{"argv": list(r.job.argv), "wall_s": r.wall_s, "scale": r.scale,
                            "error": r.error, "wrong": r.wrong} for r in results]}
        passed = sum(r.error is None and r.wrong is None for r in results)
        problems = []
        if not passed:
            metrics = {}
        elif args.trace:
            from tracing import check_job_accounting

            spans = layer_inputs[0]
            walls = {r.index: r.wall_s for r in results}
            problems = check_job_accounting(spans, walls)
            metrics, top = _per_layer(results, *layer_inputs)
            _print_metrics(metrics)
            print("  largest self time: " + "; ".join(
                f"{name} {s:.3f} s ({100 * s / sum(walls.values()):.1f}%)" for s, name in top))
            for problem in problems[:5]:
                print(f"  trace accounting: {problem}")
            trace_path = results_dir / f"{tag}.spans.json"
            with trace_path.open("w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "job"],
                           "spans": spans}, fh)
            record.update(top=[[name, s] for s, name in top], problems=problems,
                          spans=str(trace_path.relative_to(ROOT)))
        else:
            metrics, notes = _end_to_end(results, wall, setup, peak_rss_mb)
            _print_metrics(metrics, notes)
        ratios = _ratios(results)
        for name, (value, unit, note) in ratios.items():
            print(f"  {name:40s} {value:>14.6g} {unit}  ({note})")
        for r in results:
            if r.error or r.wrong:
                reason = (r.error or r.wrong).strip().splitlines()[-1]
                print(f"  job {r.index} {' '.join(r.job.argv)}: {reason}")
        if probe:
            failed = [o.strip().splitlines()[-1] for o in probe if o]
            print(f"  round trip (untimed eop fit on a written CSV): {len(probe)} attempted, "
                  f"{len(failed)} failed" + (f"; {failed[0][:160]}" if failed else ""))
        record.update(metrics=metrics, ratios=ratios, fit_round_trip=probe)
        (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str),
                                                 encoding="utf-8")
        if not passed:
            print("no job passed; nothing to measure", file=sys.stderr)
            return 1
        print(json.dumps({
            "correct": not any(r.wrong for r in results) and not problems,
            "attempted": len(results),
            "failed": len(results) - passed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "eoplab" / "cli.py").is_file():
        print(f"perfbench: no eoplab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_sample:
        print(_setup_sample(WORKLOADS[args.workload]))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
