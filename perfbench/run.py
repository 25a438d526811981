"""perpetua benchmark: end-to-end metrics, or a traced per-layer run.

    python3 perfbench/run.py --workload verify_bm --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the repository root (the package is imported from ./src).  Each
workload runs in one process.  The launcher fixes the thread budget before
numpy loads: harness threads x BLAS threads <= min(2, nproc).  A run
repeats passes of the workload while the next one is expected to end within
--seconds (at least one pass); ``cpu_s`` (process user + sys) and
``wall_s`` are per pass, averaged over the run's passes (sweep passes cover
complementary points of the parameter boxes, so their mean is the run's
estimate).  ``setup_s`` is the median over five fresh interpreters of the
time from spawn to the end of workload set-up (imports, config load or case
construction).

--trace 0 prints the end-to-end metrics setup_s, cpu_s and peak_rss_mb,
which the result line carries, then wall_s, fail_frac, ``steal_s`` (CPU time
the hypervisor took from this machine's CPUs during the passes) and, on
verdict_sweep, per-case latency percentiles.  wall_s stays out of the result
line: on a shared host it follows CPU steal (single-thread passes ran up to
1.3x their CPU time), which CPU time does not count.  --trace 1 runs pass 0
untraced, then set-up and pass 0 again under the span recorder, and prints
the per-layer metrics.

Every pass is checked; any failure counts in fail_frac and makes the exit
code 1.  The sha256 of each pass's deterministic output (report.json for
verify_*) is stored in .bench_out/digests.json under (workload, seed, pass,
code digest); a differing digest for the same key is a failure.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.  A
complete record of the run, seed and machine facts included, goes to
.bench_out/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_bm", "verify_cp", "verdict_sweep")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def thread_plan(workload: str, cores: int) -> tuple[int, int]:
    """(harness threads, BLAS threads) for a workload; product <= min(2, cores).

    verify_cp is the single-thread baseline.  verdict_sweep runs its BLAS
    on one thread too: a second OpenBLAS thread cut its wall time by about a
    tenth for about 40% more CPU, and doubled its run-to-run spread here.
    """
    return {
        "verify_bm": (min(2, cores), 1),
        "verify_cp": (1, 1),
        "verdict_sweep": (1, 1),
    }[workload]


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    xs = sorted(samples)
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples, candidates=(99, 95, 90, 80, 75)) -> tuple[int, float] | None:
    """Highest candidate percentile with at least ten samples strictly beyond it."""
    for q in candidates:
        if not samples:
            return None
        value = percentile(samples, q)
        if sum(x > value for x in samples) >= 10:
            return q, value
    return None


def code_digest() -> str:
    """sha256 over the package sources, the configs and the benchmark's own files."""
    h = hashlib.sha256()
    files = sorted(
        list((ROOT / "src" / "perpetua").glob("*.py"))
        + list((ROOT / "configs").glob("*.json"))
        + [p for p in HERE.rglob("*") if p.suffix in (".py", ".json")]
    )
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


class DigestStore:
    """Output digests of earlier runs, keyed by workload, seed, pass and code."""

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digest: str) -> str | None:
        seen = self.known.setdefault(key, digest)
        if seen != digest:
            return f"nondeterministic output for {key}: {digest} != earlier {seen}"
        return None

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.path)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--started", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "perpetua" / "__init__.py").is_file():
        print(f"perfbench: no perpetua sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    from machine import nproc

    harness_threads, blas_threads = thread_plan(args.workload, nproc())
    # must precede the first numpy import: OpenBLAS reads it at load time
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    os.environ["OMP_NUM_THREADS"] = str(blas_threads)
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        import workloads

        workloads.make_workload(args.workload, ROOT, args.seed, harness_threads).setup()
        print(json.dumps({"setup_s": time.monotonic() - args.started}))
        return 0

    setup_samples = [] if args.trace else _probe_setup(args)
    import workloads
    from machine import machine_facts, steal_seconds

    wl = workloads.make_workload(args.workload, ROOT, args.seed, harness_threads)
    wl.setup()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    store = DigestStore(out_dir / "digests.json")
    code = code_digest()

    def checked(index, outcome):
        # verify passes repeat one input; sweep pass k has inputs of its own
        same_input = index if args.workload == "verdict_sweep" else 0
        key = f"{args.workload}|seed={args.seed}|pass={same_input}|code={code}"
        problem = store.check(key, outcome.digest)
        if problem:
            outcome.problems.append(problem)
            outcome.failed += 1
        return outcome

    extras: dict[str, tuple[float, str]] = {}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "code_digest": code,
        "threads": {"harness": harness_threads, "blas": blas_threads},
    }
    if args.trace:
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        passes, metrics = _traced_run(wl, checked, harness_threads, spans_path)
    else:
        steal0 = steal_seconds()
        passes = _run_passes(wl, checked, args.seconds)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "cpu_s": (statistics.fmean(p["cpu_s"] for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extras["wall_s"] = (statistics.fmean(p["wall_s"] for p in passes), "s")
        extras["steal_s"] = (steal_seconds() - steal0, "s")
        record["setup_samples_s"] = setup_samples
    store.save()

    attempted = sum(p["outcome"].attempted for p in passes)
    failed = sum(p["outcome"].failed for p in passes)
    extras.update({"fail_frac": (failed / attempted, "frac"), "passes": (len(passes), "count")})
    samples: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    for p in passes:
        for key, vals in p["outcome"].samples.items():
            samples.setdefault(key, []).extend(vals)
        for key, val in p["outcome"].counters.items():
            counters[key] = counters.get(key, 0) + val
    for key, vals in sorted(samples.items()):
        extras[f"{key}.n"] = (len(vals), "count")
        extras[f"{key}.p50"] = (percentile(vals, 50), "s")
        tail = tail_percentile(vals)
        if tail is not None:
            extras[f"{key}.p{tail[0]}"] = (tail[1], "s")
    for key, val in sorted(counters.items()):
        extras[key] = (val, "bytes" if key == "bytes_written" else "count")

    facts = machine_facts()
    record.update({
        "machine": facts,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "digest": p["outcome"].digest,
                    "problems": p["outcome"].problems, "alarms": p["outcome"].alarms}
                   for p in passes],
        "samples": samples,
    })
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"threads={harness_threads}x{blas_threads} record={result_path.relative_to(ROOT)}")
    for p in passes:
        for problem in p["outcome"].problems:
            print(f"FAIL {problem}")
        for alarm in p["outcome"].alarms:
            print(f"ALARM {alarm}")
    for name, (value, unit) in list(metrics.items()) + list(extras.items()):
        print(f"{name} {value:.6g} {unit}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _probe_setup(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--started", repr(time.monotonic())]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _one_pass(wl, checked, index: int) -> dict:
    w0, c0 = time.perf_counter(), time.process_time()
    outcome = wl.run_pass(index)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return {"wall_s": wall, "cpu_s": cpu, "outcome": checked(index, outcome)}


def _run_passes(wl, checked, seconds: float) -> list[dict]:
    """Passes until the next one would overrun the budget; at least one."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(_one_pass(wl, checked, len(passes)))
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.monotonic() - start + typical > seconds:
            return passes


def _traced_run(wl, checked, harness_threads: int, spans_path: Path):
    import spans

    reference = _one_pass(wl, checked, 0)
    recorder = spans.Recorder()
    t0 = time.perf_counter()
    with spans.traced(recorder):
        wl.setup()
        traced = _one_pass(wl, checked, 0)
    section_s = time.perf_counter() - t0
    spans.write_spans(spans_path, recorder.spans)

    layer = spans.layer_metrics(recorder.spans, section_s, harness_threads)
    layer["runner.bytes_written"] = traced["outcome"].counters.get("bytes_written", 0)
    # the traced pass repeats pass 0 in a warm process, so this reads low by
    # whatever the first pass pays for warm-up (heap growth, first imports)
    layer["trace.overhead_frac"] = traced["wall_s"] / reference["wall_s"] - 1.0
    units = {"calls": "count", "cells": "count", "steps": "count", "jumps": "count",
             "points": "count", "steps_drawn": "count", "not_reached": "count",
             "bytes_written": "bytes", "cells_per_s": "1/s"}
    metrics = {}
    for name, value in layer.items():
        suffix = name.rsplit(".", 1)[1]
        unit = units.get(suffix, "s" if suffix in ("s", "self_s") else "frac")
        metrics[name] = (value, unit)
    return [reference, traced], metrics


def _run_all(args) -> int:
    """Each workload in its own process, one after the other; combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
