"""Benchmark runner: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every iteration runs in a fresh
process (``worker.py``) under a deadline; a crash, hang, timeout or
failed correctness check counts as a failed operation.

``--trace 0`` runs one iteration, which repeats the workload's timed
sweep for ``--seconds``, between set-up-only processes that sample
set-up time before and after it, and reports the end-to-end metrics
named in ``BENCHMARK.json``, each the median of its samples, with times
scaled towards a reference speed (see ``worker.REF_S``).  ``--trace 1``
alternates untraced and traced iterations of one repeat each, requires
their serialised reports to be byte-identical, and reports the
per-layer metrics (medians over the traced iterations) plus
``trace.overhead``, the traced over the untraced wall time of the timed
calls.

The last line of standard output is the result object; everything else
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up-only processes per untraced run, half before and half after the
#: iteration, so ``setup_s`` is a median of samples spread over the run
SETUP_PROBES = 4
#: every run ends well inside the three minutes a run may take
RUN_LIMIT_S = 150.0
#: no single iteration may take longer than this
ITERATION_LIMIT_S = 120.0


def _group_alive(pgid: int) -> bool:
    """Whether any non-zombie process is left in process group ``pgid``."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of an iteration's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while _group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_child(args, mode: str, trace: int, budget: float, deadline: float) -> dict:
    """One worker process and its result.

    The worker runs in its own session so that a timeout takes its
    process-pool workers down with it.  Its standard output goes to our
    standard error, keeping our standard output for the result line.
    """
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    out = scratch / f"result-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    # A hash seed per workload seed: string hashing then lays out dicts and
    # sets the same way on every run of a seed, instead of adding its own
    # run-to-run variation to the timings.
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED=str(args.seed % 4294967296),
        TMPDIR=str(scratch),
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(trace), "--mode", mode, "--out", str(out),
        "--budget", str(budget),
    ]
    if args.toy:
        command.append("--toy")
    start = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        proc.wait(timeout=max(1.0, deadline - start))
        timed_out = False
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        _stop_group(proc)
    if timed_out:
        return {"ok": False, "error": f"timed out after {time.monotonic() - start:.0f}s"}
    try:
        result = json.loads(out.read_text())
    except (OSError, ValueError):
        result = {"ok": False, "error": f"exit code {proc.returncode}, no result"}
    finally:
        out.unlink(missing_ok=True)
    return result


def measure(args, spec: dict) -> dict:
    started = time.monotonic()
    limit = started + RUN_LIMIT_S
    attempted = failed = 0
    errors: list[str] = []
    setups: list[float] = []
    raw_setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []

    def attempt(mode: str, trace: int, budget: float = 0.0) -> dict | None:
        nonlocal attempted, failed
        deadline = min(limit, time.monotonic() + ITERATION_LIMIT_S)
        attempted += 1
        result = run_child(args, mode, trace, budget, deadline)
        if not result.get("ok"):
            failed += 1
            errors.append(result.get("error", "unknown error"))
            return None
        setups.append(result["setup_s"])
        raw_setups.append(result["setup_raw_s"])
        return result

    if args.trace:
        # Untraced and traced iterations of one repeat each, in pairs,
        # while another pair fits in the time left.
        end = min(time.monotonic() + args.seconds, limit)
        while not failed:
            begun = time.monotonic()
            pair = attempt("full", 0), attempt("full", 1)
            if None not in pair:
                plain.append(pair[0])
                traced.append(pair[1])
                if pair[0]["digest"] != pair[1]["digest"]:
                    failed += 1
                    errors.append("traced report differs from untraced report")
            now = time.monotonic()
            if now + (now - begun) > end:
                break
    else:
        for _ in range(SETUP_PROBES // 2):
            attempt("setup", 0)
        # One iteration; worker.py repeats the timed sweep to fill the time.
        result = attempt("full", 0, budget=args.seconds)
        if result is not None:
            plain.append(result)
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
            attempt("setup", 0)
    # The raw figures behind the reported ones, which are scaled towards
    # the reference speed (see worker.REF_S).
    print(
        f"perfbench: {args.workload}: setup_s samples "
        f"{[round(s, 4) for s in setups]}, raw {[round(s, 4) for s in raw_setups]}",
        file=sys.stderr,
    )
    for result in plain:
        raw = {
            name: round(statistics.median(values), 4)
            for name, values in result["raw_samples"].items()
        }
        print(
            f"perfbench: {args.workload}: scale {result['scale']:.4f}, "
            f"raw medians {raw}", file=sys.stderr,
        )

    for error in errors:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    metrics: dict[str, float] = {}
    if args.trace:
        wanted = spec["per_layer"]
        if traced:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
            metrics["trace.overhead"] = statistics.median(
                r["timed_s"] for r in traced
            ) / statistics.median(r["timed_s"] for r in plain)
    else:
        wanted = spec["end_to_end"]
        if plain:
            for name in plain[0]["samples"]:
                metrics[name] = statistics.median(
                    value for r in plain for value in r["samples"][name]
                )
            metrics["setup_s"] = statistics.median(setups)
    units = {m["name"]: m["unit"] for m in wanted}
    if not failed and sorted(metrics) != sorted(units):
        failed += 1
        print(
            f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not "
            f"match BENCHMARK.json", file=sys.stderr,
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in sorted(metrics.items())
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true",
        help="toy-sized inputs, for the benchmark's self-test",
    )
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(
            f"perfbench: no program source under {ROOT}; run from the root "
            f"of a full checkout", file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    result = measure(args, spec)
    print(json.dumps(result))
    return 0 if result["attempted"] > result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
