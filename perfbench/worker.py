"""One benchmark iteration, run by ``run.py`` in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --mode full|setup --out RESULT.json [--budget SECONDS] [--toy]

The iteration builds its inputs from the seed (set-up), runs the
workload's timed calls, checks the program's outputs and writes one JSON
result to ``--out``.  ``--mode setup`` stops after set-up; run.py
uses it to sample set-up time several times per run.  With ``--trace 1``
the layer entry points are wrapped (see ``layers.py``) and the per-layer
numbers are added to the result.

The workloads and why each was chosen are described in ``README.md``
next to this file.
"""

from __future__ import annotations

import time

#: set-up time is measured from here: before any program import
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, thread_time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@dataclass(frozen=True)
class Workload:
    """The exact inputs of one workload (the seed comes from run.py)."""

    name: str
    #: ``StudyConfig`` preset the world is generated from
    preset: str
    #: interval-frame size in addresses; None sweeps the populated-address list
    frame: int | None
    batch_size: int
    #: None runs the sequential engine; "process" the spawn process pool
    executor: str | None = None
    #: re-scan ticks after the baseline (longevity only)
    ticks: int = 0
    #: share of the frame's live /24s that churn before each tick
    churn: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-sparse", "tiny", 300_000_000, 16384),
        Workload("sweep-dense", "default", None, 4096),
        Workload("sweep-process", "default", None, 4096, executor="process"),
        Workload("longevity", "tiny", 10_000_000, 16384, ticks=64, churn=0.02),
    )
}

#: toy sizes for the self-test: every code path, seconds per workload
TOY = {
    "sweep-sparse": dict(frame=2_000_000),
    "sweep-dense": dict(preset="tiny"),
    "sweep-process": dict(preset="tiny"),
    "longevity": dict(frame=1_000_000, ticks=3, churn=0.05),
}


def worker_count() -> int:
    """Process-pool size: every core this process may run on."""
    return len(os.sched_getaffinity(0))


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


#: The machine the benchmark runs on is shared, and its speed drifts by up
#: to 40% over minutes, far more than any bound a timing could hold.  Every
#: reported time is therefore scaled towards a machine that runs
#: :func:`reference_task` in REF_S CPU seconds, by the task's median time
#: in the same process while it measured (see README.md).
REF_S = 0.02
#: How much the program's times move with the reference task's: on the
#: shared machine a slowdown that makes the task 1.7x slower makes a sweep
#: only about 1.35x slower.  Fits of log(time) on log(task time) gave
#: 0.52 for default-world sweeps, 0.42 for sparse sweeps and 0.78 for
#: re-scan ticks; scaling by the full ratio would overcorrect the sweeps.
SPEED_ELASTICITY = 0.6
#: while an untraced iteration measures, the reference task runs every
#: this many seconds, whatever the iteration is doing then
REF_EVERY_S = 0.5
#: reference-task runs right after set-up, to scale the set-up time
SETUP_REF_RUNS = 5


def reference_task() -> float:
    """CPU seconds one run of a fixed pure-Python task takes right now.

    The task shares no code with the program.  Of the containers the
    collector tracks it allocates one dict, so running it in the middle
    of the program does not move the program's garbage collections.  It
    is timed in the thread's CPU time, which the program's pool workers,
    competing for the cores, do not inflate.
    """
    start = thread_time()
    counts: dict[str, int] = {}
    total = 0
    for i in range(60_000):
        key = f"host-{i % 1543}"
        counts[key] = counts.get(key, 0) + 1
        total += i * i % 7
    return thread_time() - start


def speed_scale(ref_times: list[float]) -> float:
    """Factor that turns times measured now into reference-speed times."""
    return (REF_S / statistics.median(ref_times)) ** SPEED_ELASTICITY


class Windows:
    """Wall and CPU time inside the iteration's timed calls.

    An untraced iteration also samples the machine's speed: between
    :meth:`start_sampling` and :meth:`stop_sampling` a timer signal runs
    :func:`reference_task` every REF_EVERY_S seconds, inside the timed
    calls as well as between them, so the samples cover the same seconds
    as the calls.  What a sample costs is taken off the call it
    interrupted.
    """

    def __init__(self, collect=gc.collect) -> None:
        self.wall: dict[str, list[float]] = {}
        self.cpu = 0.0
        self.ref: list[float] = []
        self._collect = collect
        self._sampled_wall = 0.0
        self._sampled_cpu = 0.0

    def start_sampling(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop_sampling(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        wall, cpu = perf_counter(), thread_time()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.ref.append(reference_task())
        finally:
            if collecting:
                gc.enable()
            self._sampled_cpu += thread_time() - cpu
            self._sampled_wall += perf_counter() - wall

    @contextmanager
    def timed(self, name: str):
        # Start every timed call with the collector's generations empty, so
        # garbage left by set-up or by the checks between calls is not
        # collected on the clock of whichever call happens to trip it.
        self._collect()
        sampled = self._sampled_wall, self._sampled_cpu
        cpu = _cpu_seconds()
        start = perf_counter()
        try:
            yield
        finally:
            self.wall.setdefault(name, []).append(
                perf_counter() - start - (self._sampled_wall - sampled[0])
            )
            self.cpu += _cpu_seconds() - cpu - (self._sampled_cpu - sampled[1])

    def total(self) -> float:
        return sum(sum(values) for values in self.wall.values())


class CheckFailed(Exception):
    """The program's output failed a correctness check."""


def _digest(report) -> str:
    from repro.core.serialize import report_to_dict

    text = json.dumps(report_to_dict(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_mavs(report, internet, label: str) -> float:
    """Reported MAV hosts must equal the planted ones; returns recall."""
    planted = {h.ip.value for h in internet.true_vulnerable_hosts()}
    reported = {ip.value for ip in report.vulnerable_ips()}
    if reported != planted:
        raise CheckFailed(
            f"{label}: {len(planted - reported)} planted MAV hosts missed, "
            f"{len(reported - planted)} reported hosts not planted"
        )
    report.coverage.reconcile(report)
    return len(reported & planted) / len(planted) if planted else 1.0


def _churn(internet, rng: random.Random, share: float) -> set[int]:
    """Churn a seeded ``share`` of the live /24s; return the hinted blocks.

    Half the blocks lose a host (port churn, self-detected by stage I).
    The other half change content with open ports unchanged: a vulnerable
    app is secured (apps without an auth knob go offline instead) or, once
    none is left, an app moves to its next release.  Those blocks are
    returned for ``churned_blocks``, as a campaign learns of them from CT
    logs or passive DNS.
    """
    from repro.apps.versions import RELEASE_DB
    from repro.net.intervals import BLOCK_MASK

    by_block: dict[int, list] = {}
    for host in internet.online_hosts():
        by_block.setdefault(host.ip.value & BLOCK_MASK, []).append(host)
    live = sorted(by_block)
    count = max(2, round(share * len(live)))
    offline = rng.sample(live, count // 2)
    for block in offline:
        hosts = sorted(by_block[block], key=lambda h: h.ip.value)
        rng.choice(hosts).take_offline()
    taken = set(offline)

    def candidates(predicate) -> list[int]:
        return [
            b for b in live
            if b not in taken and any(predicate(h) for h in by_block[b])
        ]

    hinted: set[int] = set()
    want = count - count // 2
    vulnerable = candidates(lambda h: h.has_vulnerable_app())
    for block in rng.sample(vulnerable, min(want, len(vulnerable))):
        host = rng.choice(
            sorted((h for h in by_block[block] if h.has_vulnerable_app()),
                   key=lambda h: h.ip.value)
        )
        app = next(i.app for i in host.apps() if i.app.is_vulnerable())
        try:
            app.secure()
        except NotImplementedError:
            host.take_offline()  # no auth knob to flip
        hinted.add(block)
    want -= len(hinted)
    if want > 0:
        updatable = candidates(lambda h: bool(h.apps()))
        for block in rng.sample(sorted(set(updatable) - hinted), want):
            host = rng.choice(
                sorted((h for h in by_block[block] if h.apps()),
                       key=lambda h: h.ip.value)
            )
            app = host.apps()[0].app
            newer = RELEASE_DB.next_release_after(
                app.slug, RELEASE_DB.release_date(app.slug, app.version)
            )
            if newer is not None:
                app.version = newer.version
            hinted.add(block)
    return hinted


def run(workload: Workload, seed: int, trace: bool, mode: str, budget: float) -> dict:
    from repro.core.fingerprint.knowledge_base import build_default_knowledge_base
    from repro.experiments.config import StudyConfig
    from repro.net.intervals import CompressedPopulation
    from repro.net.population import generate_internet
    from repro.net.transport import InMemoryTransport

    preset = StudyConfig.tiny() if workload.preset == "tiny" else StudyConfig.default()
    config = preset.with_seed(seed)
    setup: dict[str, float] = {}
    start = perf_counter()
    internet, _, _ = generate_internet(config.population)
    setup["population.generate_s"] = perf_counter() - start
    start = perf_counter()
    if workload.frame is None:
        frame = internet.populated_addresses()
    else:
        frame = CompressedPopulation.build(
            internet, workload.frame, seed=config.seed
        ).frame
    setup["intervals.frame_build_s"] = perf_counter() - start
    start = perf_counter()
    kb = build_default_knowledge_base()
    setup["fingerprint.kb_build_s"] = perf_counter() - start
    transport = InMemoryTransport(internet)
    setup_s = perf_counter() - _STARTED
    scale = speed_scale([reference_task() for _ in range(SETUP_REF_RUNS)])
    result: dict = {"setup_s": setup_s * scale, "setup_raw_s": setup_s}
    if mode == "setup":
        return result

    from layers import LayerTrace

    layers = LayerTrace().install() if trace else None
    windows = Windows(layers.collect) if layers is not None else Windows()
    stats0 = (transport.stats.syn_probes, transport.stats.http_requests)
    if layers is None:
        windows.start_sampling()
    try:
        if workload.ticks:
            facts = _longevity(
                workload, config, internet, transport, frame, kb, windows, layers,
            )
        else:
            facts = _sweep(
                workload, config, internet, transport, frame, kb, windows, layers,
                budget,
            )
    finally:
        windows.stop_sampling()
        if layers is not None:
            layers.remove()

    # Traced iterations report raw per-layer times and no scaled samples.
    scale = speed_scale(windows.ref) if windows.ref else 1.0
    result.update(
        digest=facts["digest"],
        timed_s=windows.total(),
        scale=scale,
        raw_samples=facts["samples"],
        samples={
            **{
                name: [value * scale for value in values]
                for name, values in facts["samples"].items()
            },
            "peak_rss_mb": [facts["peak_rss_mb"]],
            "mav_recall": [facts["mav_recall"]],
        },
    )
    if layers is not None:
        result["layers"] = _layer_metrics(
            layers, setup, facts, windows, transport, stats0,
        )
    return result


def _peak_rss_mb(workload: Workload) -> float:
    """Peak RSS so far: this process plus, for a pool, workers x the largest."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = worker_count() if workload.executor else 0
    return (self_kb + workers * child_kb) / 1024


#: the stages a sweep's own loop hands work to
STAGES = ("masscan", "prefilter", "tsunami", "fingerprint")


def _stage_busy(layers) -> float:
    if layers is None:
        return 0.0
    return sum(layers.tally(key).busy for key in STAGES)


def _sweep(workload, config, internet, transport, frame, kb, windows, layers, budget) -> dict:
    """Repeat from-scratch sweeps of the frame.

    Every repeat builds a fresh pipeline over the same world, so each
    must serialise the same report.  Repeats go on while the next one is
    expected to end within ``budget`` seconds; a traced iteration makes
    exactly one.
    """
    from repro.apps.catalog import scanned_ports
    from repro.core.pipeline import ScanPipeline

    from layers import ShardRecorder

    recorder = ShardRecorder() if layers is not None and workload.executor else None
    parallel = (
        dict(workers=worker_count(), executor=workload.executor, mp_start_method="spawn")
        if workload.executor else {}
    )
    samples: dict[str, list[float]] = {"sweep_s": [], "cpu_s": []}
    facts: dict = {}
    started = perf_counter()
    while True:
        begun = perf_counter()
        cpu = windows.cpu
        with windows.timed("sweep"):
            if recorder is not None:
                recorder.start = perf_counter()
            report = ScanPipeline(
                transport,
                scanned_ports(),
                seed=config.seed,
                batch_size=workload.batch_size,
                fingerprint=config.fingerprint,
                knowledge_base=kb,
                console=recorder,
                **parallel,
            ).run(frame)
        sweep_s = windows.wall["sweep"][-1]
        digest = _digest(report)
        if not facts:
            facts = {
                "digest": digest,
                "mav_recall": _check_mavs(report, internet, workload.name),
                "report": report,
                # the pool's workers run the stages, out of the tracer's sight
                "self_s": 0.0 if workload.executor else sweep_s - _stage_busy(layers),
                "recorder": recorder,
                # taken after the first repeat: later ones reuse a grown heap
                "peak_rss_mb": _peak_rss_mb(workload),
                "worker_rss_mb": (
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
                ),
            }
        elif digest != facts["digest"]:
            raise CheckFailed("a repeated sweep of the same world changed the report")
        del report  # one report alive at a time, as in a single sweep
        samples["sweep_s"].append(sweep_s)
        samples["cpu_s"].append(windows.cpu - cpu)
        now = perf_counter()
        if layers is not None or now + (now - begun) > started + budget:
            break
    facts["samples"] = samples
    return facts


#: save/load round trips of the campaign state per longevity iteration
RESUME_REPEATS = 3


def _longevity(workload, config, internet, transport, frame, kb, windows, layers) -> dict:
    """Baseline, save/load the state, then a fixed number of churned ticks.

    The tick count is fixed, not fitted to a time budget, so that every
    run of a seed does the same work.
    """
    from repro.apps.catalog import scanned_ports
    from repro.core.rescan import (
        RescanEngine,
        load_rescan_state,
        run_full_sweep,
        save_rescan_state,
    )
    from repro.core.serialize import report_to_dict
    from repro.util.rand import stable_hash

    engine = RescanEngine(
        transport,
        scanned_ports(),
        seed=config.seed,
        batch_size=workload.batch_size,
        fingerprint=config.fingerprint,
        knowledge_base=kb,
    )
    with windows.timed("baseline"):
        state = engine.baseline(frame)
    baseline_self_s = windows.wall["baseline"][0] - _stage_busy(layers)
    recall = _check_mavs(state.report, internet, "baseline")
    digest = _digest(state.report)
    # Resume the campaign from disk, as a restarted observer would.  The
    # round trips count towards cpu_s; their split is per-layer.
    persisted = []
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    state_path = scratch / f"state-{os.getpid()}.json"
    try:
        for _ in range(RESUME_REPEATS):
            with windows.timed("resume"):
                start = perf_counter()
                save_rescan_state(state, state_path)
                saved = perf_counter()
                state = load_rescan_state(state_path)
                loaded = perf_counter()
            persisted.append({
                "save_s": saved - start,
                "load_s": loaded - saved,
                "bytes": state_path.stat().st_size,
            })
            if _digest(state.report) != digest:
                raise CheckFailed("report changed across save/load of the state")
    finally:
        state_path.unlink(missing_ok=True)
    rng = random.Random(stable_hash(config.seed, "perfbench-churn"))
    ticks = []
    for tick in range(workload.ticks):
        hinted = _churn(internet, rng, workload.churn)
        if layers is not None:
            layers.reset_probed()
        masscan0, targets0 = _tick_counts(layers)
        with windows.timed("tick"):
            state = engine.rescan(frame, state, churned_blocks=hinted)
        masscan1, targets1 = _tick_counts(layers)
        _check_mavs(state.report, internet, f"tick {tick}")
        ticks.append({
            "open": len(state.report.port_scan.open_ports),
            "fresh_hosts": len(layers.probed) if layers is not None else 0,
            "masscan_s": masscan1 - masscan0,
            "targets": targets1 - targets0,
        })
    cpu = windows.cpu
    # The campaign's equivalence oracle: a from-scratch sweep of the same
    # frame over the churned world must serialise byte-identically.  It is
    # outside the timed windows.
    start = perf_counter()
    oracle = run_full_sweep(
        transport, scanned_ports(), frame, seed=config.seed,
        batch_size=workload.batch_size, fingerprint=config.fingerprint,
        knowledge_base=kb,
    )
    oracle_s = perf_counter() - start
    final = json.dumps(report_to_dict(state.report), sort_keys=True)
    if final != json.dumps(report_to_dict(oracle), sort_keys=True):
        raise CheckFailed("last tick diverged from the from-scratch sweep")
    return {
        "digest": _digest(state.report),
        "samples": {
            "sweep_s": windows.wall["tick"],
            "cpu_s": [cpu],
        },
        "mav_recall": recall,
        "report": state.report,
        "persisted": {
            key: statistics.median(p[key] for p in persisted)
            for key in persisted[0]
        },
        "self_s": baseline_self_s,
        "ticks": ticks,
        "oracle_s": oracle_s,
        "peak_rss_mb": _peak_rss_mb(workload),
    }


def _tick_counts(layers) -> tuple[float, int]:
    if layers is None:
        return 0.0, 0
    return layers.tally("masscan").busy, layers.tally("tsunami").calls


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_metrics(layers, setup, facts, windows, transport, stats0) -> dict:
    """Every per-layer metric; a layer the workload does not reach reads 0."""
    from repro.core.tsunami.plugins import ALL_PLUGINS

    t = layers.tally
    report = facts["report"]
    persisted = facts.get("persisted", {"save_s": 0.0, "load_s": 0.0, "bytes": 0})
    out = dict(setup)
    out.update({
        "masscan.busy_s": t("masscan").busy,
        "masscan.addr_per_s": _ratio(t("masscan").items, t("masscan").busy),
        "masscan.batches": t("masscan").calls,
        "transport.syn_probes": transport.stats.syn_probes - stats0[0],
        "transport.http_requests": transport.stats.http_requests - stats0[1],
        "telemetry.spans": report.telemetry.spans,
        "telemetry.events": report.telemetry.events,
        "obs.counters_flat_s": t("obs.counters_flat").busy,
        "prefilter.busy_s": t("prefilter").busy,
        "prefilter.match_s": t("prefilter.match").busy,
        "prefilter.bodies": t("prefilter.match").calls,
        "prefilter.bodies_per_s": _ratio(t("prefilter.match").calls, t("prefilter").busy),
        "prefilter.candidate_ratio": _ratio(t("prefilter.match").hits, t("prefilter.match").calls),
        "tsunami.busy_s": t("tsunami").busy,
        "tsunami.targets": t("tsunami").calls,
        "tsunami.targets_per_s": _ratio(t("tsunami").calls, t("tsunami").busy),
        "tsunami.detect_ratio": _ratio(t("tsunami").hits, t("tsunami").calls),
        "fingerprint.busy_s": t("fingerprint").busy,
        "fingerprint.hosts": t("fingerprint").calls,
        "fingerprint.version_ratio": _ratio(t("fingerprint").hits, t("fingerprint").calls),
        "runtime.gc_s": layers.gc_s,
        "runtime.gc_gen2": layers.gc_gen2,
    })
    for plugin in ALL_PLUGINS:
        out[f"tsunami.plugin.{plugin.slug}.busy_s"] = t(f"tsunami.plugin.{plugin.slug}").busy
    out.update({
        "pipeline.self_s": facts["self_s"],
        "serialize.state_save_s": persisted["save_s"],
        "serialize.state_load_s": persisted["load_s"],
        "serialize.state_mb": persisted["bytes"] / 1e6,
    })
    out.update(_parallel_metrics(layers, facts.get("recorder"), facts.get("worker_rss_mb", 0.0)))
    out.update(_rescan_metrics(facts, windows))
    return out


def _parallel_metrics(layers, recorder, worker_rss_mb: float) -> dict:
    out = {
        "parallel.plan_s": layers.tally("parallel.plan").busy,
        "parallel.shards": layers.tally("parallel.plan").items,
        "parallel.first_result_s": 0.0,
        "parallel.fold_s": 0.0,
        "parallel.payload_mb": 0.0,
        "parallel.world_pickle_mb": 0.0,
        "parallel.world_pickle_s": 0.0,
        "parallel.world_unpickle_s": 0.0,
        "parallel.worker_rss_mb": 0.0,
    }
    if recorder is None or layers.runner is None:
        return out
    # Measured after the sweep, so the sweep's own timing is untouched:
    # the parent pickles and unpickles the runner each spawned worker is
    # sent (world included) once more, alone on the machine.  That is a
    # proxy: in the sweep the runner is dumped once per worker and loaded
    # inside each worker while its siblings load theirs, which costs more.
    start = perf_counter()
    blob = pickle.dumps(layers.runner)
    dumped = perf_counter()
    pickle.loads(blob)
    loaded = perf_counter()
    out.update({
        "parallel.first_result_s": recorder.first_result_s,
        "parallel.fold_s": recorder.fold_s,
        "parallel.payload_mb": sum(
            len(pickle.dumps(p)) for p in recorder.payloads
        ) / 1e6,
        "parallel.world_pickle_mb": len(blob) / 1e6,
        "parallel.world_pickle_s": dumped - start,
        "parallel.world_unpickle_s": loaded - dumped,
        "parallel.worker_rss_mb": worker_rss_mb,
    })
    return out


def _rescan_metrics(facts, windows) -> dict:
    ticks = facts.get("ticks")
    if not ticks:
        return {
            "rescan.baseline_s": 0.0,
            "rescan.record_overhead": 0.0,
            "rescan.ticks": 0,
            "rescan.fresh_targets": 0.0,
            "rescan.reuse_ratio": 0.0,
            "rescan.tick_masscan_share": 0.0,
        }
    baseline = windows.wall["baseline"][0]
    opened = sum(t["open"] for t in ticks)
    return {
        "rescan.baseline_s": baseline,
        "rescan.record_overhead": _ratio(baseline, facts["oracle_s"]),
        "rescan.ticks": len(ticks),
        "rescan.fresh_targets": statistics.median(t["targets"] for t in ticks),
        "rescan.reuse_ratio": _ratio(
            opened - sum(t["fresh_hosts"] for t in ticks), opened
        ),
        "rescan.tick_masscan_share": _ratio(
            sum(t["masscan_s"] for t in ticks), sum(windows.wall["tick"])
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--budget", type=float, default=0.0,
        help="seconds to keep repeating the timed sweep (at least once)",
    )
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.toy:
        workload = replace(workload, **TOY[workload.name])
    try:
        result = run(workload, args.seed, bool(args.trace), args.mode, args.budget)
        result["ok"] = True
    except Exception as exc:  # run.py counts the iteration as failed
        traceback.print_exc()
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    args.out.write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
