"""Per-layer tracing for the benchmark, from outside the program.

The benchmark measures the program as shipped: nothing under ``src/``
knows it is being traced.  :class:`LayerTrace` wraps the public entry
point of each layer on its class (or module) for the lifetime of one
traced iteration and tallies calls, busy seconds and useful outcomes.
:class:`ShardRecorder` is a duck-typed console hub handed to
``ScanPipeline(console=...)`` so the parallel engine's own progress hooks
time the parent side of a process sweep.

Only traced iterations install either; untraced iterations run the
program untouched, and the two must serialise byte-identical reports.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Tally:
    """What one wrapped entry point did."""

    busy: float = 0.0
    calls: int = 0
    #: calls whose result counted as a useful outcome (see ``hit``)
    hits: int = 0
    #: work items the calls handled, where a call handles several
    items: int = 0


class LayerTrace:
    """Wraps layer entry points and records what each call cost.

    Create one per traced iteration, :meth:`install` it after set-up and
    :meth:`remove` it when the iteration is done.
    """

    def __init__(self) -> None:
        self.tallies: dict[str, Tally] = {}
        #: IPv4 values stage II probed since :meth:`reset_probed`
        self.probed: set[int] = set()
        #: the parallel engine's shard runner, kept to time its pickling
        self.runner: object | None = None
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._gc_started = 0.0
        self._undo: list[tuple[object, str, object]] = []

    def tally(self, key: str) -> Tally:
        return self.tallies.setdefault(key, Tally())

    # -- installation ------------------------------------------------------

    def install(self) -> "LayerTrace":
        from repro.core import parallel
        from repro.core.fingerprint.fingerprinter import VersionFingerprinter
        from repro.core.masscan import Masscan
        from repro.core.prefilter import Prefilter, SignatureMatcher
        from repro.core.tsunami.engine import TsunamiEngine
        from repro.core.tsunami.plugins import ALL_PLUGINS
        from repro.obs.metrics import MetricsRegistry

        self._wrap_batches(Masscan, "scan_in_batches", "masscan")
        # Prefilter.run calls probe once per open (host, port); probe is
        # also what the re-scan engine calls for fresh hosts, so timing
        # probe covers stage II on every workload.
        self._wrap(Prefilter, "probe", "prefilter", note=self._note_probe)
        self._wrap(SignatureMatcher, "match", "prefilter.match", hit=bool)
        self._wrap(TsunamiEngine, "scan_target", "tsunami", hit=bool)
        for plugin in ALL_PLUGINS:
            self._wrap(
                type(plugin), "detect", f"tsunami.plugin.{plugin.slug}",
                hit=lambda report: report is not None,
            )
        self._wrap(
            VersionFingerprinter, "fingerprint", "fingerprint",
            hit=lambda found: found is not None and found.version is not None,
        )
        self._wrap(MetricsRegistry, "counters_flat", "obs.counters_flat")
        self._wrap(parallel, "plan_shards", "parallel.plan", items=len)
        self._wrap(
            parallel.ParallelScanEngine, "_make_runner", "parallel.runner",
            note=self._keep_runner,
        )
        gc.callbacks.append(self._on_gc)
        return self

    def remove(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def collect(self) -> None:
        """``gc.collect()`` that is not counted as the program's own."""
        gc.callbacks.remove(self._on_gc)
        try:
            gc.collect()
        finally:
            gc.callbacks.append(self._on_gc)

    def reset_probed(self) -> None:
        self.probed = set()

    # -- wrappers ------------------------------------------------------------

    def _remember(self, owner: object, attr: str) -> None:
        # None marks an attribute the class inherits: removal deletes ours.
        self._undo.append((owner, attr, vars(owner).get(attr)))

    def _wrap(self, owner, attr, key, hit=None, items=None, note=None) -> None:
        original = getattr(owner, attr)
        tally = self.tally(key)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tally.busy += perf_counter() - start
                tally.calls += 1
            if hit is not None and hit(result):
                tally.hits += 1
            if items is not None:
                tally.items += items(result)
            if note is not None:
                note(args, result)
            return result

        self._remember(owner, attr)
        setattr(owner, attr, timed)

    def _wrap_batches(self, owner, attr, key) -> None:
        """Time each ``next()`` of a batch generator, not the consumer."""
        original = getattr(owner, attr)
        tally = self.tally(key)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            batches = original(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    batch = next(batches)
                except StopIteration:
                    tally.busy += perf_counter() - start
                    return
                tally.busy += perf_counter() - start
                tally.calls += 1
                tally.items += batch.addresses_scanned
                yield batch

        self._remember(owner, attr)
        setattr(owner, attr, timed)

    def _note_probe(self, args, result) -> None:
        # Prefilter.probe(self, ip, port)
        self.probed.add(args[1].value)

    def _keep_runner(self, args, result) -> None:
        self.runner = result

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
            return
        self.gc_s += perf_counter() - self._gc_started
        if info.get("generation") == 2:
            self.gc_gen2 += 1


class ShardRecorder:
    """Console hub that timestamps the parallel engine's progress hooks.

    ``start`` is set by the caller just before ``ScanPipeline.run``; the
    engine then reports each shard result as it arrives and calls
    :meth:`finish_sweep` once the fold is done.
    """

    def __init__(self) -> None:
        self.start = 0.0
        self.shard_times: list[float] = []
        self.payloads: list[dict] = []
        self.finished = 0.0

    def attach_telemetry(self, telemetry) -> None:
        pass

    def begin_sweep(self, shard_plan: list[dict]) -> None:
        pass

    def note_shard_running(self, index: int) -> None:
        pass

    def note_shard_done(self, index: int, payload: dict) -> None:
        self.shard_times.append(perf_counter())
        self.payloads.append(payload)

    def finish_sweep(self, report) -> None:
        self.finished = perf_counter()

    @property
    def first_result_s(self) -> float:
        return self.shard_times[0] - self.start if self.shard_times else 0.0

    @property
    def fold_s(self) -> float:
        return self.finished - self.shard_times[-1] if self.shard_times else 0.0
