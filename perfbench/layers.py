"""The traced run and the per-layer metrics it derives.

A traced run sets the workload up once with the wrappers installed (so
set-up work such as k-means is traced too), measures it once untraced and
once traced on the same fixture, and reports per-layer metrics from the
traced pass. ``bench.trace_overhead_share`` is how much worse the traced
pass's primary end-to-end figure read than the untraced pass's (the two
passes run back to back, so it carries run-to-run noise as well).

Every ``*_s`` layer metric is self time in seconds summed over the traced
pass (set-up included for k-means and warm start): the span's duration
minus the part its child spans cover, so the layers add up. Spans under a
heartbeat ``Replica.ping`` are charged to ``serving.replica.ping_s``, not
to the request path. Every workload reports every per-layer metric: a
layer the workload does not call reads 0.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict

import numpy as np
from repro import obs
from repro.obs import names as obs_names

import common
import spans

OUT_DIR = common.ROOT / ".perfbench_out"
#: train-index and ivf-batch: the largest share of the timed phases' wall
#: time that may fall outside every wrapped layer call.
ATTRIBUTION_MAX_SHARE = 0.10
#: End-to-end figure the overhead estimate compares (lower is better).
PRIMARY = "latency_ms"
HEARTBEAT = "serving.replica.ping"
#: Spans under one of these are charged to it: heartbeat scans are kept
#: apart from request scans, and output checks are not workload time.
CHARGED_TO = (HEARTBEAT, "bench.check")


def _scan_requests(recorder: spans.SpanRecorder):
    """Attrs for a replica scan: its rows, and the ids of the open
    requests whose query rows it carries."""

    def attrs(args, kwargs) -> dict:
        queries = np.asarray(args[1] if len(args) > 1 else kwargs["queries"])
        ids: set = set()
        for row in queries:
            ids |= set(recorder.inflight.get(row.tobytes(), ()))
        return {"rows": int(len(queries)), "requests": sorted(ids)}

    return attrs


def layer_table(recorder: spans.SpanRecorder) -> dict:
    """Span name -> self seconds, calls, rows and inclusive seconds."""
    selfs = recorder.self_times()
    by_id = recorder.by_id()
    table: dict = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "rows": 0, "incl_s": 0.0})
    for span in recorder.spans:
        key, parent = span.name, span.parent
        while parent is not None:
            if by_id[parent].name in CHARGED_TO:
                key = by_id[parent].name
                break
            parent = by_id[parent].parent
        entry = table[key]
        entry["self_s"] += selfs[span.span_id]
        if key == span.name:
            entry["calls"] += 1
            entry["rows"] += span.attrs.get("rows", 0)
            entry["incl_s"] += span.duration
    return table


def _common(report, table) -> None:
    report.metric("cluster.kmeans_s", table["cluster.kmeans"]["self_s"], "s")
    report.metric("cluster.kmeans.calls", table["cluster.kmeans"]["calls"], "count")
    lut = table["retrieval.adc.lut_build"]
    report.metric("retrieval.adc.lut_build_s", lut["self_s"], "s")
    report.metric("retrieval.adc.lut_rows", lut["rows"], "count")


def _attribution(report, table, phases) -> None:
    wall = sum(table[name]["incl_s"] for name in phases)
    unattributed = sum(table[name]["self_s"] for name in phases)
    share = unattributed / wall
    report.metric("bench.unattributed_s", unattributed, "s")
    report.metric("bench.unattributed_share", share, "ratio")
    report.check(
        "attribution", share <= ATTRIBUTION_MAX_SHARE,
        f"layers account for {1 - share:.1%} of {wall:.2f} s "
        f"(limit: {ATTRIBUTION_MAX_SHARE:.0%} unattributed)",
    )


def _train(report, table) -> None:
    for span, metric in (
        ("data.loader.fetch", "data.loader.fetch_s"),
        ("core.model.forward", "core.model.forward_s"),
        ("core.losses.criterion", "core.losses.criterion_s"),
        ("nn.tensor.backward", "nn.tensor.backward_s"),
        ("nn.optim.step", "nn.optim.step_s"),
        ("nn.optim.zero_grad", "nn.optim.zero_grad_s"),
        ("core.trainer.clip_gradients", "core.trainer.clip_gradients_s"),
        ("retrieval.index.build", "retrieval.index.build_s"),
        ("core.warmstart.codebooks", "core.warmstart.codebooks_s"),
    ):
        report.metric(metric, table[span]["self_s"], "s")
    report.metric("train.steps", table["core.model.forward"]["calls"], "count")
    for span in ("core.model.embed", "core.model.encode"):
        entry = table[span]
        report.metric(f"{span}_s", entry["self_s"] / max(entry["rows"], 1), "s/item")
    _attribution(report, table, ("bench.train", "bench.build"))


def _ivf(report, recorder, table, result, registry) -> None:
    by_id = recorder.by_id()
    selfs = recorder.self_times()
    builds = table["retrieval.ivf.build"]["calls"]
    build_kmeans = sum(
        selfs[s.span_id] for s in recorder.spans
        if s.name == "cluster.kmeans" and s.parent is not None
        and by_id[s.parent].name == "retrieval.ivf.build"
    )
    report.metric("retrieval.ivf.build.kmeans_s", build_kmeans / builds, "s")
    report.metric("retrieval.ivf.build.layout_s",
                  table["retrieval.ivf.build"]["self_s"] / builds, "s")
    search = table["retrieval.ivf.search"]
    candidates = registry.histogram(obs_names.IVF_CANDIDATES_SCANNED)
    report.metric("retrieval.ivf.search_s", search["self_s"], "s")
    report.metric("retrieval.ivf.candidates_per_query",
                  candidates.total / max(candidates.count, 1), "count")
    report.metric("retrieval.ivf.ns_per_candidate",
                  1e9 * search["self_s"] / max(candidates.total, 1), "ns")
    cache = result["ivf"].lut_cache
    report.metric("retrieval.lut_cache.hit_ratio",
                  cache.hits / max(cache.hits + cache.misses, 1), "ratio")
    _attribution(report, table, ("bench.ivf.build", "bench.ivf.search"))


def _serve_requests(report, recorder, windows) -> None:
    """Daemon counters, cache and degraded shares, and the per-request
    daemon overhead: submit-to-answer time minus the replica scan that
    answered it (the earliest-ending successful scan carrying it)."""
    answers = [res for w in windows.values() for _, res in w.answers]
    counts: dict = defaultdict(int)
    for window in windows.values():
        for key, value in window.counts.items():
            counts[key] += value
    n = max(len(answers), 1)
    sent = sum(w.attempted for w in windows.values())
    report.metric("serving.failed_share",
                  sum(w.n_failed for w in windows.values()) / max(sent, 1), "ratio")
    report.metric("serving.cache.hit_ratio",
                  sum(r.source == "cache" for r in answers) / n, "ratio")
    report.metric("serving.degraded_share", sum(r.degraded for r in answers) / n, "ratio")
    for key in ("retries", "hedges", "failovers", "shed"):
        report.metric(f"serving.{key}", counts[key], "count")

    by_id = recorder.by_id()
    scan_of: dict = {}
    for span in recorder.spans:
        if span.name != "serving.replica.search" or not span.ok:
            continue
        if span.parent is not None and by_id[span.parent].name == HEARTBEAT:
            continue
        for request in span.attrs.get("requests", ()):
            best = scan_of.get(request)
            if best is None or span.end < best.end:
                scan_of[request] = span
    first = min(windows.values(), key=lambda w: w.schedule.rate)
    lo, hi = first.id_base, first.id_base + first.attempted
    overheads = [
        span.duration - scan_of[span.request].duration
        for span in recorder.spans
        if span.name == "serving.daemon.submit" and span.ok
        and span.request in scan_of and lo <= span.request < hi
    ]
    if overheads:
        report.metric("serving.daemon.overhead_ms", 1e3 * statistics.median(overheads), "ms")
    report.metric("bench.generator_late_p99_ms",
                  max(w.late_p99_ms for w in windows.values()), "ms")


def _serve(report, recorder, table, result, fixture) -> None:
    windows = result["windows"] if "windows" in result else {"mid": result["window"]}
    scans = table["serving.replica.search"]
    report.metric("serving.replica.search_s", scans["self_s"], "s")
    report.metric("serving.replica.scans", scans["calls"], "count")
    report.metric("serving.replica.rows_per_scan", scans["rows"] / max(scans["calls"], 1), "count")
    report.metric("serving.replica.ping_s", table[HEARTBEAT]["self_s"], "s")
    report.metric("serving.replica.pings", table[HEARTBEAT]["calls"], "count")
    engine = table["retrieval.engine.search"]
    report.metric("retrieval.engine.search_s", engine["self_s"], "s")
    report.metric("retrieval.engine.rows_per_call",
                  engine["rows"] / max(engine["calls"], 1), "count")
    hits = sum(w.lut[0] for w in windows.values())
    misses = sum(w.lut[1] for w in windows.values())
    report.metric("retrieval.lut_cache.hit_ratio", hits / max(hits + misses, 1), "ratio")
    if fixture.churn:
        for op in ("add", "remove", "compact", "search"):
            report.metric(f"retrieval.mutable.{op}_s", table[f"retrieval.mutable.{op}"]["self_s"], "s")
        report.metric("retrieval.mutable.compactions", table["retrieval.mutable.compact"]["calls"], "count")
        searched = [s.attrs["segments"] for s in recorder.spans
                    if s.name == "retrieval.mutable.search" and "segments" in s.attrs]
        report.metric("retrieval.mutable.segments",
                      sum(searched) / max(len(searched), 1), "count")
        report.metric("serving.mutate_s", table["serving.daemon.mutate"]["incl_s"], "s")
    _serve_requests(report, recorder, windows)


def traced_run(workload: str, module, seed: int, seconds: float, report,
               units: dict[str, str]) -> None:
    """Report every per-layer metric named in ``units`` (name -> unit)."""
    for name, unit in units.items():
        report.metric(name, 0.0, unit)
    recorder = spans.SpanRecorder()
    extra = {"serving.replica.search": _scan_requests(recorder)}
    with spans.installed(recorder, extra):
        with recorder.span("bench.setup"):
            fixture = module.Fixture(seed)
    try:
        base = module.measure(fixture, seed, seconds, common.Report())
        # ivf-batch reads the IVF candidate histogram the program already
        # emits; the registry stays off elsewhere.
        observing = obs.observed() if workload == "ivf-batch" else contextlib.nullcontext()
        with observing as handle, spans.installed(recorder, extra):
            result = module.measure(fixture, seed, seconds, report, recorder=recorder)
    finally:
        fixture.close()

    table = layer_table(recorder)
    _common(report, table)
    if workload == "train-index":
        _train(report, table)
    elif workload == "ivf-batch":
        _ivf(report, recorder, table, result, handle.registry)
    else:
        _serve(report, recorder, table, result, fixture)

    untraced, traced = base["metrics"][PRIMARY], result["metrics"][PRIMARY]
    report.metric("bench.trace_overhead_share", traced / untraced - 1, "ratio")
    report.notes["trace_overhead"] = f"{PRIMARY}: untraced {untraced:.4g}, traced {traced:.4g}"

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-spans.jsonl"
    recorder.write_jsonl(str(path), {"workload": workload, "seed": seed, "seconds": seconds})
    report.notes["spans"] = f"{len(recorder.spans)} spans written to {path.relative_to(common.ROOT)}"
