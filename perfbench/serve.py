"""serve-read and serve-churn: the daemon under an open loop of users.

Both serve a flat synthetic Zipf long-tail corpus (50k items, residual
k-means codebooks, M=8, K=256) through a default-config
:class:`~repro.serving.ServingDaemon` with 2 replicas, in-process, from one
asyncio loop. serve-read sends reads at three fixed rates; serve-churn
serves the same corpus over a :class:`~repro.retrieval.MutableIndex`
(auto-compaction on) with reads at the ``mid`` rate while a writer adds
head-first arrival batches and removes old rows through
``ServingDaemon.mutate``. The corpus and its query pool are the same in
every run; ``--seed`` picks the traffic: which pool queries are asked, and
what the writer adds and removes.

End-to-end metrics: ``latency_ms`` is the median latency of every timed
read; ``throughput_per_s`` is answered requests per second at the highest
rate that met the limit (serve-read) or acknowledged written rows per
second (serve-churn); ``quality`` is the share of checked answers that
were exact.
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
import time
import zlib
from dataclasses import dataclass

import numpy as np
from repro.core.warmstart import residual_kmeans_codebooks
from repro.data.longtail import stream_arrivals, zipf_class_sizes
from repro.data.synthetic import make_feature_model
from repro.retrieval import MutableIndex, MutationRequest, QuantizedIndex, QueryEngine
from repro.serving import ServingDaemon

import loadgen
import spans

#: Seed of the corpus and query pool. A seeded corpus moved set-up time by
#: 0.25 (IQR over median) across five seeds.
CORPUS_SEED = 0
N_ITEMS = 50_000
DIM = 32
NUM_CODEBOOKS, NUM_CODEWORDS = 8, 256
NUM_CLASSES = 100
#: Rows the codebooks are trained on, and k-means iterations per level.
CODEBOOK_SAMPLE, CODEBOOK_ITERATIONS = 2048, 10
#: Distinct queries in the pool: more than the daemon's result cache
#: (2048 entries) holds, drawn Zipf(ZIPF_S) so popular queries repeat.
#: Expected result-cache hit shares (2 s TTL) are about 0.10 / 0.14 / 0.2
#: at the three rates, so every p50 is an engine-served request; at a
#: hit share near one half the p50 flipped between hit and miss latency.
POOL_SIZE = 32_768
ZIPF_S = 0.8
K = 10
#: p99 latency limit a rate must meet to count toward serve-read's
#: ``throughput_per_s``:
#: about ten times the healthy p99, so one host stall does not flip it.
LIMIT_S = 0.100
#: Fixed request rates (req/s). See README: placed so each one repeats.
RATES = {"low": 50.0, "mid": 100.0, "high": 300.0}
#: Share of ``--seconds`` each serve-read rate runs for: at 20 s, 400 / 800
#: / 1,200 requests, so each tail percentile rests on a full tail block.
RATE_SHARE = {"low": 0.4, "mid": 0.4, "high": 0.2}
WARMUP_S = 1.0
#: After the last send, answers are awaited this long (request deadline
#: plus slack) before open requests count as timed out.
DRAIN_S = 3.0
#: serve-churn writer: one mutation every WRITE_INTERVAL_S, alternating an
#: add of the next arrival batch (ADD_ROWS_PER_S rows/s on average) with a
#: remove of as many seeded base rows, so the live corpus keeps its size.
#: (With adds alone the corpus grew 70% in a run and reads collapsed
#: partway through it; see README.)
WRITE_INTERVAL_S = 0.1
ADD_ROWS_PER_S = 1500
AUTO_COMPACT_SEGMENTS = 4
AUTO_COMPACT_DEAD_FRACTION = 0.2
#: Answers compared against a direct exact engine search.
CHECK_SAMPLE = 64


@dataclass
class Corpus:
    model: object
    class_p: np.ndarray
    index: QuantizedIndex
    pool: np.ndarray


def build_corpus(seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    model = make_feature_model(
        NUM_CLASSES, DIM, separation=4.0, intra_sigma=0.8, rng=rng
    )
    sizes = zipf_class_sizes(NUM_CLASSES, 10_000, 50.0)
    class_p = sizes / sizes.sum()
    labels = rng.choice(NUM_CLASSES, size=N_ITEMS, p=class_p)
    features = model.sample(labels, rng)
    sample = features[rng.choice(N_ITEMS, size=CODEBOOK_SAMPLE, replace=False)]
    codebooks = residual_kmeans_codebooks(
        sample, NUM_CODEBOOKS, NUM_CODEWORDS, rng=rng,
        max_iterations=CODEBOOK_ITERATIONS,
    )
    index = QuantizedIndex.build(codebooks, features, labels=labels)
    pool = model.sample(rng.choice(NUM_CLASSES, size=POOL_SIZE, p=class_p), rng)
    return Corpus(model, class_p, index, np.ascontiguousarray(pool))


class Fixture:
    """Corpus, served index and daemon (not yet started). A daemon serves
    one pass (stopping it closes its engines), so :meth:`begin_pass` gives
    every pass after the first a fresh one, over a fresh mutable index for
    serve-churn."""

    def __init__(self, seed: int, churn: bool) -> None:
        self.churn = churn
        self.corpus = build_corpus(CORPUS_SEED)
        self.daemon = self.mutable = None
        self._build()
        self.used = False

    def begin_pass(self) -> None:
        if self.used:
            self.close()
            self._build()
        self.used = True

    def _build(self) -> None:
        served = self.corpus.index
        if self.churn:
            self.mutable = MutableIndex.from_index(
                served,
                auto_compact_segments=AUTO_COMPACT_SEGMENTS,
                auto_compact_dead_fraction=AUTO_COMPACT_DEAD_FRACTION,
            )
            served = self.mutable
        self.daemon = ServingDaemon(served, num_replicas=2)

    def close(self) -> None:
        if self.daemon is not None:
            for replica in self.daemon.replica_set.replicas:
                replica.engine.close()
        if self.mutable is not None:
            self.mutable.close()

    def lut_counts(self) -> tuple[int, int]:
        """Summed (hits, misses) of the replicas' LUT caches (a mutable
        index has none)."""
        caches = [getattr(r.engine, "lut_cache", None) for r in self.daemon.replica_set.replicas]
        caches = [c for c in caches if c is not None]
        return sum(c.hits for c in caches), sum(c.misses for c in caches)


def params(churn: bool) -> dict:
    out = {"corpus_seed": CORPUS_SEED, "items": N_ITEMS, "dim": DIM, "M": NUM_CODEBOOKS, "K": NUM_CODEWORDS,
           "replicas": 2, "pool": POOL_SIZE, "zipf_s": ZIPF_S, "k": K,
           "limit_ms": LIMIT_S * 1e3, "warmup_s": WARMUP_S}
    if churn:
        out.update(rate=RATES["mid"], write_interval_s=WRITE_INTERVAL_S,
                   add_rows_per_s=ADD_ROWS_PER_S, auto_compact_segments=AUTO_COMPACT_SEGMENTS,
                   auto_compact_dead_fraction=AUTO_COMPACT_DEAD_FRACTION)
    else:
        out.update(rates=RATES, rate_share=RATE_SHARE)
    return out


def _pass_rng(seed: int, label: str) -> np.random.Generator:
    """An independent stream per (seed, purpose)."""
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


async def _warm_up(daemon, pool: np.ndarray, seed: int) -> None:
    """WARMUP_S at the mid rate, unrecorded: caches and executor threads
    fill before any window is timed."""
    warm = loadgen.paced_schedule(
        RATES["mid"], WARMUP_S, POOL_SIZE, ZIPF_S, _pass_rng(seed, "warm")
    )
    await loadgen.drive(daemon, pool, warm, k=K, limit_s=LIMIT_S, drain_s=DRAIN_S)


def _window_notes(report, name: str, window) -> None:
    report.notes[f"{name}.requests"] = (
        f"rate {window.schedule.rate:g}/s sent {window.attempted} ok {window.n_ok} "
        f"failed {window.n_failed - window.n_refused} refused {window.n_refused} "
        f"backlog {window.backlog} meets_limit {window.meets_limit}"
    )
    report.notes[f"{name}.generator_late_p99_ms"] = round(window.late_p99_ms, 3)
    report.notes[f"{name}.latency_ms"] = " ".join(
        f"p{q}={window.latency_ms(q):.2f}" for q in (50, 90, 95, 99))


# ----------------------------------------------------------------------
# serve-read
# ----------------------------------------------------------------------
async def _read_pass(fixture: Fixture, seed: int, seconds: float,
                     inflight: dict | None) -> dict:
    daemon = fixture.daemon
    pool = fixture.corpus.pool
    windows = {}
    async with daemon:
        await _warm_up(daemon, pool, seed)
        base = 1_000_000
        for name, rate in RATES.items():
            schedule = loadgen.paced_schedule(
                rate, seconds * RATE_SHARE[name], POOL_SIZE, ZIPF_S,
                _pass_rng(seed, name),
            )
            counts_before = dict(daemon.counts)
            lut_before = fixture.lut_counts()
            window = await loadgen.drive(
                daemon, pool, schedule, k=K, limit_s=LIMIT_S, drain_s=DRAIN_S,
                inflight=inflight, id_base=base,
            )
            window.counts = {
                key: daemon.counts[key] - counts_before.get(key, 0)
                for key in daemon.counts
            }
            window.lut = tuple(a - b for a, b in zip(fixture.lut_counts(), lut_before))
            windows[name] = window
            base += 1_000_000
    return windows


def read_metrics(windows: dict, exact_share: float) -> dict:
    """Median over every timed read; answered requests per second at the
    highest rate that met the limit (0 if none did)."""
    latency = np.concatenate([w.latency_s for w in windows.values()])
    passing = [w for w in windows.values() if w.meets_limit]
    best = max(passing, key=lambda w: w.schedule.rate).ok_qps if passing else 0.0
    return {
        "latency_ms": 1e3 * float(np.median(latency)),
        "throughput_per_s": best,
        "quality": exact_share,
    }


def check_answers(report, fixture: Fixture, answers, seed: int, name: str) -> float:
    """A seeded sample of non-degraded engine answers must equal a direct
    exact QueryEngine search of the same queries; returns the exact share."""
    engine_answers = [
        (row, res) for row, res in answers
        if res.source == "engine" and not res.degraded
    ]
    if not engine_answers:
        report.check(name, False, "no non-degraded engine answers to compare")
        return 0.0
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(len(engine_answers), size=min(CHECK_SAMPLE, len(engine_answers)),
                       replace=False)
    rows = np.array([engine_answers[i][0] for i in picks])
    with QueryEngine(fixture.corpus.index) as engine:
        want_idx, want_dist = engine.search_with_distances(
            fixture.corpus.pool[rows], k=K
        )
    bad = 0
    for j, i in enumerate(picks):
        res = engine_answers[i][1]
        if not (np.array_equal(res.indices, want_idx[j])
                and np.allclose(res.distances, want_dist[j])):
            bad += 1
    report.check(name, bad == 0, f"{len(picks) - bad}/{len(picks)} sampled answers exact")
    return 1.0 - bad / len(picks)


def serve_read(fixture: Fixture, seed: int, seconds: float, report,
               recorder=None) -> dict:
    inflight = recorder.inflight if recorder is not None else None
    windows = asyncio.run(_read_pass(fixture, seed, seconds, inflight))
    answers = []
    for name, window in windows.items():
        report.count(window.attempted, window.n_failed)
        _window_notes(report, name, window)
        answers.extend(window.answers)
    with spans.phase(recorder)("bench.check"):
        exact = check_answers(report, fixture, answers, seed, "serve-read.engine_exact")
    return {"windows": windows, "metrics": read_metrics(windows, exact)}


# ----------------------------------------------------------------------
# serve-churn
# ----------------------------------------------------------------------
def _arrivals(fixture: Fixture, seed: int, seconds: float):
    """Add batches following ``stream_arrivals`` (head classes first)."""
    n_steps = max(2, int(round(seconds / WRITE_INTERVAL_S)))
    n_adds = (n_steps + 1) // 2
    total = int(ADD_ROWS_PER_S * seconds)
    sizes = np.maximum(np.round(fixture.corpus.class_p * total).astype(np.int64), 0)
    rng = _pass_rng(seed, "arrivals")
    steps = stream_arrivals(sizes, n_adds, rng=rng, stagger=0.75)
    return [(fixture.corpus.model.sample(step.labels, rng), step.labels) for step in steps]


async def _churn_pass(fixture: Fixture, seed: int, seconds: float,
                      inflight: dict | None) -> dict:
    daemon = fixture.daemon
    pool = fixture.corpus.pool
    adds = _arrivals(fixture, seed, seconds)
    remove_rng = _pass_rng(seed, "removes")
    removable = list(remove_rng.permutation(N_ITEMS))
    acked = {"rows": 0, "mutations": 0, "mutate_s": [], "elapsed": 0.0}

    async def writer(start: float) -> None:
        """One mutation per WRITE_INTERVAL_S while the window lasts; a
        writer that falls behind sends its next mutation at once. Rows
        per second are counted up to the last acknowledgement."""
        loop = asyncio.get_running_loop()
        add_iter = iter(adds)
        for step in itertools.count():
            due = start + step * WRITE_INTERVAL_S
            now = loop.time()
            if max(due, now) >= start + seconds:
                return
            if due > now:
                await asyncio.sleep(due - now)
            if step % 2:
                ids = np.array([removable.pop() for _ in range(last_added)])
                request = MutationRequest(op="remove", ids=ids)
            else:
                batch = next(add_iter, None)
                if batch is None:
                    return
                request = MutationRequest(op="add", vectors=batch[0], labels=batch[1])
                last_added = len(batch[0])
            t0 = time.perf_counter()
            result = await daemon.mutate(request)
            acked["mutate_s"].append(time.perf_counter() - t0)
            acked["rows"] += result.added + result.removed
            acked["mutations"] += 1
            acked["elapsed"] = loop.time() - start

    async with daemon:
        await _warm_up(daemon, pool, seed)
        schedule = loadgen.paced_schedule(
            RATES["mid"], seconds, POOL_SIZE, ZIPF_S, _pass_rng(seed, "churn")
        )
        counts_before = dict(daemon.counts)
        loop = asyncio.get_running_loop()
        start = loop.time()
        write_task = asyncio.create_task(writer(start))
        window = await loadgen.drive(
            daemon, pool, schedule, k=K, limit_s=LIMIT_S, drain_s=DRAIN_S,
            inflight=inflight, id_base=1_000_000,
        )
        await write_task
        window.counts = {
            key: daemon.counts[key] - counts_before.get(key, 0) for key in daemon.counts
        }
    return {"window": window, "acked": acked}


def serve_churn(fixture: Fixture, seed: int, seconds: float, report,
                recorder=None) -> dict:
    inflight = recorder.inflight if recorder is not None else None
    out = asyncio.run(_churn_pass(fixture, seed, seconds, inflight))
    window, acked = out["window"], out["acked"]
    report.count(window.attempted, window.n_failed)
    _window_notes(report, "mid", window)
    report.notes["writes"] = (
        f"{acked['mutations']} mutations, {acked['rows']} rows acknowledged, "
        f"mutate p50 {1e3 * statistics.median(acked['mutate_s']):.1f} ms"
        if acked["mutate_s"] else "no mutations"
    )
    mutable = fixture.mutable
    report.notes["index"] = (
        f"generation {mutable.generation}, {mutable.num_segments} segments, "
        f"{len(mutable)} live rows"
    )
    # Final parity: the mutable index answers exactly like its rebuild.
    rng = np.random.default_rng([seed, 11])
    queries = fixture.corpus.pool[rng.choice(POOL_SIZE, size=CHECK_SAMPLE, replace=False)]
    with spans.phase(recorder)("bench.check"):
        got = mutable.search(queries, k=K)
        rebuilt, external = mutable.rebuild()
        with QueryEngine(rebuilt) as engine:
            want = external[engine.search_with_distances(queries, k=K)[0]]
    same = np.all(got == want, axis=1)
    report.check("serve-churn.rebuild_parity", bool(same.all()),
                 f"{int(same.sum())}/{CHECK_SAMPLE} queries")
    metrics = {
        "latency_ms": window.latency_ms(50),
        "throughput_per_s": acked["rows"] / acked["elapsed"],
        "quality": float(same.mean()),
    }
    return {"window": window, "metrics": metrics, "acked": acked}
