"""ivf-batch: IVF build and batched search of distinct queries.

A synthetic Zipf long-tail corpus (``N_ITEMS`` items, dim 32, residual
k-means codebooks M=8, K=256) is indexed with ``IVFIndex.build`` using the
default sqrt(n) cells, then searched in batches of distinct queries at one
fixed ``nprobe``. Recall@10 is scored against the exhaustive
``QueryEngine`` (not timed). Serving and the LUT cache are bypassed: every
query is new, so the cache never hits. The corpus, its codebooks and the
IVF layout are the same in every run; ``--seed`` picks the queries.

End-to-end metrics: ``latency_ms`` is the ``BATCH_PERCENTILE`` time of
one batch, ``throughput_per_s`` the items per second of the fastest
build, ``quality`` the recall@10.
"""

from __future__ import annotations

import time

import numpy as np
from repro.core.warmstart import residual_kmeans_codebooks
from repro.data.longtail import zipf_class_sizes
from repro.data.synthetic import make_feature_model
from repro.retrieval import IVFIndex, QuantizedIndex, QueryEngine

import spans

#: Seed of the corpus, its codebooks and the IVF k-means. A seeded corpus
#: and layout moved build time and batch time by 0.13-0.16 (IQR over
#: median) across five seeds.
CORPUS_SEED = 0
N_ITEMS = 40_000
DIM = 32
NUM_CODEBOOKS, NUM_CODEWORDS = 8, 256
NUM_CLASSES = 200
CODEBOOK_SAMPLE, CODEBOOK_ITERATIONS = 4096, 10
#: Probe width: recall@10 at 16 / 24 / 32 cells was 0.947-0.954 /
#: 0.968-0.973 / 0.980-0.983 over four seeds, so 32 clears the floor with
#: margin.
NPROBE = 32
BATCH = 64
#: Batch time is read at this percentile: the scan's cost when the host is
#: not interfering. Over ten seeds its IQR over median was 0.015, against
#: 0.094 for the median batch, which follows the host's slow spells.
BATCH_PERCENTILE = 10
#: Build time is read from the fastest build, which resists the bursts of
#: interference a shared host adds.
BUILD_REPEATS = 3
#: Share of ``--seconds`` spent in timed batched search.
SEARCH_SHARE = 0.5
#: Distinct queries generated up front: about four times what a 20 s run
#: searches on a 2-core host. A faster program that runs out ends its
#: search early rather than repeat a query.
QUERY_POOL = 100_000
#: Queries whose IVF answers are scored against the exhaustive oracle.
RECALL_QUERIES = 512
#: The repository's IVF recall floor (``repro.obs.bench.IVF_RECALL_FLOOR``).
RECALL_FLOOR = 0.95
K = 10


class Fixture:
    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(CORPUS_SEED)
        model = make_feature_model(
            NUM_CLASSES, DIM, separation=4.5, intra_sigma=0.8, rng=rng,
            nuisance_dim=4, nuisance_sigma=0.5,
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
        self.index = QuantizedIndex.build(codebooks, features, labels=labels)
        rng = np.random.default_rng(seed)
        self.queries = np.ascontiguousarray(
            model.sample(rng.integers(NUM_CLASSES, size=QUERY_POOL), rng)
        )

    def close(self) -> None:
        pass


def params() -> dict:
    return {"corpus_seed": CORPUS_SEED, "items": N_ITEMS, "dim": DIM, "M": NUM_CODEBOOKS, "K": NUM_CODEWORDS,
            "nprobe": NPROBE, "batch": BATCH, "build_repeats": BUILD_REPEATS,
            "batch_percentile": BATCH_PERCENTILE, "search_share": SEARCH_SHARE, "recall_queries": RECALL_QUERIES}


def measure(fixture: Fixture, seed: int, seconds: float, report, recorder=None) -> dict:
    phase = spans.phase(recorder)
    index, queries = fixture.index, fixture.queries
    builds, batch_times, answers, slices = [], [], [], []
    sent, search_wall = 0, 0.0
    # Builds and search slices alternate, so a slow spell of the host
    # falls on a share of each, not on all of one.
    for _ in range(BUILD_REPEATS):
        with phase("bench.ivf.build"):
            start = time.perf_counter()
            ivf = IVFIndex.build(index, seed=CORPUS_SEED)
            builds.append(time.perf_counter() - start)
        start = time.perf_counter()
        with phase("bench.ivf.search"):
            while time.perf_counter() - start < SEARCH_SHARE * seconds / BUILD_REPEATS:
                if sent + BATCH > len(queries):
                    break  # every query stays distinct; the slice ends early
                batch = queries[sent:sent + BATCH]
                t0 = time.perf_counter()
                ids, _ = ivf.search_with_distances(batch, k=K, nprobe=NPROBE)
                batch_times.append(time.perf_counter() - t0)
                if sent < RECALL_QUERIES:
                    answers.append(ids)
                sent += BATCH
        search_wall += time.perf_counter() - start
        slices.append(len(batch_times))

    got = np.concatenate(answers)[:RECALL_QUERIES]
    with phase("bench.check"), QueryEngine(index) as engine:
        exact = engine.search_with_distances(queries[:len(got)], k=K)[0]
    recall = float(np.mean([
        len(set(a) & set(b)) / K for a, b in zip(got, exact)
    ]))
    report.count(sent, 0)
    report.notes["ivf"] = (
        f"{ivf.num_cells} cells; builds {', '.join(f'{b:.2f}' for b in builds)} s; "
        f"{sent} queries in {len(batch_times)} batches over {search_wall:.2f} s, "
        f"{BATCH / float(np.median(batch_times)):.0f} queries/s at the median batch "
        f"(p50 {1e3 * np.median(batch_times):.2f} ms); "
        "median batch ms per slice "
        + ", ".join(f"{1e3 * np.median(part):.2f}"
                    for part in np.split(np.array(batch_times), slices[:-1]))
    )
    report.check("ivf-batch.recall_floor", recall >= RECALL_FLOOR,
                 f"recall@10 {recall:.4f} vs floor {RECALL_FLOOR}")
    return {
        "metrics": {
            "latency_ms": 1e3 * float(np.percentile(batch_times, BATCH_PERCENTILE)),
            "throughput_per_s": N_ITEMS / min(builds),
            "quality": recall,
        },
        "wall_s": sum(builds) + search_wall,
        "queries": sent,
        "ivf": ivf,
    }
