"""train-index: fused LightLT training, index build and MAP@100.

Paper-scale cifar100-lt (``load_dataset("cifar100", 50, scale="paper")``:
dim 512; 3,606 train, 50,000 db and 10,000 query rows). Set-up loads the
dataset and starts a fused training session (which warm-starts the
codebooks with residual k-means). The run trains one epoch per
``SECONDS_PER_EPOCH`` of ``--seconds`` (two at ``--seconds 20``), indexes
chunks of seeded database rows with ``LightLT.build_index`` in equal groups
before the first epoch and after each one, and scores MAP@100 over fixed
queries against the last (fixed) chunk's index. Serving is idle
throughout.

End-to-end metrics: ``latency_ms`` is the median interval between
training steps, ``throughput_per_s`` the items per second of the fastest
chunk build, ``quality`` the MAP@100.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
from repro.core.trainer import Trainer, TrainerHooks
from repro.data.registry import load_dataset
from repro.experiments.config import (
    default_loss_config,
    default_model_config,
    default_training_config,
)
from repro.retrieval.metrics import mean_average_precision

import spans

#: The corpus is one fixed dataset, as a real cifar100-lt would be, and
#: training starts from one fixed initialisation: step time depends on the
#: initialisation seed (7.3-9.0 steps/s across four seeds on a 2-core
#: host), which would swamp the changes this workload exists to detect.
#: ``--seed`` picks the database rows of the timed chunk builds.
DATASET_SEED = TRAIN_SEED = 0
#: Training epochs per this many seconds of --seconds (an epoch is about
#: 7 s on a 2-core host; a time box made the epoch count, and with it MAP,
#: depend on the host's speed).
SECONDS_PER_EPOCH = 10
#: Epochs the cosine schedule is laid out over (the run trains fewer).
SCHEDULE_EPOCHS = 10
#: Database rows indexed, in chunks each built by build_index; MAP is
#: scored against the last chunk's index. Build rate is read from the
#: fastest build, which resists the bursts of interference a shared host
#: adds; the builds are spread over the run so that some fall outside a
#: slow spell (the same build ran at 5.1-5.5k items/s for seconds at a
#: time, then at 7.4-8k).
BUILD_CHUNKS, CHUNK_ITEMS = 12, 3_000
MAP_QUERIES = 4_000
MAP_CUTOFF = 100


class Fixture:
    def __init__(self, seed: int) -> None:
        self.dataset = load_dataset("cifar100", 50, scale="paper", seed=DATASET_SEED)
        dataset = self.dataset
        config = dataclasses.replace(default_training_config(dataset, fast=True), fused=True)
        trainer = Trainer(default_model_config(dataset), default_loss_config(dataset),
                          config, seed=TRAIN_SEED)
        self.session = trainer.start_session(dataset, epochs=SCHEDULE_EPOCHS)

    def close(self) -> None:
        pass


def params() -> dict:
    return {"dataset": "cifar100 IF=50 scale=paper", "dataset_seed": DATASET_SEED,
            "train_seed": TRAIN_SEED, "seconds_per_epoch": SECONDS_PER_EPOCH, "fused": True,
            "schedule_epochs": SCHEDULE_EPOCHS,
            "build_chunks": BUILD_CHUNKS, "chunk_items": CHUNK_ITEMS,
            "map_queries": MAP_QUERIES, "map_cutoff": MAP_CUTOFF}


def measure(fixture: Fixture, seed: int, seconds: float, report, recorder=None) -> dict:
    session, dataset = fixture.session, fixture.dataset
    model = session.model
    phase = spans.phase(recorder)
    # The last chunk and the MAP queries are the same in every run, so MAP
    # repeats exactly for a given program; the other chunks follow --seed.
    fixed = np.random.default_rng(DATASET_SEED)
    eval_rows = fixed.choice(len(dataset.database), size=CHUNK_ITEMS, replace=False)
    rest = np.setdiff1d(np.arange(len(dataset.database)), eval_rows)
    seeded = np.random.default_rng(seed).choice(
        rest, size=(BUILD_CHUNKS - 1) * CHUNK_ITEMS, replace=False)
    chunks = [*np.split(seeded, BUILD_CHUNKS - 1), eval_rows]
    builds: list[float] = []

    def build(rows):
        with phase("bench.build"):
            t0 = time.perf_counter()
            index = model.build_index(dataset.database.features[rows],
                                      labels=dataset.database.labels[rows])
            builds.append(time.perf_counter() - t0)
        return index

    # One epoch per SECONDS_PER_EPOCH of the run, with a group of chunk
    # builds before the first and after each, so both rates are sampled
    # across the run, not in one burst. The count follows --seconds, never
    # the host's speed, so the work and MAP are the same in every run.
    n_epochs = max(1, int(seconds // SECONDS_PER_EPOCH))
    per_group = BUILD_CHUNKS // (n_epochs + 1)
    intervals: list[np.ndarray] = []
    epochs, losses, skipped, train_wall = 0, [], 0, 0.0
    for rows in chunks[:per_group]:
        build(rows)
    chunks = chunks[per_group:]
    model.train()  # build_index switched to eval
    while epochs < n_epochs and not session.finished:
        stamps: list[float] = []
        hooks = TrainerHooks(transform_loss=lambda epoch, step, value: (
            stamps.append(time.perf_counter()), value)[1])
        start = time.perf_counter()
        with phase("bench.train"):
            epoch = session.run_epoch(hooks)
        train_wall += time.perf_counter() - start
        intervals.append(np.diff(stamps))
        losses.append(epoch.terms["total"])
        skipped += epoch.skipped_steps
        epochs += 1
        if epochs < n_epochs:
            for rows in chunks[:per_group]:
                build(rows)
            chunks = chunks[per_group:]
        model.train()  # build_index switched to eval
    for rows in chunks:
        index = build(rows)
    steps = sum(len(i) + 1 for i in intervals)
    step_ms = 1e3 * float(np.median(np.concatenate(intervals)))

    rows = fixed.choice(len(dataset.query), size=MAP_QUERIES, replace=False)
    ranked = model.search_ranked_labels(dataset.query.features[rows], index, k=MAP_CUTOFF)
    map_100 = mean_average_precision(ranked, dataset.query.labels[rows], cutoff=MAP_CUTOFF)
    model.train()  # build_index/embed switched to eval; later epochs train

    report.count(steps + BUILD_CHUNKS + MAP_QUERIES, skipped)
    report.notes["train"] = (
        f"{epochs} epoch(s), {steps} steps in {train_wall:.2f} s "
        f"({1e3 / step_ms:.2f} steps/s at the median step), "
        f"epoch loss {', '.join(f'{x:.4f}' for x in losses)}"
    )
    report.notes["build"] = (
        f"{BUILD_CHUNKS} builds of {CHUNK_ITEMS} items: "
        + ", ".join(f"{b:.2f}" for b in builds) + " s"
    )
    report.check("train-index.map_finite", math.isfinite(map_100), f"MAP@100 {map_100:.4f}")
    report.check("train-index.loss_finite", all(math.isfinite(x) for x in losses))
    return {
        "metrics": {
            "latency_ms": step_ms,
            "throughput_per_s": CHUNK_ITEMS / min(builds),
            "quality": map_100,
        },
    }
