"""Quantized retrieval index: the deployable artifact of LightLT.

Wraps the storage layout of §IV (codebooks + per-item codeword ids + one
stored norm per item) behind a search API, so examples and benchmarks can
index a database once and serve ranked retrieval with ADC lookups.

Both halves of the serving story are observable (:mod:`repro.obs`):
:meth:`QuantizedIndex.build` emits encode and total build times inside an
``index.build`` span, and every search of the serial path emits a per-query
latency histogram (``query.latency_s``) plus served-query counters — the
numbers ``repro bench`` reports and ``docs/metrics.md`` catalogues.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names
from repro.retrieval.adc import adc_distances, encode_nearest, reconstruct, validate_codes
from repro.retrieval.search import SearchSurface, check_queries, rank_by_distance


@dataclass
class QuantizedIndex(SearchSurface):
    """An immutable database of additive-quantization codes.

    Searching it runs the serial float64 ADC scan — the reference every
    faster surface (:class:`~repro.retrieval.engine.QueryEngine`,
    :class:`~repro.retrieval.ivf.IVFIndex`) is parity-tested against;
    ``search``/``serve`` come from :class:`SearchSurface`.

    Attributes
    ----------
    codebooks:
        ``(M, K, d)`` codeword tables.
    codes:
        ``(n_db, M)`` codeword ids per database item.
    db_sq_norms:
        ``(n_db,)`` stored ``‖Σ_j o^j‖²`` values (Eqn. 24's middle term).
    labels:
        Optional ``(n_db,)`` item labels carried along for evaluation.
    """

    codebooks: np.ndarray
    codes: np.ndarray
    db_sq_norms: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.codebooks = np.asarray(self.codebooks, dtype=np.float64)
        if self.codebooks.ndim != 3:
            raise ValueError("codebooks must be (M, K, d)")
        m, k, _ = self.codebooks.shape
        self.codes = validate_codes(self.codes, m, k)
        self.db_sq_norms = np.asarray(self.db_sq_norms, dtype=np.float64)
        if len(self.db_sq_norms) != len(self.codes):
            raise ValueError("db_sq_norms and codes disagree on database size")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if len(self.labels) != len(self.codes):
                raise ValueError("labels and codes disagree on database size")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        codebooks: np.ndarray,
        database: np.ndarray,
        labels: np.ndarray | None = None,
        codes: np.ndarray | None = None,
    ) -> "QuantizedIndex":
        """Index a database.

        If ``codes`` are not supplied (e.g. produced by a trained DSQ
        encoder), items are encoded greedily with residual nearest-codeword
        selection — the indexing workflow of Fig. 3.
        """
        obs = get_obs()
        build_start = time.perf_counter() if obs.enabled else 0.0
        encode_elapsed = None
        with obs.span("index.build", items=len(database)):
            codebooks = np.asarray(codebooks, dtype=np.float64)
            if codes is None:
                encode_start = time.perf_counter() if obs.enabled else 0.0
                codes = encode_nearest(database, codebooks, residual=True)
                if obs.enabled:
                    encode_elapsed = time.perf_counter() - encode_start
            reconstructions = reconstruct(codes, codebooks)
            index = cls(
                codebooks=codebooks,
                codes=codes,
                db_sq_norms=(reconstructions**2).sum(axis=1),
                labels=labels,
            )
        if obs.enabled:
            # Only the encode branch feeds the encode histogram: observing a
            # zero for supplied codes would drag its percentiles down.
            if encode_elapsed is not None:
                obs.registry.histogram(metric_names.INDEX_ENCODE_TIME).observe(
                    encode_elapsed
                )
            obs.registry.histogram(metric_names.INDEX_BUILD_TIME).observe(
                time.perf_counter() - build_start
            )
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.codes)

    @property
    def num_codebooks(self) -> int:
        return self.codebooks.shape[0]

    @property
    def num_codewords(self) -> int:
        return self.codebooks.shape[1]

    @property
    def dim(self) -> int:
        return self.codebooks.shape[2]

    def reconstructions(self) -> np.ndarray:
        """Decode every database item back to continuous space."""
        return reconstruct(self.codes, self.codebooks)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    serve_source = "serial-adc"

    def search_with_distances(
        self,
        queries: np.ndarray,
        k: int | None = None,
        *,
        nprobe: int | None = None,
        rerank: bool | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ranked ids and squared distances per query via ADC lookups.

        ``k=None`` returns the full ranking. The scan is already float64,
        so ``rerank`` has nothing to correct and is ignored; ``nprobe``
        needs an IVF layer and raises ``ValueError`` here — never a silent
        exhaustive fallback.

        With observability enabled the call records per-query latency into
        ``query.latency_s`` — the batch's wall time spread evenly over its
        queries, so single-query calls (the serving pattern the benchmark
        harness times) yield exact per-query percentiles.
        """
        if nprobe is not None:
            raise ValueError(
                "nprobe requires an engine with an IVF layer attached (serve "
                "through a QueryEngine built with ivf=..., or an IVFIndex)"
            )
        queries = check_queries(queries, self.dim, k)
        obs = get_obs()
        start = time.perf_counter()
        distance_matrix = adc_distances(
            queries, self.codes, self.codebooks, db_sq_norms=self.db_sq_norms
        )
        indices = rank_by_distance(distance_matrix, k=k)
        distances = distance_matrix[np.arange(len(indices))[:, None], indices]
        if obs.enabled:
            n_queries = len(queries)
            registry = obs.registry
            registry.counter(metric_names.QUERY_BATCHES_TOTAL).inc()
            if n_queries:
                registry.counter(metric_names.QUERY_ITEMS_TOTAL).inc(n_queries)
                registry.histogram(metric_names.QUERY_LATENCY).observe_many(
                    (time.perf_counter() - start) / n_queries, n_queries
                )
        return indices, distances

    def search_labels(self, queries: np.ndarray, k: int | None = None) -> np.ndarray:
        """Ranked database *labels*, ready for MAP evaluation."""
        if self.labels is None:
            raise RuntimeError("index was built without labels")
        return self.labels[self.search(queries, k=k)]
