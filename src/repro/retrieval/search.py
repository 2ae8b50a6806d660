"""Search primitives and the one search contract every surface shares.

Three things live here:

1. Exhaustive nearest-neighbour search over continuous representations —
   the uncompressed reference point every quantizer is compared against:
   it defines both the accuracy ceiling and the inference-cost baseline
   (``O(n_db · d)`` per query, §IV-B). With observability enabled
   (:mod:`repro.obs`), :func:`exhaustive_search` times each call
   (``search.exhaustive.time_s``) so ADC speedups can be read straight off
   a metrics export instead of re-deriving them.
2. :class:`SearchRequest` / :class:`SearchResult` and the
   :class:`SearchSurface` base: every index surface
   (:class:`~repro.retrieval.index.QuantizedIndex`,
   :class:`~repro.retrieval.engine.QueryEngine`,
   :class:`~repro.retrieval.ivf.IVFIndex`,
   :class:`~repro.retrieval.mutable.MutableIndex`) implements only
   ``search_with_distances`` and inherits ``search(queries, k) -> ids`` and
   ``serve(SearchRequest) -> SearchResult`` from the base.
3. The ranking kernels those surfaces share: :func:`rescore_exact` (the
   float64 ADC re-scoring of candidate columns) and
   :func:`merge_by_distance` (the tie-stable ``(distance, id)`` top-k).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_obs
from repro.obs import names as metric_names


@dataclass(frozen=True)
class SearchRequest:
    """One search call, as data: the canonical way to ask for neighbours.

    Every search surface's ``serve`` takes a ``SearchRequest`` and returns
    a :class:`SearchResult`. Hints a given surface cannot honour are
    errors, not silent no-ops: ``nprobe`` without an IVF layer raises
    ``ValueError`` everywhere. Non-finite queries are rejected here, at the
    boundary.

    Attributes
    ----------
    queries:
        ``(n_q, d)`` query batch; a single ``(d,)`` vector is promoted to a
        one-row batch.
    k:
        Neighbours per query; ``None`` asks for the full ranking (refused
        by pruned IVF paths, which cannot produce it).
    nprobe:
        IVF cells probed per query. Only valid when the serving surface has
        an IVF layer attached; ``0`` bypasses the layer for an exact scan.
    rerank:
        Override the engine's float64 rerank setting for this call
        (``None`` keeps the surface's default).
    deadline_s:
        End-to-end budget hint in seconds. Honoured by the serving daemon
        (it replaces the configured request timeout); synchronous in-process
        scans ignore it.
    encoder:
        Query-encoder selection for surfaces that accept *raw features*
        instead of embeddings (the serving daemon): ``"full"`` runs the
        trained backbone + DSQ stack, ``"light"`` the distilled
        :class:`~repro.encoding.LightQueryEncoder` fast path. ``None``
        (default) means ``queries`` are already embeddings. Surfaces
        without the named encoder raise ``ValueError`` — a hint is never a
        silent no-op.
    """

    queries: np.ndarray
    k: int | None = None
    nprobe: int | None = None
    rerank: bool | None = None
    deadline_s: float | None = None
    encoder: str | None = None

    def __post_init__(self) -> None:
        queries = np.asarray(self.queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2:
            raise ValueError(
                f"queries must be (n_q, d) or (d,), got shape {queries.shape}"
            )
        if not np.isfinite(queries).all():
            raise ValueError("queries must be finite (NaN/inf rejected)")
        object.__setattr__(self, "queries", queries)
        if self.k is not None and self.k < 0:
            raise ValueError("k must be non-negative (or None for the full ranking)")
        if self.nprobe is not None and self.nprobe < 0:
            raise ValueError("nprobe must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.encoder is not None and self.encoder not in ("full", "light"):
            raise ValueError(
                "encoder must be 'full', 'light', or None (embeddings), "
                f"got {self.encoder!r}"
            )

    @property
    def n_queries(self) -> int:
        return self.queries.shape[0]

    @property
    def dim(self) -> int:
        return self.queries.shape[1]


@dataclass(frozen=True)
class SearchResult:
    """Ranked neighbours for one :class:`SearchRequest`.

    ``indices``/``distances`` are ``(n_q, width)`` with ``width = min(k,
    candidates)``; ``source`` names the path that served the scan (e.g.
    ``"serial-adc"``, ``"in-process"``, ``"process-pool"``, ``"ivf"``,
    ``"mutable"``).
    """

    indices: np.ndarray
    distances: np.ndarray
    k: int | None = None
    source: str = ""
    elapsed_s: float = 0.0
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def width(self) -> int:
        """Neighbours actually returned per query."""
        return self.indices.shape[1]


def check_queries(queries: np.ndarray, dim: int, k: int | None) -> np.ndarray:
    """The boundary check every ``search_with_distances`` runs first.

    Returns ``queries`` as a float64 ``(n, dim)`` batch; raises
    ``ValueError`` on a wrong shape, a non-finite entry (a NaN query would
    otherwise rank to arbitrary ids with NaN distances), or a negative
    ``k``.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or (queries.size and queries.shape[1] != dim):
        raise ValueError(f"queries must be (n, {dim}), got shape {queries.shape}")
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite (NaN/inf rejected)")
    if k is not None and k < 0:
        raise ValueError("k must be non-negative")
    return queries


class SearchSurface:
    """The one search contract: ``search`` and ``serve`` over one kernel.

    A surface implements ``search_with_distances(queries, k=None, *,
    nprobe=None, rerank=None) -> (ids, distances)`` — ``(n_q, min(k,
    n))`` arrays ranked by (distance, id) — and names the path that served
    it in :attr:`serve_source`. Everything else is defined here once.
    """

    #: ``SearchResult.source`` for requests this surface serves.
    serve_source = ""

    def search_with_distances(self, queries, k=None, *, nprobe=None, rerank=None):
        raise NotImplementedError

    def search(self, queries: np.ndarray, k: int | None = None) -> np.ndarray:
        """Ranked ids per query: ``(n_q, min(k, n))``, or the full ranking
        for ``k=None`` (surfaces that prune refuse it)."""
        if isinstance(queries, SearchRequest):
            raise TypeError(
                "search() takes a query array; pass a SearchRequest to serve()"
            )
        return self.search_with_distances(queries, k=k)[0]

    def serve(self, request: SearchRequest) -> SearchResult:
        """Serve one :class:`SearchRequest`, honouring its ``nprobe`` and
        ``rerank`` hints; ``encoder`` hints belong to the serving daemon."""
        if request.encoder is not None:
            raise ValueError(
                f"{type(self).__name__} scans embeddings; encoder hints are "
                "served by the serving daemon (repro.serving)"
            )
        start = time.perf_counter()
        indices, distances = self.search_with_distances(
            request.queries, k=request.k, nprobe=request.nprobe,
            rerank=request.rerank,
        )
        return SearchResult(
            indices=indices,
            distances=distances,
            k=request.k,
            source=self.serve_source,
            elapsed_s=time.perf_counter() - start,
        )


def rescore_exact(
    lut64: np.ndarray,
    q_sq64: np.ndarray,
    codes_t: np.ndarray,
    norms64: np.ndarray,
    columns: np.ndarray,
) -> np.ndarray:
    """Float64 squared ADC distances of candidate columns (Eqn. 24).

    ``lut64`` is ``(n_q, M, K)``, ``q_sq64`` ``(n_q,)``, ``codes_t`` the
    ``(M, n)`` transposed codes, ``norms64`` ``(n,)`` and ``columns`` the
    ``(n_q, c)`` code-column positions to score. Accumulates codebooks left
    to right like the serial scan, so the result is bit-identical to
    :func:`repro.retrieval.adc.adc_distances` at those columns. Cost is
    ``O(n_q · c · M)`` — negligible next to the scan it corrects.
    """
    rows = np.arange(len(columns))[:, None]
    cross = lut64[rows, 0, codes_t[0][columns]]
    for j in range(1, codes_t.shape[0]):
        cross += lut64[rows, j, codes_t[j][columns]]
    d = q_sq64[:, None] + norms64[columns] - 2.0 * cross
    np.maximum(d, 0.0, out=d)
    return d


def merge_by_distance(
    distances: np.ndarray, ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` of ``(n, w)`` candidates, ordered by (distance, id).

    The one tie-stable merge: ties resolve to the lower id, the order a
    stable ascending sort of the unsplit distance matrix produces — so
    candidates pooled from shards, segments or cells merge to the serial
    ranking. Returns ``(ids, distances)`` of shape ``(n, min(k, w))``.
    """
    order = np.lexsort((ids, distances), axis=-1)[:, :k]
    rows = np.arange(len(ids))[:, None]
    return ids[rows, order], distances[rows, order]


def squared_distances(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """``(n_q, n_db)`` squared Euclidean distance matrix."""
    queries = np.asarray(queries, dtype=np.float64)
    database = np.asarray(database, dtype=np.float64)
    q_sq = (queries**2).sum(axis=1, keepdims=True)
    db_sq = (database**2).sum(axis=1)
    d2 = q_sq + db_sq[None, :] - 2.0 * queries @ database.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def hamming_distances(query_codes: np.ndarray, db_codes: np.ndarray) -> np.ndarray:
    """``(n_q, n_db)`` Hamming distances between ±1 binary codes.

    For codes in {-1, +1}^b, ``hamming = (b - q·x) / 2``; used by every
    binarized-hash baseline.
    """
    query_codes = np.asarray(query_codes, dtype=np.float64)
    db_codes = np.asarray(db_codes, dtype=np.float64)
    bits = query_codes.shape[1]
    return (bits - query_codes @ db_codes.T) / 2.0


def topk_tie_stable(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row indices and values of the ``k`` smallest entries, tie-stable.

    Ordering is lexicographic on ``(distance, column index)`` — the order a
    stable ascending argsort produces — so duplicated distances always
    resolve to the lower index, independent of how the selection was
    partitioned. Returns ``(indices, values)`` of shape ``(n, min(k, w))``.
    """
    distances = np.asarray(distances)
    n, w = distances.shape
    k = max(0, min(k, w))
    rows = np.arange(n)[:, None]
    if k == 0:
        return (np.empty((n, 0), dtype=np.int64),
                np.empty((n, 0), dtype=distances.dtype))
    if k == w:
        order = np.argsort(distances, axis=1, kind="stable")
        return order, distances[rows, order]
    part = np.argpartition(distances, k - 1, axis=1)[:, :k]
    part, vals = merge_by_distance(distances[rows, part], part, k)
    # argpartition picks an *arbitrary* subset of entries tied with the k-th
    # value; rows where that tie extends past the selection need the stable
    # choice (lowest indices) restored.
    boundary = vals[:, -1]
    in_row = (distances == boundary[:, None]).sum(axis=1)
    in_sel = (vals == boundary[:, None]).sum(axis=1)
    for r in np.nonzero(in_row > in_sel)[0]:
        full = np.argsort(distances[r], kind="stable")[:k]
        part[r] = full
        vals[r] = distances[r, full]
    return part.astype(np.int64, copy=False), vals


def rank_by_distance(distances: np.ndarray, k: int | None = None) -> np.ndarray:
    """Ranked database indices (ascending distance), optionally top-k.

    Uses ``argpartition`` for the top-k case so large databases don't pay a
    full sort per query, with tie-stable ordering — duplicated distances
    resolve to the lower database index, matching the full stable argsort
    and the sharded engine's merge order.
    """
    distances = np.asarray(distances)
    n_db = distances.shape[1]
    if k is None or k >= n_db:
        return np.argsort(distances, axis=1, kind="stable")
    return topk_tie_stable(distances, k)[0]


def exhaustive_search(
    queries: np.ndarray,
    database: np.ndarray,
    k: int | None = None,
    batch_size: int = 1024,
) -> np.ndarray:
    """Ranked nearest-neighbour indices by exact Euclidean distance.

    Processes queries in batches to bound peak memory at
    ``batch_size × n_db`` floats.
    """
    queries = np.asarray(queries, dtype=np.float64)
    database = np.asarray(database, dtype=np.float64)
    obs = get_obs()
    start_time = time.perf_counter() if obs.enabled else 0.0
    results = []
    for start in range(0, len(queries), batch_size):
        block = queries[start : start + batch_size]
        results.append(rank_by_distance(squared_distances(block, database), k=k))
    if obs.enabled:
        obs.registry.histogram(metric_names.SEARCH_EXHAUSTIVE_TIME).observe(
            time.perf_counter() - start_time
        )
    if results:
        return np.concatenate(results, axis=0)
    # An empty query batch keeps the column convention of the non-empty
    # case — (0, k) when k truncates, (0, n_db) otherwise — so callers can
    # concatenate batches or gather labels without special-casing.
    n_db = len(database)
    width = n_db if k is None or k >= n_db else max(k, 0)
    return np.empty((0, width), dtype=np.int64)
