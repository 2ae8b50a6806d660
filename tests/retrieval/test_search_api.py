"""Tests for the one search contract: SearchRequest/SearchResult and the
SearchSurface base every index surface inherits ``search``/``serve`` from.

Covers the request dataclass's validation (non-finite queries included),
one contract test run over all four surfaces against the exhaustive
float64 oracle, each surface's ``source`` label, and the loud
``ValueError`` for ``nprobe`` without an IVF layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.retrieval import (
    IVFIndex,
    MutableIndex,
    QuantizedIndex,
    SearchRequest,
    SearchResult,
)
from repro.retrieval.adc import adc_distances
from repro.retrieval.engine import QueryEngine


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(0)
    codebooks = rng.normal(size=(3, 16, 8))
    index = QuantizedIndex.build(codebooks, rng.normal(size=(150, 8)))
    return index, rng.normal(size=(7, 8))


class TestSearchRequest:
    def test_single_vector_promoted_to_batch(self):
        request = SearchRequest(queries=np.zeros(5))
        assert request.queries.shape == (1, 5)
        assert request.n_queries == 1 and request.dim == 5

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError, match="queries"):
            SearchRequest(queries=np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="k"):
            SearchRequest(queries=np.zeros(3), k=-1)
        with pytest.raises(ValueError, match="nprobe"):
            SearchRequest(queries=np.zeros(3), nprobe=-2)
        with pytest.raises(ValueError, match="deadline_s"):
            SearchRequest(queries=np.zeros(3), deadline_s=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_queries(self, bad):
        queries = np.zeros((2, 5))
        queries[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            SearchRequest(queries=queries, k=3)

    def test_result_width(self):
        result = SearchResult(
            indices=np.zeros((2, 4), dtype=np.int64),
            distances=np.zeros((2, 4)),
            k=4,
        )
        assert len(result) == 2 and result.width == 4


class TestIndexSurface:
    def test_request_matches_legacy_array_path(self, corpus):
        index, queries = corpus
        result = index.serve(SearchRequest(queries=queries, k=10))
        assert isinstance(result, SearchResult)
        assert result.source == "serial-adc"
        assert np.array_equal(result.indices, index.search(queries, k=10))

    def test_kwargs_alongside_request_rejected(self, corpus):
        index, queries = corpus
        with pytest.raises(TypeError, match="SearchRequest"):
            index.search(SearchRequest(queries=queries, k=5), k=5)

    def test_nprobe_without_ivf_raises(self, corpus):
        """The old silent no-op is now a loud error, on every form."""
        index, queries = corpus
        with pytest.raises(ValueError, match="nprobe"):
            index.serve(SearchRequest(queries=queries, k=5, nprobe=4))
        with pytest.raises(ValueError, match="nprobe"):
            index.search_with_distances(queries, k=5, nprobe=4)
        with QueryEngine(index, parallel="never") as engine:
            with pytest.raises(ValueError, match="nprobe|ivf"):
                engine.serve(SearchRequest(queries=queries, k=5, nprobe=4))


class TestEngineSurface:
    def test_request_round_trip(self, corpus):
        index, queries = corpus
        with QueryEngine(index, parallel="never") as engine:
            result = engine.serve(SearchRequest(queries=queries, k=10))
            assert isinstance(result, SearchResult)
            assert result.source == "in-process"
            assert np.array_equal(result.indices, index.search(queries, k=10))

    def test_plain_array_path_stays_silent(self, corpus):
        import warnings

        index, queries = corpus
        with QueryEngine(index, parallel="never") as engine:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                ranked = engine.search(queries, k=5)
        assert ranked.shape == (len(queries), 5)


class TestIVFSurface:
    def test_request_and_legacy_agree(self, corpus):
        index, queries = corpus
        ivf = IVFIndex.build(index, num_cells=6)
        result = ivf.serve(SearchRequest(queries=queries, k=10, nprobe=6))
        legacy = ivf.search_with_distances(queries, k=10, nprobe=6)[0]
        assert np.array_equal(result.indices, legacy)
        assert result.source == "ivf"


class TestEncoderField:
    """SearchRequest.encoder: honoured by the daemon, an error elsewhere."""

    def test_modes_accepted(self):
        for mode in (None, "full", "light"):
            assert SearchRequest(queries=np.zeros(5), encoder=mode).encoder == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="encoder"):
            SearchRequest(queries=np.zeros(5), encoder="medium")

    def test_embedding_surfaces_reject_encoder_requests(self, corpus):
        """Hints a surface can't honour are errors: the index, engine, and
        IVF layer scan embeddings and have no encoder to apply."""
        index, queries = corpus
        request = SearchRequest(queries=queries, k=5, encoder="light")
        with pytest.raises(ValueError, match="encoder"):
            index.serve(request)
        with QueryEngine(index, parallel="never") as engine:
            with pytest.raises(ValueError, match="encoder"):
                engine.serve(request)
        ivf = IVFIndex.build(index, num_cells=8)
        with pytest.raises(ValueError, match="encoder"):
            ivf.serve(request)


def _oracle(index, queries, k, ids=None):
    """Exhaustive float64 top-k: the serial ADC matrix under a stable sort,
    optionally mapped to external ``ids``."""
    distances = adc_distances(
        queries, index.codes, index.codebooks, db_sq_norms=index.db_sq_norms
    )
    order = np.argsort(distances, axis=1, kind="stable")[:, :k]
    rows = np.arange(len(queries))[:, None]
    found = order if ids is None else ids[order]
    return found, distances[rows, order]


def _mutable_after_churn(index):
    """A MutableIndex after interleaved adds and removes, plus its oracle
    inputs (the rebuilt index and its external ids)."""
    rng = np.random.default_rng(3)
    mutable = MutableIndex.from_index(index)
    mutable.add(rng.normal(size=(30, index.dim)))
    mutable.remove(np.arange(0, 40, 3))
    mutable.add(rng.normal(size=(12, index.dim)))
    mutable.remove(np.arange(150, 170, 2))
    rebuilt, ids = mutable.rebuild()
    return mutable, rebuilt, ids


SURFACES = ("QuantizedIndex", "QueryEngine", "IVFIndex", "MutableIndex")


@pytest.fixture(params=SURFACES)
def surface(request, corpus):
    """``(surface, oracle(queries, k))`` for each search surface."""
    index, _ = corpus
    name = request.param
    if name == "MutableIndex":
        mutable, rebuilt, ids = _mutable_after_churn(index)
        yield mutable, lambda q, k: _oracle(rebuilt, q, k, ids)
        mutable.close()
        return
    oracle = lambda q, k: _oracle(index, q, k)  # noqa: E731
    if name == "QuantizedIndex":
        yield index, oracle
    elif name == "QueryEngine":
        # Float32 scan plus float64 rerank, split over shards.
        with QueryEngine(index, num_shards=3, parallel="never") as engine:
            yield engine, oracle
    else:
        # Full probe: every cell is scanned by default.
        yield IVFIndex.build(index, num_cells=6, nprobe=6), oracle


class TestSearchContract:
    """Every surface honours one contract: ``serve`` and ``search`` are thin
    fronts over ``search_with_distances``, which matches the exhaustive
    float64 oracle bit for bit."""

    @pytest.mark.parametrize("k", [1, 10, 150])
    def test_serve_search_and_oracle_agree(self, surface, corpus, k):
        target, oracle = surface
        _, queries = corpus
        ids, distances = target.search_with_distances(queries, k=k)
        result = target.serve(SearchRequest(queries=queries, k=k))
        assert np.array_equal(result.indices, ids)
        assert np.array_equal(result.distances, distances)
        want_ids, want_distances = oracle(queries, k)
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(distances, want_distances)  # bit for bit
        assert np.array_equal(target.search(queries, k=k), result.indices)

    def test_non_finite_query_rejected(self, surface, corpus):
        target, _ = surface
        _, queries = corpus
        bad = queries.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            target.search_with_distances(bad, k=5)
