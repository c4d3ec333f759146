import concurrent.futures
import itertools
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from hngen import evalkit as ek
from hngen import kernels
from hngen.errors import ConfigurationError, ShapeError
from oracles import full_sort_ranked_hits, full_sort_report


def unit_rows(rng, n, d):
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def oracle_metrics(index, ks):
    """Independent O(n^2) loop evaluation with the same tie rule."""
    sims = index.query_z @ index.gallery_z.T
    nq, ng = sims.shape
    recalls = {k: 0.0 for k in ks}
    rps, aps = [], []
    skipped = 0
    for q in range(nq):
        order = sorted(range(ng), key=lambda g: (-sims[q, g], g))
        if index.exclude_self:
            order = [g for g in order if g != q]
        rel = [int(index.gallery_labels[g] == index.query_labels[q]) for g in order]
        for k in ks:
            recalls[k] += 1.0 if any(rel[:k]) else 0.0
        r = sum(rel)
        if r == 0:
            skipped += 1
            continue
        rps.append(sum(rel[:r]) / r)
        ap = 0.0
        seen = 0
        for i, flag in enumerate(rel[:r], start=1):
            seen += flag
            if flag:
                ap += seen / i
        aps.append(ap / r)
    return (
        {k: v / nq for k, v in recalls.items()},
        float(np.mean(rps)),
        float(np.mean(aps)),
        skipped,
    )


class TestRecallAtK:
    def test_perfect_nearest_neighbor(self):
        z = np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        idx = ek.RetrievalIndex.single_set(z, np.array([1, 1, 2, 2]))
        assert ek.evaluate_retrieval(idx, [1]).recall_at[1] == 1.0

    def test_adversarial_interleaving(self):
        # nearest neighbor is always the other class
        theta = np.array([0.0, 0.1, 0.5, 0.6])
        z = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        labels = np.array([1, 2, 1, 2])
        idx = ek.RetrievalIndex.single_set(z, labels)
        assert ek.evaluate_retrieval(idx, [1]).recall_at[1] == 0.0

    def test_k_bounds(self):
        z = unit_rows(np.random.default_rng(0), 5, 3)
        idx = ek.RetrievalIndex.single_set(z, np.array([1, 1, 2, 2, 1]))
        with pytest.raises(ConfigurationError):
            ek.evaluate_retrieval(idx, [5])  # gallery is 4 after self-exclusion
        with pytest.raises(ConfigurationError):
            ek.evaluate_retrieval(idx, [0])

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        z = unit_rows(rng, 40, 8)
        labels = rng.integers(1, 6, size=40)
        idx = ek.RetrievalIndex.single_set(z, labels)
        hits = idx.ranked_hits(19)
        rs = ek.recall_at_k(hits, list(range(1, 20)))
        vals = [rs[k] for k in range(1, 20)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestRPrecisionAndMap:
    def test_singleton_classes_rp(self):
        z = np.array([[1.0, 0], [0.99, 0.141067], [0, 1.0], [-0.141067, 0.99]])
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        labels = np.array([1, 1, 2, 2])
        idx = ek.RetrievalIndex.single_set(z, labels)
        assert ek.evaluate_retrieval(idx, [1]).r_precision == 1.0

    def test_top_r_all_wrong_gives_zero(self):
        theta = np.array([0.0, 0.1, 1.5, 1.6])
        z = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        labels = np.array([1, 2, 1, 2])  # nearest is always wrong class
        idx = ek.RetrievalIndex.single_set(z, labels)
        assert ek.evaluate_retrieval(idx, [1]).r_precision == 0.0

    def test_map_at_r_hand_pattern(self):
        # R=3 with relevance [1, 0, 1] inside the cut -> (1 + 0 + 2/3)/3
        z = unit_rows(np.random.default_rng(2), 6, 4)
        # one query of class 1; the gallery holds three class-1 items, so R=3
        idx = ek.RetrievalIndex.query_gallery(
            z[:1], np.array([1]), z[1:], np.array([1, 1, 1, 2, 2])
        )
        hits = np.array([[1, 0, 1, 1, 0]], dtype=np.uint8)  # third hit past R
        r = idx.relevant_counts()
        assert r.tolist() == [3]
        val = ek.map_at_r(hits, r)
        assert val == pytest.approx(0.5556, abs=1e-4)
        assert val == pytest.approx((1.0 + 0.0 + 2.0 / 3.0) / 3.0, abs=1e-12)
        assert ek.r_precision(hits, r) == 2.0 / 3.0
        assert ek.map_at_r(hits[:, :3], r) == val  # only the first R ranks count

    def test_all_relevant_first(self):
        z = np.array([[1.0, 0], [1, 0.001], [1, -0.001], [0, 1], [0.001, 1], [-0.001, 1]])
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        labels = np.array([1, 1, 1, 2, 2, 2])
        idx = ek.RetrievalIndex.single_set(z, labels)
        rep = ek.evaluate_retrieval(idx, [1])
        assert rep.map_at_r == 1.0
        assert rep.r_precision == 1.0

    def test_zero_gallery_class_skipped_with_warning(self):
        z = unit_rows(np.random.default_rng(4), 4, 3)
        gl = np.array([1, 1, 2, 2])
        ql = np.array([1, 3])  # class 3 absent from gallery
        idx = ek.RetrievalIndex.query_gallery(z[:2], ql, z, gl)
        with pytest.warns(UserWarning, match="skipping"):
            rep = ek.evaluate_retrieval(idx, [1])
        assert rep.n_skipped == 1

    def test_evaluate_retrieval_warns_once_about_skipped_queries(self):
        z = unit_rows(np.random.default_rng(4), 4, 3)
        idx = ek.RetrievalIndex.query_gallery(z[:2], np.array([1, 3]), z, np.array([1, 1, 2, 2]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = ek.evaluate_retrieval(idx, [1])
        skips = [w for w in caught if "skipping" in str(w.message)]
        assert len(skips) == 1
        assert "skipping 1 queries" in str(skips[0].message)
        assert rep.n_skipped == 1


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_single_set_exact(self, seed):
        rng = np.random.default_rng(seed)
        z = unit_rows(rng, 60, 6)
        labels = rng.integers(1, 6, size=60)
        idx = ek.RetrievalIndex.single_set(z, labels)
        ks = [1, 2, 4, 8]
        rep = ek.evaluate_retrieval(idx, ks)
        o_rec, o_rp, o_map, o_skip = oracle_metrics(idx, ks)
        for k in ks:
            assert rep.recall_at[k] == o_rec[k]
        assert rep.r_precision == o_rp
        assert rep.map_at_r == o_map
        assert rep.n_skipped == o_skip

    def test_query_gallery_exact(self):
        rng = np.random.default_rng(11)
        gz = unit_rows(rng, 50, 5)
        qz = unit_rows(rng, 20, 5)
        gl = rng.integers(1, 5, size=50)
        ql = rng.integers(1, 5, size=20)
        idx = ek.RetrievalIndex.query_gallery(qz, ql, gz, gl)
        ks = [1, 3, 10]
        rep = ek.evaluate_retrieval(idx, ks)
        o_rec, o_rp, o_map, _ = oracle_metrics(idx, ks)
        for k in ks:
            assert rep.recall_at[k] == o_rec[k]
        assert rep.r_precision == o_rp
        assert rep.map_at_r == o_map

    def test_rotation_invariance(self):
        rng = np.random.default_rng(12)
        z = unit_rows(rng, 30, 4)
        labels = rng.integers(1, 4, size=30)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        idx1 = ek.RetrievalIndex.single_set(z, labels)
        idx2 = ek.RetrievalIndex.single_set(z @ q, labels)
        ks = [1, 2, 5]
        a = ek.evaluate_retrieval(idx1, ks)
        b = ek.evaluate_retrieval(idx2, ks)
        for k in ks:
            assert a.recall_at[k] == pytest.approx(b.recall_at[k], abs=1e-12)
        assert a.r_precision == pytest.approx(b.r_precision, abs=1e-12)
        assert a.map_at_r == pytest.approx(b.map_at_r, abs=1e-12)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(13)
        z = unit_rows(rng, 25, 4)
        labels = rng.integers(1, 4, size=25)
        rep = ek.evaluate_retrieval(ek.RetrievalIndex.single_set(z, labels), [1, 2])
        for v in list(rep.recall_at.values()) + [rep.r_precision, rep.map_at_r]:
            assert 0.0 <= v <= 1.0


def quantized_rows(rng, n, d, levels=2, dup_share=0.3):
    """Unit-norm rows on a coarse lattice, quantized to multiples of 2**-20,
    with exact duplicate rows: every similarity is exact and many tie."""
    z = rng.integers(-levels, levels + 1, size=(n, d)).astype(np.float64)
    z[np.all(z == 0, axis=1), 0] = 1.0
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    z = np.round(z * 2.0**20) / 2.0**20
    for i in rng.choice(n, size=int(dup_share * n), replace=False):
        z[i] = z[rng.integers(n)]
    return z


class TestStreamingParity:
    """Streaming prefix ranking against a full stable sort, bit for bit."""

    @pytest.fixture(params=[(rows, cores) for rows in (1, 7, 256) for cores in (1, 2, 3)],
                    ids=lambda p: f"rows{p[0]}-cores{p[1]}")
    def block_rows(self, request, monkeypatch):
        # several blocks with a ragged last one (1 is one query per block),
        # ranked on 1, 2 or 3 cores: a worker's blocks are rows // cores
        # queries, and 3 cores is more than some cases' blocks
        rows, cores = request.param
        monkeypatch.setattr(ek, "_cores", lambda: cores)

        def set_rows(n_gallery):
            monkeypatch.setattr(ek, "_BLOCK_SIMS", rows * n_gallery)
        return set_rows

    def _assert_same(self, idx, ks, set_rows):
        set_rows(idx.gallery_z.shape[0])
        assert ek.evaluate_retrieval(idx, ks) == full_sort_report(idx, ks)

    @pytest.mark.parametrize("seed", range(4))
    def test_single_set(self, seed, block_rows):
        rng = np.random.default_rng(seed)
        z = quantized_rows(rng, 50, 3)
        labels = rng.integers(1, 5, size=50)
        idx = ek.RetrievalIndex.single_set(z, labels)
        r_max = int(idx.relevant_counts().max())
        self._assert_same(idx, [1, 2, 4], block_rows)  # width set by R_max
        self._assert_same(idx, [1, r_max + 3], block_rows)  # width set by K
        self._assert_same(idx, [1, 49], block_rows)  # width set by the gallery size

    @pytest.mark.parametrize("seed", range(4))
    def test_query_gallery_with_skipped_queries(self, seed, block_rows):
        rng = np.random.default_rng(100 + seed)
        gz = quantized_rows(rng, 40, 3)
        qz = quantized_rows(rng, 23, 3)
        gl = rng.integers(1, 5, size=40)
        ql = rng.integers(1, 7, size=23)  # classes 5 and 6 never in the gallery
        ql[:2] = [1, 6]
        idx = ek.RetrievalIndex.query_gallery(qz, ql, gz, gl)
        with pytest.warns(UserWarning, match="skipping"):
            self._assert_same(idx, [1, 3, 10], block_rows)
            self._assert_same(idx, [40], block_rows)
            n_skipped = ek.evaluate_retrieval(idx, [1]).n_skipped
        assert n_skipped == int(np.isin(ql, [5, 6]).sum())

    def test_all_tied(self, block_rows):
        z = np.tile([[1.0, 0.0]], (9, 1))
        labels = np.array([1, 2, 1, 3, 2, 1, 1, 3, 2])
        idx = ek.RetrievalIndex.single_set(z, labels)
        for ks in ([1], [5], [8]):
            self._assert_same(idx, ks, block_rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicate_heavy(self, seed, block_rows):
        # most rows copy another, so most queries are tied at their cut
        rng = np.random.default_rng(300 + seed)
        gz = quantized_rows(rng, 60, 4, levels=1, dup_share=0.7)
        gl = rng.integers(1, 4, size=60)
        self._assert_same(ek.RetrievalIndex.single_set(gz, gl), [1, 2, 8], block_rows)
        qz = np.concatenate([gz[rng.choice(60, size=15)], quantized_rows(rng, 10, 4, levels=1)])
        ql = rng.integers(1, 4, size=25)
        idx = ek.RetrievalIndex.query_gallery(qz, ql, gz, gl)
        self._assert_same(idx, [1, 3, 16], block_rows)

    def test_ranked_hits_is_the_full_sort_prefix(self, block_rows):
        rng = np.random.default_rng(7)
        z = quantized_rows(rng, 30, 2)
        labels = rng.integers(1, 4, size=30)
        idx = ek.RetrievalIndex.single_set(z, labels)
        block_rows(30)
        full = full_sort_ranked_hits(z @ z.T, labels, labels, True)
        for width in (0, 1, 5, 29):
            assert np.array_equal(idx.ranked_hits(width), full[:, :width])
        with pytest.raises(ValueError, match="prefix width"):
            idx.ranked_hits(30)  # past the gallery once the query is dropped

    def test_relevant_counts_from_labels(self):
        z = unit_rows(np.random.default_rng(8), 5, 3)
        single = ek.RetrievalIndex.single_set(z, np.array([1, 1, 2, 1, 3]))
        assert single.relevant_counts().tolist() == [2, 2, 0, 2, 0]
        qg = ek.RetrievalIndex.query_gallery(
            z[:3], np.array([0, 1, 9]), z, np.array([1, 1, 2, 1, 3])
        )
        assert qg.relevant_counts().tolist() == [0, 3, 0]

    def test_invalid_k_rejected_before_ranking(self, monkeypatch):
        z = unit_rows(np.random.default_rng(9), 5, 3)
        idx = ek.RetrievalIndex.single_set(z, np.array([1, 1, 2, 2, 1]))

        def no_ranking(*args, **kwargs):
            raise AssertionError("ranked before the Ks were checked")

        monkeypatch.setattr(kernels, "ranked_hits", no_ranking)
        for ks in ([0], [5]):
            with pytest.raises(ConfigurationError, match="recall K"):
                ek.evaluate_retrieval(idx, ks)


class BlockError(RuntimeError):
    pass


class TestWorkers:
    """Query blocks ranked on one thread per core: same flags, no thread
    left behind, errors passed on, one buffer per worker."""

    @staticmethod
    def _index(n=60):
        rng = np.random.default_rng(21)
        return ek.RetrievalIndex.single_set(quantized_rows(rng, n, 3), rng.integers(1, 5, size=n))

    def test_gaussian_hits_equal_at_one_and_two_cores(self, monkeypatch):
        # unquantized similarities: a GEMM over other block rows must not
        # move a bit (two one-worker blocks of 873 rows, three at 2 cores)
        rng = np.random.default_rng(22)
        idx = ek.RetrievalIndex.single_set(unit_rows(rng, 1200, 32), rng.integers(0, 30, size=1200))
        width = int(idx.relevant_counts().max()) + 8
        hits = {}
        for cores in (1, 2):
            monkeypatch.setattr(ek, "_cores", lambda: cores)
            hits[cores] = idx.ranked_hits(width)
        assert hits[1].tobytes() == hits[2].tobytes()

    def test_threads_end_with_the_call_and_errors_reach_the_caller(self, monkeypatch):
        monkeypatch.setattr(ek, "_cores", lambda: 2)
        monkeypatch.setattr(ek, "_BLOCK_SIMS", 7 * 60)  # nine blocks at 2 cores
        idx = self._index()
        before = threading.active_count()
        expected = full_sort_report(idx, [1, 4])
        assert ek.evaluate_retrieval(idx, [1, 4]) == expected
        assert threading.active_count() == before

        calls = itertools.count()
        rank = kernels.ranked_hits

        def failing(sim, *args):
            if next(calls) == 3:
                raise BlockError("block failed")
            return rank(sim, *args)

        monkeypatch.setattr(kernels, "ranked_hits", failing)
        with pytest.raises(BlockError, match="block failed"):
            ek.evaluate_retrieval(idx, [1, 4])
        assert threading.active_count() == before

    def test_one_core_starts_no_thread(self, monkeypatch):
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(ek, "_cores", lambda: 1)
        monkeypatch.setattr(ek, "_BLOCK_SIMS", 7 * 60)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        idx = self._index()
        assert ek.evaluate_retrieval(idx, [1, 4]) == full_sort_report(idx, [1, 4])

    @pytest.mark.parametrize("n, workers", [(60, 1), (120, 2), (420, 3)])
    def test_workers_capped_at_the_blocks(self, n, workers, monkeypatch):
        # 3 cores; one, two and seven blocks of 60 rows at one worker
        started = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(ek, "_cores", lambda: 3)
        monkeypatch.setattr(ek, "_BLOCK_SIMS", 60 * n)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        self._index(n).ranked_hits(4)
        assert started == ([] if workers == 1 else [workers])

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_peak_allocation_under_one_and_a_half_blocks(self, cores, monkeypatch):
        # sixteen one-worker blocks of 256 rows; a loop that builds each
        # block's similarities before dropping the last peaks at two blocks
        monkeypatch.setattr(ek, "_cores", lambda: cores)
        rng = np.random.default_rng(23)
        idx = ek.RetrievalIndex.single_set(unit_rows(rng, 4096, 8), rng.integers(0, 100, size=4096))
        width = int(idx.relevant_counts().max())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            idx.ranked_hits(width)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ek._BLOCK_SIMS * 8, f"peak {peak / 2**20:.1f} MiB"


def ranked_columns(sim, width):
    """Gallery index at each rank, read back from ``ranked_hits`` one bit at
    a time: with gallery label ``(index >> bit) & 1`` and every query
    labelled 1, the flags are that bit of each ranked index."""
    rows, n = sim.shape
    ones = np.ones(rows, dtype=np.int64)
    cols = np.zeros((rows, width), dtype=np.int64)
    for bit in range(max(n - 1, 1).bit_length()):
        flags = kernels.ranked_hits(sim, ones, (np.arange(n) >> bit) & 1, width)
        cols |= flags.astype(np.int64) << bit
    return cols


class TestRankedHitsKernel:
    def test_matches_full_sort_on_tie_heavy_blocks(self):
        rng = np.random.default_rng(11)
        tied_rows = clear_rows = 0
        for trial in range(80):
            rows, n = int(rng.integers(1, 10)), int(rng.integers(1, 14))
            sim = rng.integers(-3, 4, size=(rows, n)).astype(np.float64)
            if trial % 2:
                sim[rng.random((rows, n)) < 0.25] = -np.inf
            sim[0] = sim[0, 0]  # one all-tied row (all -inf on some trials)
            ql, gl = rng.integers(1, 4, size=rows), rng.integers(1, 4, size=n)
            full = full_sort_ranked_hits(sim, ql, gl, False)
            order = np.argsort(-sim, axis=1, kind="stable")
            desc = -np.sort(-sim, axis=1)
            for width in range(n + 1):
                assert np.array_equal(kernels.ranked_hits(sim, ql, gl, width), full[:, :width])
                assert np.array_equal(ranked_columns(sim, width), order[:, :width])
                if width:
                    tied = np.count_nonzero(sim >= desc[:, width - 1 : width], axis=1) > width
                    tied_rows += int(tied.sum())
                    clear_rows += int((~tied).sum())
        # many rows had items tied across the cut, and many did not
        assert tied_rows > 500 and clear_rows > 500

    @pytest.mark.parametrize("seed, pattern", enumerate(
        ["ties_and_neg_inf", "contiguous_hot", "hot_tail", "hot_residue", "all_tied"]
    ))
    def test_matches_full_sort_where_the_bound_is_loose(self, seed, pattern):
        # galleries wider than the 256 strided groups, so groups span several
        # columns and the bound leaves more candidates than the prefix
        rng = np.random.default_rng(seed)
        for _ in range(8):
            n = int(rng.integers(300, 1501))
            while n % 256 == 0 or n % 260 == 0:  # ragged for every width below
                n = int(rng.integers(300, 1501))
            rows = int(rng.integers(1, 9))
            sim = rng.integers(-3, 4, size=(rows, n)).astype(np.float64)
            if pattern == "ties_and_neg_inf":
                sim[rng.random((rows, n)) < 0.25] = -np.inf
            elif pattern == "contiguous_hot":  # a class-sorted gallery
                start, size = int(rng.integers(0, n - 200)), int(rng.integers(40, 200))
                sim[:, start : start + size] += rng.integers(10, 13, size=(rows, size))
            elif pattern == "hot_tail":  # hot items only past the last whole group
                sim[:, 256 * (n // 256) :] += 10
            elif pattern == "hot_residue":  # hot items all in one strided group
                sim[:, int(rng.integers(0, 256)) :: 256] += 10
            else:
                sim[:] = sim[:, :1]
                sim[rows // 2 :] = -np.inf
            ql, gl = rng.integers(1, 4, size=rows), rng.integers(1, 4, size=n)
            full = full_sort_ranked_hits(sim, ql, gl, False)
            order = np.argsort(-sim, axis=1, kind="stable")
            for width in (0, 1, 63, 64, 65, n - 1, n):
                assert np.array_equal(kernels.ranked_hits(sim, ql, gl, width), full[:, :width])
                assert np.array_equal(ranked_columns(sim, width), order[:, :width])

    def test_ranking_memory_stays_below_a_rows_by_n_index(self):
        # a (200, 5000) int64 index array alone would take 7.6 MiB
        rng = np.random.default_rng(12)
        sim = rng.permutation(200 * 5000).reshape(200, 5000) / (200 * 5000)
        labels = rng.integers(0, 100, size=5000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            kernels.ranked_hits(sim, labels[:200], labels, 63)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_tie_break_by_gallery_index(self):
        # two equal similarities: lower gallery index must rank first
        sim = np.array([[0.5, 0.5, 0.1]])
        hits = kernels.ranked_hits(sim, np.array([7]), np.array([7, 3, 7]), 3)
        assert hits.tolist() == [[1, 0, 1]]

    def test_ties_across_the_cut_kept_in_index_order(self):
        sim = np.array([[0.2, 0.9, 0.5, 0.5, 0.5, 0.5]])
        gl = np.array([0, 1, 2, 1, 2, 1])
        for width in range(7):
            hits = kernels.ranked_hits(sim, np.array([1]), gl, width)
            assert hits.tolist() == [[1, 0, 1, 0, 1, 0][:width]]

    def test_prefix_width(self):
        rng = np.random.default_rng(4)
        sim = rng.choice([0.1, 0.5, 0.9], size=(12, 12))  # many exact ties
        labels = rng.integers(1, 4, size=12)
        full = full_sort_ranked_hits(sim, labels, labels, False)
        for width in range(13):
            hits = kernels.ranked_hits(sim, labels, labels, width)
            assert hits.dtype == np.uint8 and hits.shape == (12, width)
            assert np.array_equal(hits, full[:, :width])
        for width in (-1, 13):
            with pytest.raises(ValueError, match="prefix width"):
                kernels.ranked_hits(sim, labels, labels, width)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected_in_both_protocols(bad):
    # a NaN row has a NaN norm, which slips past the unit-norm check
    z = np.eye(4)
    z[1] = bad
    labels = np.array([1, 1, 2, 2])
    with pytest.raises(ShapeError, match="finite rows"):
        ek.RetrievalIndex.single_set(z, labels)
    with pytest.raises(ShapeError, match="finite rows"):
        ek.RetrievalIndex.query_gallery(z, labels, np.eye(4), labels)
    with pytest.raises(ShapeError, match="finite rows"):
        ek.RetrievalIndex.query_gallery(np.eye(4)[:2], labels[:2], z, labels)


def test_non_unit_rows_rejected_in_both_protocols():
    z = np.eye(4)
    z[1] *= 1.5
    labels = np.array([1, 1, 2, 2])
    with pytest.raises(ShapeError, match="unit-norm"):
        ek.RetrievalIndex.single_set(z, labels)
    with pytest.raises(ShapeError, match="unit-norm"):
        ek.RetrievalIndex.query_gallery(z, labels, np.eye(4), labels)
    with pytest.raises(ShapeError, match="unit-norm"):
        ek.RetrievalIndex.query_gallery(np.eye(4)[:2], labels[:2], z, labels)


def test_single_set_rows_converted_and_checked_once(monkeypatch):
    checked = []
    check = kernels.check_unit_rows
    monkeypatch.setattr(kernels, "check_unit_rows", lambda z, caller: checked.append(z) or check(z, caller))
    z = unit_rows(np.random.default_rng(24), 6, 3).astype(np.float32)
    idx = ek.RetrievalIndex.single_set(z, np.array([1, 1, 2, 2, 3, 3]))
    assert idx.query_z is idx.gallery_z and idx.gallery_z.dtype == np.float64
    assert len(checked) == 1 and checked[0] is idx.gallery_z
    ek.RetrievalIndex.query_gallery(z, np.arange(6), z.copy(), np.arange(6))
    assert len(checked) == 3


class TestEmbeddingStats:
    def test_constant_input_zero_variance(self):
        stats = ek.embedding_stats(np.ones((10, 4)))
        assert np.all(stats["per_dim_var"] == 0.0)

    def test_standard_normal_columns(self):
        rng = np.random.default_rng(14)
        stats = ek.embedding_stats(rng.standard_normal((10_000, 6)))
        assert np.all(np.abs(stats["per_dim_var"] - 1.0) < 0.1)

    def test_variance_ordering_preserved(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((500, 3)) * np.array([0.1, 1.0, 3.0])
        stats = ek.embedding_stats(x)
        v = stats["per_dim_var"]
        assert v[0] < v[1] < v[2]

    def test_needs_two_rows(self):
        with pytest.raises(ShapeError):
            ek.embedding_stats(np.ones((1, 4)))


class TestProject2d:
    def test_2d_input_reconstructs_exactly(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((20, 2))
        coords, eigvals = ek.project_2d(x)
        centered = x - x.mean(0)
        # a 2-D cloud projected to 2 components is a pure rotation: lossless
        basis = np.linalg.lstsq(coords, centered, rcond=None)[0]
        assert np.allclose(np.abs(np.linalg.det(basis)), 1.0, atol=1e-8)
        recon_err = np.sum((centered - coords @ basis) ** 2)
        assert recon_err < 1e-16

    def test_collinear_second_component_zero(self):
        t = np.linspace(0, 1, 10)[:, None]
        x = t * np.array([[1.0, 2.0, -1.0]])
        with pytest.warns(UserWarning, match="rank-deficient"):
            coords, _ = ek.project_2d(x)
        assert np.all(coords[:, 1] == 0.0)

    def test_truncation_error_equals_trailing_eigenvalues(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((200, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        coords, eigvals = ek.project_2d(x)
        centered = x - x.mean(0)
        total_var = np.sum(centered**2) / (x.shape[0] - 1)
        kept_var = np.sum(coords**2) / (x.shape[0] - 1)
        assert total_var - kept_var == pytest.approx(eigvals[2:].sum(), abs=1e-8)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((50, 4))
        c1, _ = ek.project_2d(x)
        c2, _ = ek.project_2d(x.copy())
        assert np.array_equal(c1, c2)

    def test_needs_three_rows(self):
        with pytest.raises(ShapeError):
            ek.project_2d(np.ones((2, 3)))


class TestReport:
    def test_json_roundtrip(self):
        import json

        rep = ek.MetricReport(recall_at={1: 0.5, 2: 0.75}, r_precision=0.4,
                              map_at_r=0.3, n_queries=10)
        d = json.loads(rep.to_json())
        assert d["recall_at"]["1"] == 0.5
        assert d["n_queries"] == 10
