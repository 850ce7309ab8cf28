"""Estimator correctness: FFT kernels against quadratic oracles, the
plan-based combination against direct evaluation, and report rules."""

import gc
import os
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from joinsketch import estimator
from joinsketch.ams import ams_estimate
from joinsketch.errors import BudgetError, QueryError
from joinsketch.estimator import (
    circ_cross_correlate,
    combine_sketches,
    estimate,
    naive_estimate,
    required_bins,
)
from joinsketch.joingraph import traversal_plan
from joinsketch.sketch import RelationSketch, SketchConfig

from conftest import (
    circ_convolve,
    multiway_graph,
    random_graph,
    random_sketch_grids,
    two_rel_graph,
)


def conv_oracle(x, y):
    """Quadratic-time circular convolution, straight from the definition."""
    m = len(x)
    return [sum(x[i] * y[(j - i) % m] for i in range(m)) for j in range(m)]


def xcorr_oracle(x, y):
    """Quadratic-time circular cross-correlation (real inputs)."""
    m = len(x)
    return [sum(x[i] * y[(j + i) % m] for i in range(m)) for j in range(m)]


def sketches_from_grids(graph, grids, m, l, seed=0):
    config = SketchConfig(m=m, l=l, seed=seed, method="conv")
    out = []
    for rel, grid in enumerate(grids):
        sk = RelationSketch(rel, config, graph, hashes=None)
        sk.counters = np.asarray(grid, dtype=np.float64)
        out.append(sk)
    return out


class TestCircularKernels:
    def test_single_item_convolution_bins_add(self):
        # (-1 at index 2) convolved with (+1 at index 3), m=5: the product
        # lands at (2 + 3) mod 5 = 0.
        x = np.zeros(5)
        y = np.zeros(5)
        x[2] = -1.0
        y[3] = 1.0
        expected = np.zeros(5)
        expected[0] = -1.0
        np.testing.assert_allclose(circ_convolve(x, y), expected, atol=1e-12)

    def test_convolve_identity_impulse(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=8)
        e0 = np.zeros(8)
        e0[0] = 1.0
        np.testing.assert_allclose(circ_convolve(x, e0), x, atol=1e-12)

    def test_convolve_small_case(self):
        x = [1.0, 2.0, 0.0]
        y = [0.0, 1.0, 1.0]
        assert conv_oracle(x, y) == [2.0, 1.0, 3.0]
        np.testing.assert_allclose(circ_convolve(x, y), [2.0, 1.0, 3.0], atol=1e-12)

    def test_cross_correlate_impulse(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=8)
        e0 = np.zeros(8)
        e0[0] = 1.0
        np.testing.assert_allclose(circ_cross_correlate(e0, y), y, atol=1e-12)

    def test_cross_correlate_small_case(self):
        x = [1.0, 2.0, 0.0]
        y = [0.0, 1.0, 1.0]
        assert xcorr_oracle(x, y) == [2.0, 3.0, 1.0]
        np.testing.assert_allclose(circ_cross_correlate(x, y), [2.0, 3.0, 1.0], atol=1e-12)

    def test_autocorrelation_at_lag_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=16)
        got = circ_cross_correlate(x, x)
        assert got[0] == pytest.approx(float(x @ x), rel=1e-12)

    def test_matches_oracle_across_sizes(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 3, 5, 16, 81, 256, 1000, 4096):
            x = rng.integers(-50, 51, size=m).astype(np.float64)
            y = rng.integers(-50, 51, size=m).astype(np.float64)
            ref_c = np.array(conv_oracle(list(x), list(y)))
            ref_x = np.array(xcorr_oracle(list(x), list(y)))
            tol = 1e-9 * (1 + np.abs(ref_c).max())
            np.testing.assert_allclose(circ_convolve(x, y), ref_c, atol=tol)
            tol = 1e-9 * (1 + np.abs(ref_x).max())
            np.testing.assert_allclose(circ_cross_correlate(x, y), ref_x, atol=tol)

    @pytest.mark.parametrize("shape", [(65_536,), (5, 16_384)], ids=["vector", "block"])
    def test_one_long_cross_correlation_allocates_only_its_result(self, shape):
        # The spectra go into per-thread scratch buffers; only the output is
        # new.  Allocating both spectra per call peaks at twice the bound.
        rng = np.random.default_rng(15)
        x, y = rng.normal(size=shape), rng.normal(size=shape)
        want = circ_cross_correlate(x, y)  # sizes this thread's buffers
        tracemalloc.start()
        try:
            got = circ_cross_correlate(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * got.nbytes
        np.testing.assert_array_equal(got, want)
        assert not np.shares_memory(got, circ_cross_correlate(x, y))

    def test_block_rows_equal_their_vectors_bit_for_bit(self):
        rng = np.random.default_rng(22)
        for m in (1, 2, 7, 12, 255, 4096):
            x, y = rng.normal(size=(2, 5, m))
            rows = np.stack([circ_cross_correlate(a, b) for a, b in zip(x, y)])
            np.testing.assert_array_equal(circ_cross_correlate(x, y), rows)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            circ_convolve(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            circ_cross_correlate(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            circ_cross_correlate(np.zeros((2, 4)), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            circ_cross_correlate(np.zeros((2, 2, 4)), np.zeros((2, 2, 4)))


class TestNaiveEstimate:
    def test_single_bin_is_product(self):
        graph = two_rel_graph()
        sketches = sketches_from_grids(graph, [[[3.0]], [[-2.0]]], m=1, l=1)
        assert naive_estimate(sketches, graph, 0) == -6.0

    def test_two_relations_inner_product(self):
        graph = two_rel_graph()
        rng = np.random.default_rng(4)
        a = rng.integers(-5, 6, size=(1, 8)).astype(np.float64)
        b = rng.integers(-5, 6, size=(1, 8)).astype(np.float64)
        sketches = sketches_from_grids(graph, [a, b], m=8, l=1)
        assert naive_estimate(sketches, graph, 0) == pytest.approx(float(a[0] @ b[0]))

    def test_multiway_matches_handwritten_double_sum(self):
        graph = multiway_graph()
        rng = np.random.default_rng(5)
        m = 6
        grids = random_sketch_grids(rng, graph, m=m, l=1)
        sketches = sketches_from_grids(graph, grids, m=m, l=1)
        c0, c1, c2, c3 = (g[0] for g in grids)
        expected = sum(
            c0[j0] * c2[j0] * c1[(j0 + j1) % m] * c3[j1]
            for j0 in range(m)
            for j1 in range(m)
        )
        assert naive_estimate(sketches, graph, 0) == pytest.approx(expected, rel=1e-12)

    def test_budget_guard(self):
        graph = multiway_graph()
        m = 4096  # 4096^2 > 1e7 with two components
        grids = [np.zeros((1, m)) for _ in range(4)]
        sketches = sketches_from_grids(graph, grids, m=m, l=1)
        with pytest.raises(BudgetError):
            naive_estimate(sketches, graph, 0)


class TestCombineSketches:
    def test_two_relations_hadamard_only(self):
        graph = two_rel_graph()
        rng = np.random.default_rng(6)
        grids = random_sketch_grids(rng, graph, m=8, l=1)
        sketches = sketches_from_grids(graph, grids, m=8, l=1)
        plan = traversal_plan(graph, 0)
        got = combine_sketches(plan, sketches, 0)
        np.testing.assert_allclose(got, grids[0][0] * grids[1][0], atol=1e-9)

    def test_multiway_all_roots_match_naive(self):
        graph = multiway_graph()
        rng = np.random.default_rng(7)
        for m in (1, 2, 3, 4, 8, 16):
            grids = random_sketch_grids(rng, graph, m=m, l=1)
            sketches = sketches_from_grids(graph, grids, m=m, l=1)
            want = naive_estimate(sketches, graph, 0)
            for root in range(graph.w):
                plan = traversal_plan(graph, root)
                got = float(combine_sketches(plan, sketches, 0).sum())
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_random_graphs_match_naive(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            graph = random_graph(rng)
            m = int(rng.choice([1, 2, 3, 4, 8, 16]))
            grids = random_sketch_grids(rng, graph, m=m, l=1)
            sketches = sketches_from_grids(graph, grids, m=m, l=1)
            want = naive_estimate(sketches, graph, 0)
            root = int(rng.integers(0, graph.w))
            got = float(combine_sketches(traversal_plan(graph, root), sketches, 0).sum())
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("dtype", [np.float64, np.int16, np.int32])
    def test_block_equals_the_per_row_loop_bit_for_bit(self, dtype):
        # A file keeps int16 or int32 grids; the block reads them as
        # float64 just as each row alone is read.
        rng = np.random.default_rng(23)
        high = 1000 if dtype == np.float64 else np.iinfo(dtype).max
        for _ in range(12):
            graph = random_graph(rng)
            for l in (1, 2, 3, 5, 8):
                for m in (1, 2, 7, 12, 64):
                    grids = [rng.integers(-high, high, size=(l, m)).astype(dtype)
                             for _ in range(graph.r)]
                    if dtype == np.float64:
                        grids = [grid + rng.random(size=(l, m)) for grid in grids]
                    config = SketchConfig(m=m, l=l, seed=0)
                    sketches = [RelationSketch(k, config, graph, None, grid)
                                for k, grid in enumerate(grids)]
                    for root in range(graph.w):
                        plan = traversal_plan(graph, root)
                        rows = [combine_sketches(plan, sketches, rep) for rep in range(l)]
                        for reps in (slice(None), slice(1, None, 2)):
                            block = combine_sketches(plan, sketches, reps)
                            assert block.dtype == np.float64
                            np.testing.assert_array_equal(block, np.stack(rows)[reps])
                            assert block.sum(axis=-1).tolist() == [
                                float(row.sum()) for row in rows[reps]
                            ]

    def test_zero_relation_sketch_absorbs(self):
        graph = multiway_graph()
        rng = np.random.default_rng(9)
        grids = random_sketch_grids(rng, graph, m=8, l=1)
        grids[2] = np.zeros((1, 8))
        sketches = sketches_from_grids(graph, grids, m=8, l=1)
        got = combine_sketches(traversal_plan(graph, "auto"), sketches, 0)
        np.testing.assert_allclose(got, np.zeros(8), atol=1e-12)


class TestEstimate:
    def test_zero_sketches_zero_median(self):
        graph = two_rel_graph()
        grids = [np.zeros((5, 4)), np.zeros((5, 4))]
        sketches = sketches_from_grids(graph, grids, m=4, l=5)
        report = estimate(sketches, graph)
        assert report.median == 0.0
        assert report.per_repetition == (0.0,) * 5

    def test_sketches_freed_without_the_cycle_collector(self):
        # The combination must not leave a reference cycle (such as a
        # recursive closure) holding the sketches and their counter grids.
        graph = multiway_graph()
        grids = random_sketch_grids(np.random.default_rng(4), graph, m=8, l=3)
        sketches = sketches_from_grids(graph, grids, m=8, l=3)
        grid = weakref.ref(sketches[0].counters)
        del grids
        gc.collect()
        gc.disable()
        try:
            estimate(sketches, graph)
            del sketches
            assert grid() is None
        finally:
            gc.enable()

    def test_single_repetition_median(self):
        graph = two_rel_graph()
        rng = np.random.default_rng(10)
        grids = random_sketch_grids(rng, graph, m=8, l=1)
        sketches = sketches_from_grids(graph, grids, m=8, l=1)
        report = estimate(sketches, graph)
        assert report.median == report.per_repetition[0]

    def test_median_is_order_statistic(self):
        graph = multiway_graph()
        rng = np.random.default_rng(11)
        grids = random_sketch_grids(rng, graph, m=8, l=5)
        sketches = sketches_from_grids(graph, grids, m=8, l=5)
        report = estimate(sketches, graph)
        assert report.median == sorted(report.per_repetition)[2]
        assert min(report.per_repetition) <= report.median <= max(report.per_repetition)

    def test_even_repetitions_average_middle_pair(self):
        graph = two_rel_graph()
        rng = np.random.default_rng(12)
        grids = random_sketch_grids(rng, graph, m=8, l=4)
        sketches = sketches_from_grids(graph, grids, m=8, l=4)
        report = estimate(sketches, graph)
        ordered = sorted(report.per_repetition)
        assert report.median == pytest.approx((ordered[1] + ordered[2]) / 2)
        assert report.median == statistics.median(report.per_repetition)

    def test_naive_path_agrees_with_fft(self):
        graph = multiway_graph()
        rng = np.random.default_rng(13)
        grids = random_sketch_grids(rng, graph, m=8, l=5)
        sketches = sketches_from_grids(graph, grids, m=8, l=5)
        fft = estimate(sketches, graph, path="fft")
        naive = estimate(sketches, graph, path="naive")
        assert fft.median == pytest.approx(naive.median, rel=1e-9, abs=1e-9)

    def test_desk_instance_median_of_naive_values(self):
        # Small built instance (8 tuples per relation, m=8, l=5): the
        # reported estimate is exactly the order-statistic median of the
        # five per-repetition direct evaluations.
        from joinsketch.hashing import derive_hash_set
        from joinsketch.sketch import TupleUpdate, build_sketch

        graph = multiway_graph()
        rng = np.random.default_rng(14)
        config = SketchConfig(m=8, l=5, seed=31)
        hashes = derive_hash_set(config, graph)
        sketches = []
        for rel in range(graph.r):
            stream = [
                TupleUpdate(
                    rel,
                    {u: int(rng.integers(0, 4)) for u in graph.omega[rel]},
                    1.0,
                )
                for _ in range(8)
            ]
            sketches.append(build_sketch(stream, graph, hashes, config, rel))
        per_rep = [naive_estimate(sketches, graph, rep) for rep in range(5)]
        report = estimate(sketches, graph, path="naive")
        assert report.median == sorted(per_rep)[2]
        assert report.per_repetition == tuple(per_rep)

    def test_rejects_wrong_method(self):
        graph = two_rel_graph()
        config = SketchConfig(m=4, l=1, seed=0, method="ams")
        sketches = []
        for rel in range(2):
            sk = RelationSketch(rel, config, graph, hashes=None)
            sketches.append(sk)
        with pytest.raises(QueryError, match="method"):
            estimate(sketches, graph)


def split_everything(monkeypatch):
    """Make every fft estimate with l > 1 split, on any host."""
    monkeypatch.setattr(estimator, "PARALLEL_M", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def record_threads(monkeypatch, fail=None):
    """Wrap combine_sketches; return the {rep: set of thread ids} it ran
    on, where a block of repetitions is keyed by its slice's (start,
    stop, step).  `fail(rep)` may raise instead of combining."""
    threads: dict[int | tuple, set[int]] = {}
    original = estimator.combine_sketches

    def recorded(node, sketches, rep):
        key = (rep.start, rep.stop, rep.step) if isinstance(rep, slice) else rep
        threads.setdefault(key, set()).add(threading.get_ident())
        if fail is not None:
            fail(rep)
        return original(node, sketches, rep)

    monkeypatch.setattr(estimator, "combine_sketches", recorded)
    return threads


def run_script(script: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter that imports joinsketch from src
    and the test helpers from tests, within 120 s."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


# A script prefix whose `report = estimate(sketches, graph)` splits, on
# any host.
SPLIT_SCRIPT = (
    "import os, threading, time\n"
    "import numpy as np\n"
    "from joinsketch.estimator import PARALLEL_M, estimate\n"
    "from joinsketch.sketch import RelationSketch, SketchConfig\n"
    "from conftest import multiway_graph\n"
    "os.sched_getaffinity = lambda pid: {0, 1}\n"
    "graph = multiway_graph()\n"
    "config = SketchConfig(m=PARALLEL_M, l=2, seed=0)\n"
    "sketches = [RelationSketch(k, config, graph, None, np.ones((2, PARALLEL_M)))\n"
    "            for k in range(graph.r)]\n"
    "report = estimate(sketches, graph)\n"
)


class ShareError(Exception):
    pass


class TestSplitRepetitions:
    def test_matches_the_serial_loop_bit_for_bit(self, monkeypatch):
        split_everything(monkeypatch)
        threads = record_threads(monkeypatch)
        main = {threading.get_ident()}
        rng = np.random.default_rng(16)
        for _ in range(8):
            graph = random_graph(rng)
            m = int(rng.choice([4, 8, 16]))
            for l in (1, 2, 3, 5, 8):
                grids = [rng.normal(size=(l, m)) for _ in range(graph.r)]
                sketches = sketches_from_grids(graph, grids, m=m, l=l)
                for root in range(graph.w):
                    plan = traversal_plan(graph, root)
                    serial = tuple(
                        float(combine_sketches(plan, sketches, rep).sum()) for rep in range(l)
                    )
                    threads.clear()
                    report = estimate(sketches, graph, plan)
                    assert report.per_repetition == serial
                    assert report.median == statistics.median(serial)
                    assert all(threads[rep] == main for rep in range(0, l, 2))
                    assert all(threads[rep] - main for rep in range(1, l, 2))
                    assert len(set().union(*threads.values())) == min(l, 2)

    def test_sketches_freed_without_the_cycle_collector(self, monkeypatch):
        # The worker thread must not keep a finished job's closure either.
        split_everything(monkeypatch)
        TestEstimate().test_sketches_freed_without_the_cycle_collector()

    @pytest.mark.parametrize("failing_rep", [1, 0], ids=["worker-share", "caller-share"])
    def test_sketches_freed_after_a_share_raises(self, monkeypatch, failing_rep):
        # Nothing the split keeps after an exception, such as the worker's
        # exception in a cycle with the frame that raised it, may hold the
        # sketches once the caller drops the exception.
        split_everything(monkeypatch)

        def fail(rep):
            if rep == failing_rep:
                raise ShareError(f"rep {rep}")

        record_threads(monkeypatch, fail)
        graph = multiway_graph()
        sketches = sketches_from_grids(
            graph, random_sketch_grids(np.random.default_rng(4), graph, m=8, l=3), m=8, l=3
        )
        grid = weakref.ref(sketches[0].counters)
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(ShareError, match=f"rep {failing_rep}"):
                estimate(sketches, graph)
            del sketches
            assert grid() is None
        finally:
            gc.enable()

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        split_everything(monkeypatch)
        graph = multiway_graph()
        grids = random_sketch_grids(np.random.default_rng(17), graph, m=8, l=5)
        sketches = sketches_from_grids(graph, grids, m=8, l=5)
        serial = [float(combine_sketches(traversal_plan(graph, "auto"), sketches, rep).sum())
                  for rep in range(5)]

        def fail(rep):
            if rep == 3:
                raise ShareError("rep 3")

        threads = record_threads(monkeypatch, fail)
        with pytest.raises(ShareError, match="rep 3"):
            estimate(sketches, graph)
        assert sorted(threads) == [0, 1, 2, 3, 4]
        monkeypatch.setattr(estimator, "combine_sketches", combine_sketches)
        assert list(estimate(sketches, graph).per_repetition) == serial

    def test_caller_exception_waits_for_the_worker(self, monkeypatch):
        split_everything(monkeypatch)
        graph = two_rel_graph()
        grids = random_sketch_grids(np.random.default_rng(18), graph, m=8, l=4)
        sketches = sketches_from_grids(graph, grids, m=8, l=4)
        original = estimator.combine_sketches
        finished = []

        def slow(node, sketches, rep):
            if rep == 0:
                raise ShareError("rep 0")
            time.sleep(0.02)
            out = original(node, sketches, rep)
            finished.append(rep)
            return out

        monkeypatch.setattr(estimator, "combine_sketches", slow)
        with pytest.raises(ShareError, match="rep 0"):
            estimate(sketches, graph)
        # Two plan nodes per repetition: the worker's whole share ran.
        assert finished == [1, 1, 3, 3]

    @pytest.mark.parametrize(
        "cpus, parallel_m, path",
        [({0}, 1, "fft"), ({0, 1}, 16, "fft"), ({0, 1}, 1, "naive")],
        ids=["one-cpu", "m-below-the-constant", "naive-path"],
    )
    def test_serial_cases_start_no_worker(self, monkeypatch, cpus, parallel_m, path):
        monkeypatch.setattr(estimator, "PARALLEL_M", parallel_m)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

        def no_worker():
            raise AssertionError("a worker thread was asked for")

        monkeypatch.setattr(estimator, "_executor", no_worker)
        threads = record_threads(monkeypatch)
        graph = multiway_graph()
        grids = random_sketch_grids(np.random.default_rng(19), graph, m=8, l=5)
        report = estimate(sketches_from_grids(graph, grids, m=8, l=5), graph, path=path)
        assert len(report.per_repetition) == 5
        if path == "fft":
            assert set().union(*threads.values()) == {threading.get_ident()}

    def test_small_m_estimate_is_one_block_pass_equal_to_the_serial_report(self, monkeypatch):
        # On any host, every fft estimate below PARALLEL_M combines all its
        # repetitions as one block, in the calling thread.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def no_worker():
            raise AssertionError("a worker thread was asked for")

        monkeypatch.setattr(estimator, "_executor", no_worker)
        rng = np.random.default_rng(24)
        for _ in range(6):
            graph = random_graph(rng)
            for l, m in ((1, 4096), (4, 7), (5, 64), (8, 255), (5, estimator.PARALLEL_M - 1)):
                grids = [rng.normal(size=(l, m)) for _ in range(graph.r)]
                sketches = sketches_from_grids(graph, grids, m=m, l=l)
                plan = traversal_plan(graph, "auto")
                serial = tuple(
                    float(combine_sketches(plan, sketches, rep).sum()) for rep in range(l)
                )
                threads = record_threads(monkeypatch)
                report = estimate(sketches, graph, plan)
                monkeypatch.setattr(estimator, "combine_sketches", combine_sketches)
                assert report.per_repetition == serial
                assert report.median == statistics.median(serial)
                assert threads == {(None, None, None): {threading.get_ident()}}

    def test_small_m_transform_count_does_not_grow_with_l(self, monkeypatch):
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(*args, original=original, name=name, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        graph = multiway_graph()
        rng = np.random.default_rng(25)
        counts = {}
        for l in (1, 2, 5, 8):
            grids = random_sketch_grids(rng, graph, m=64, l=l)
            calls.clear()
            estimate(sketches_from_grids(graph, grids, m=64, l=l), graph)
            counts[l] = (calls.count("rfft"), calls.count("irfft"))
        assert counts[1][0] > 0 and counts[1][1] > 0
        assert set(counts.values()) == {counts[1]}, counts

    def test_ams_estimate_equals_the_per_row_products(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            graph = random_graph(rng)
            for l, m in ((1, 1), (3, 7), (5, 64), (2, 1024)):
                for dtype in (np.float64, np.int16):
                    grids = [rng.integers(-300, 300, size=(l, m)).astype(dtype)
                             for _ in range(graph.r)]
                    if dtype == np.float64:
                        grids = [grid + rng.random(size=(l, m)) for grid in grids]
                    config = SketchConfig(m=m, l=l, seed=0, method="ams")
                    sketches = [RelationSketch(k, config, graph, None, grid)
                                for k, grid in enumerate(grids)]
                    per_row = []
                    for rep in range(l):
                        product = grids[0][rep].astype(np.float64)
                        for grid in grids[1:]:
                            product = product * grid[rep]
                        per_row.append(float(product.mean()))
                    report = ams_estimate(sketches, graph)
                    assert report.per_repetition == tuple(per_row)
                    assert report.median == statistics.median(per_row)

    def test_ams_estimate_starts_no_worker(self, monkeypatch):
        split_everything(monkeypatch)

        def no_worker():
            raise AssertionError("a worker thread was asked for")

        monkeypatch.setattr(estimator, "_executor", no_worker)
        graph = two_rel_graph()
        config = SketchConfig(m=8, l=3, seed=0, method="ams")
        sketches = [RelationSketch(k, config, graph, None, np.ones((3, 8))) for k in range(2)]
        assert ams_estimate(sketches, graph).per_repetition == (1.0,) * 3

    def test_concurrent_callers_get_their_own_results(self, monkeypatch):
        # More callers than cores share the one worker, with frequent
        # thread switches: a result handed to the wrong caller shows.
        split_everything(monkeypatch)
        rng = np.random.default_rng(20)
        cases = []
        for _ in range(4):
            graph = random_graph(rng)
            grids = [rng.normal(size=(5, 16)) for _ in range(graph.r)]
            sketches = sketches_from_grids(graph, grids, m=16, l=5)
            cases.append((graph, sketches, estimate(sketches, graph).per_repetition))
        wrong = []

        def caller(graph, sketches, want):
            for _ in range(30):
                if estimate(sketches, graph).per_repetition != want:
                    wrong.append(want)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=case) for case in cases]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert wrong == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_worker(self, monkeypatch):
        split_everything(monkeypatch)
        graph = multiway_graph()
        grids = random_sketch_grids(np.random.default_rng(21), graph, m=8, l=5)
        sketches = sketches_from_grids(graph, grids, m=8, l=5)
        want = estimate(sketches, graph).per_repetition  # the parent's worker runs
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child
            ok = False
            try:
                ok = estimate(sketches, graph).per_repetition == want
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's estimate hung")
        assert os.waitstatus_to_exitcode(status[1]) == 0

    def test_small_m_estimate_starts_no_thread_and_imports_no_queue(self, tmp_path):
        script = (
            "import sys, threading\n"
            "import numpy as np\n"
            "from joinsketch.estimator import estimate\n"
            "from joinsketch.sketch import RelationSketch, SketchConfig\n"
            "from conftest import multiway_graph\n"
            "graph = multiway_graph()\n"
            "config = SketchConfig(m=4096, l=5, seed=0)\n"
            "sketches = [RelationSketch(k, config, graph, None, np.ones((5, 4096)))\n"
            "            for k in range(graph.r)]\n"
            "estimate(sketches, graph)\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "assert 'queue' not in sys.modules and 'concurrent' not in sys.modules\n"
        )
        proc = run_script(script)
        assert proc.returncode == 0, proc.stderr

    def test_split_estimate_exits_promptly(self):
        # The executor's worker is not a daemon thread: the interpreter
        # joins it at exit, which an idle worker must not hold up.  A hang
        # fails at run_script's timeout; a slow exit, at 10 s after the
        # script's last statement.
        proc = run_script(
            SPLIT_SCRIPT + "assert threading.active_count() == 2, threading.enumerate()\n"
            "print(time.monotonic())\n"
        )
        exited = time.monotonic()
        assert proc.returncode == 0, proc.stderr
        assert exited - float(proc.stdout) < 10.0

    def test_split_estimate_after_shutdown_began_runs_serially(self):
        # An atexit handler runs after concurrent.futures has stopped
        # taking work; its estimate still returns the split's result.
        proc = run_script(
            SPLIT_SCRIPT + "import atexit\n"
            "atexit.register(lambda: print(\n"
            "    estimate(sketches, graph).per_repetition == report.per_repetition))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n", proc.stderr


class TestRequiredBins:
    def test_direct_formula(self):
        assert required_bins(1.0, 2, 10.0) == 90

    def test_epsilon_halving_quadruples(self):
        base = required_bins(1.0, 2, 10.0)
        assert required_bins(0.5, 2, 10.0) == 4 * base

    def test_three_relations(self):
        assert required_bins(0.5, 3, 4.0) == 432

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            required_bins(0.0, 2, 1.0)
