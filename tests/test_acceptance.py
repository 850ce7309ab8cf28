"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Statistical criteria run fixed, seeded protocols whose
margins were checked to sit far inside the stated tolerances."""

import statistics
import time

import numpy as np
import pytest

from joinsketch.ams import ams_estimate, ams_sketch, ams_update
from joinsketch.bench import build_sketches, run_bench
from joinsketch.estimator import (
    combine_sketches,
    estimate,
    naive_estimate,
)
from joinsketch.hashing import derive_hash_set
from joinsketch.joingraph import traversal_plan
from joinsketch.mersenne import mix64
from joinsketch.oracle import exact_cardinality, frequency_norms
from joinsketch.sketch import (
    RelationSketch,
    SketchConfig,
    TupleUpdate,
    build_sketch,
    group_tuples,
    merge,
    update,
)

from conftest import (
    chain3_graph,
    circ_convolve,
    multiway_graph,
    random_graph,
    random_sketch_grids,
    two_rel_graph,
    zipf_values,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _grids_to_sketches(graph, grids, m, l):
    config = SketchConfig(m=m, l=l, seed=0, method="conv")
    out = []
    for rel, grid in enumerate(grids):
        sk = RelationSketch(rel, config, graph, hashes=None)
        sk.counters = np.asarray(grid, dtype=np.float64)
        out.append(sk)
    return out


# ----------------------------------------------------------------------
# Shared statistical harness (criteria 3 and 4): a fixed Zipf-skewed
# 3-relation chain, m=64, single repetition, 2000 seeds per method.
# ----------------------------------------------------------------------

CHAIN_SEEDS = 2000
CHAIN_M = 64


@pytest.fixture(scope="module")
def chain_workload():
    rng = np.random.default_rng(90210)
    domain, skew = 16, 1.1
    sizes = (40, 50, 40)
    graph = chain3_graph()
    columns = [
        ({0: zipf_values(rng, sizes[0], domain, skew)}, np.ones(sizes[0])),
        (
            {
                1: zipf_values(rng, sizes[1], domain, skew),
                2: zipf_values(rng, sizes[1], domain, skew),
            },
            np.ones(sizes[1]),
        ),
        ({3: zipf_values(rng, sizes[2], domain, skew)}, np.ones(sizes[2])),
    ]
    freqs = [group_tuples(cols, graph.omega[rel], d) for rel, (cols, d) in enumerate(columns)]
    exact = exact_cardinality(columns, graph, path="nested")
    norm_product = 1.0
    for f in freqs:
        norm_product *= frequency_norms(f)
    return graph, columns, exact, norm_product


@pytest.fixture(scope="module")
def chain_estimates(chain_workload):
    graph, columns, _, _ = chain_workload
    out = {}
    for method in ("conv", "ams"):
        ests = np.empty(CHAIN_SEEDS)
        for i in range(CHAIN_SEEDS):
            config = SketchConfig(
                m=CHAIN_M, l=1, seed=mix64(i ^ 0x5EED0001), method=method
            )
            sketches = build_sketches(graph, config, columns)
            if method == "conv":
                ests[i] = estimate(sketches, graph).per_repetition[0]
            else:
                ests[i] = ams_estimate(sketches, graph).per_repetition[0]
        out[method] = ests
    return out


class TestCriterion1GoldenConvolution:
    def test_single_item_sketches(self):
        # Two single-item Count sketches over m=5 bins: (-1 at bin 2) and
        # (+1 at bin 3).  Their circular convolution is exactly (-1 at
        # bin (2+3) mod 5 = 0); the Hadamard product is exactly zero.
        m = 5
        x = np.zeros(m)
        y = np.zeros(m)
        x[2] = -1.0
        y[3] = +1.0
        expected = np.zeros(m)
        expected[0] = -1.0

        # Exact integer-arithmetic convolution straight from the definition.
        direct = np.array(
            [sum(x[i] * y[(j - i) % m] for i in range(m)) for j in range(m)]
        )
        conv_ok = np.array_equal(direct, expected)
        had_ok = np.array_equal(x * y, np.zeros(m))

        # The sketch update realizes the same convolution exactly: force
        # attribute hashes producing exactly these two single-item
        # sketches (constant bins 2 and 3, signs -1 and +1) and ingest
        # one two-attribute tuple.
        from joinsketch.hashing import HashSet

        graph = chain3_graph()  # relation 1 has two attributes (1, 2)
        config = SketchConfig(m=m, l=1, seed=0, method="conv")
        hashes = HashSet(
            signs={
                (0, 1): np.array([[[0, 0, 0, 1]]], dtype=np.uint64),  # constant odd -> -1
                (2, 3): np.array([[[0, 0, 0, 0]]], dtype=np.uint64),  # constant even -> +1
            },
            bins=np.array(
                [[[0, 2]], [[0, 3]]], dtype=np.uint64  # every item to bin 2, to bin 3
            ),
        )
        sk = RelationSketch(1, config, graph, hashes)
        update(sk, TupleUpdate(1, {1: 41, 2: 97}, 1.0))
        update_ok = np.array_equal(sk.counters[0], expected)

        # The float FFT kernel agrees with the exact result to rounding.
        fft_ok = bool(np.max(np.abs(circ_convolve(x, y) - expected)) < 1e-12)

        _report(
            1,
            "single-item convolution vs Hadamard",
            conv_ok and had_ok and update_ok and fft_ok,
            f"direct={direct.tolist()} update={sk.counters[0].tolist()}",
        )


class TestCriterion2OracleEquivalence:
    def test_fft_path_matches_direct_sum(self):
        rng = np.random.default_rng(20240401)
        m_choices = [1, 2, 3, 4, 8, 16]
        cases = []
        for m in m_choices:
            cases.append((multiway_graph(), m))
        while len(cases) < 200:
            cases.append((random_graph(rng), int(rng.choice(m_choices))))

        worst = 0.0
        for graph, m in cases:
            grids = random_sketch_grids(rng, graph, m=m, l=1)
            sketches = _grids_to_sketches(graph, grids, m=m, l=1)
            want = naive_estimate(sketches, graph, 0)
            root = int(rng.integers(0, graph.w))
            got = float(combine_sketches(traversal_plan(graph, root), sketches, 0).sum())
            rel = abs(got - want) / (1.0 + abs(want))
            worst = max(worst, rel)
        _report(2, "FFT path equals direct evaluation", worst <= 1e-9,
                f"200 instances, worst rel diff {worst:.2e}")


class TestCriterion3Unbiasedness:
    def test_sample_mean_within_three_se(self, chain_workload, chain_estimates):
        _, _, exact, _ = chain_workload
        details = []
        ok = True
        for method in ("conv", "ams"):
            ests = chain_estimates[method]
            se = ests.std(ddof=1) / np.sqrt(len(ests))
            dev = abs(float(ests.mean()) - exact)
            ok = ok and dev <= 3 * se
            details.append(f"{method}: |mean-exact|={dev:.1f} (3SE={3*se:.1f})")
        _report(3, "unbiased estimates (conv and ams)", ok, "; ".join(details))


class TestCriterion4VarianceBound:
    def test_empirical_variance_within_bound(self, chain_workload, chain_estimates):
        graph, _, _, norm_product = chain_workload
        bound = (3.0 ** (graph.r - 1) / CHAIN_M) * norm_product
        details = []
        ok = True
        for method in ("conv", "ams"):
            var = float(chain_estimates[method].var(ddof=1))
            ok = ok and var <= 1.2 * bound
            details.append(f"{method}: var/bound={var / bound:.3f}")
        _report(4, "variance bound (conv and ams)", ok,
                "; ".join(details) + f" (bound={bound:.3g}, slack 1.2)")


class TestCriterion5CountSketchInnerProduct:
    SEEDS = 2000
    M = 64

    def test_inner_product_mean_and_variance(self):
        rng = np.random.default_rng(777)
        graph = two_rel_graph()
        fx = zipf_values(rng, 60, 24, 1.0)
        gx = zipf_values(rng, 50, 24, 1.0)
        columns = [({0: fx}, np.ones(60)), ({1: gx}, np.ones(50))]
        freqs = [group_tuples(cols, graph.omega[k], d) for k, (cols, d) in enumerate(columns)]
        inner = exact_cardinality(columns, graph, path="nested")
        norms = frequency_norms(freqs[0]) * frequency_norms(freqs[1])

        ests = np.empty(self.SEEDS)
        for i in range(self.SEEDS):
            config = SketchConfig(m=self.M, l=1, seed=mix64(i ^ 0xABCD), method="conv")
            sk_f, sk_g = build_sketches(graph, config, columns)
            ests[i] = float(sk_f.counters[0] @ sk_g.counters[0])

        se = ests.std(ddof=1) / np.sqrt(self.SEEDS)
        dev = abs(float(ests.mean()) - inner)
        bound = (2.0 / self.M) * norms
        var = float(ests.var(ddof=1))
        ok = dev <= 3 * se and var <= 1.2 * bound
        _report(5, "count-sketch inner product", ok,
                f"|mean-<f,g>|={dev:.2f} (3SE={3*se:.2f}); var/bound={var / bound:.3f}")


class TestCriterion6UpdateCost:
    def test_touch_counts_and_timing(self):
        graph = two_rel_graph()
        rng = np.random.default_rng(5150)

        # Instrumented conv updates write exactly l cells at every m.
        touch_ok = True
        for m in (2**4, 2**8, 2**12, 2**16, 2**18):
            config = SketchConfig(m=m, l=5, seed=7, method="conv")
            sk = RelationSketch(0, config, graph, derive_hash_set(config, graph))
            before = sk.counters.copy()
            update(sk, TupleUpdate(0, {0: 123456}, 1.0))
            touch_ok = touch_ok and sk.touched_cells == 5
            touch_ok = touch_ok and int((sk.counters != before).sum()) == 5

        def time_conv(m, n=3000, repeats=3):
            config = SketchConfig(m=m, l=5, seed=7, method="conv")
            sk = RelationSketch(0, config, graph, derive_hash_set(config, graph))
            updates = [TupleUpdate(0, {0: int(x)}, 1.0) for x in rng.integers(0, 1 << 62, size=n)]
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                for t in updates:
                    update(sk, t)
                best = min(best, time.perf_counter() - t0)
            return best / n

        def time_ams(m, n=10, repeats=2):
            config = SketchConfig(m=m, l=5, seed=7, method="ams")
            sk = ams_sketch(0, config, graph)
            updates = [TupleUpdate(0, {0: int(x)}, 1.0) for x in rng.integers(0, 1 << 62, size=n)]
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                for t in updates:
                    ams_update(sk, t)
                best = min(best, time.perf_counter() - t0)
            return best / n

        conv_ratio = time_conv(2**18) / time_conv(2**10)
        ams_ratio = time_ams(2**18) / time_ams(2**10)
        ok = touch_ok and conv_ratio <= 2.0 and ams_ratio >= 32.0
        _report(6, "update cost independent of m", ok,
                f"touches=l ok={touch_ok}; conv ratio {conv_ratio:.2f} (<=2); "
                f"ams ratio {ams_ratio:.0f} (>=32)")


class TestCriterion7LinearityTurnstile:
    def test_merge_and_cancellation_thousand_cases(self):
        rng = np.random.default_rng(20240707)
        graphs = [two_rel_graph(), multiway_graph(), chain3_graph()]
        ok = True
        for case in range(1000):
            graph = graphs[case % len(graphs)]
            relation = int(rng.integers(0, graph.r))
            omega = graph.omega[relation]
            m = int(rng.integers(1, 33))
            l = int(rng.integers(1, 4))
            config = SketchConfig(m=m, l=l, seed=int(rng.integers(0, 1 << 62)))
            hashes = derive_hash_set(config, graph)

            def stream(n):
                return [
                    TupleUpdate(
                        relation,
                        {u: int(rng.integers(0, 64)) for u in omega},
                        float(rng.integers(-3, 4)),
                    )
                    for _ in range(n)
                ]

            a = stream(int(rng.integers(0, 12)))
            b = stream(int(rng.integers(1, 12)))
            merged = merge(
                build_sketch(a, graph, hashes, config, relation),
                build_sketch(b, graph, hashes, config, relation),
            )
            together = build_sketch(a + b, graph, hashes, config, relation)
            ok = ok and np.array_equal(merged.counters, together.counters)

            sk = RelationSketch(relation, config, graph, hashes)
            values = {u: int(rng.integers(0, 64)) for u in omega}
            delta = float(rng.integers(1, 10))
            update(sk, TupleUpdate(relation, values, +delta))
            update(sk, TupleUpdate(relation, values, -delta))
            ok = ok and not sk.counters.any()
            if not ok:
                break
        _report(7, "linearity and turnstile cancellation", ok, "1000 randomized cases")


class TestCriterion8RootInvariance:
    def test_every_root_agrees(self):
        rng = np.random.default_rng(20240808)
        worst = 0.0
        for _ in range(50):
            graph = random_graph(rng)
            m = 8
            grids = random_sketch_grids(rng, graph, m=m, l=1)
            sketches = _grids_to_sketches(graph, grids, m=m, l=1)
            values = [
                float(combine_sketches(traversal_plan(graph, root), sketches, 0).sum())
                for root in range(graph.w)
            ]
            spread = max(values) - min(values)
            scale = max(1.0, max(abs(v) for v in values))
            worst = max(worst, spread / scale)
        _report(8, "root invariance", worst <= 1e-6,
                f"50 graphs, worst relative spread {worst:.2e}")


class TestCriterion9ErrorMemorySlope:
    def test_median_error_decreases_with_memory(self):
        rng = np.random.default_rng(4321)
        domain, skew = 1 << 13, 1.0
        sizes = (4000, 5000, 4000)
        graph = chain3_graph()
        columns = [
            ({0: zipf_values(rng, sizes[0], domain, skew)}, np.ones(sizes[0])),
            (
                {
                    1: zipf_values(rng, sizes[1], domain, skew),
                    2: zipf_values(rng, sizes[1], domain, skew),
                },
                np.ones(sizes[1]),
            ),
            ({3: zipf_values(rng, sizes[2], domain, skew)}, np.ones(sizes[2])),
        ]
        _, summaries, slopes = run_bench(
            graph,
            m_values=[2**6, 2**8, 2**10, 2**12],
            trials=30,
            master_seed=20240601,
            methods=["conv"],
            l=5,
            columns_by_relation=columns,
        )
        medians = [s.median_are for s in summaries]
        decreasing = all(a > b for a, b in zip(medians, medians[1:]))
        slope = slopes["conv"]
        ok = decreasing and slope < 0
        _report(9, "error-memory slope", ok,
                f"median ARE {['%.4f' % v for v in medians]}, slope {slope:.3f}")


class TestCriterion10MedianProtocol:
    def test_reported_median_is_order_statistic(self):
        rng = np.random.default_rng(20241010)
        ok = True
        for case in range(100):
            graph = random_graph(rng)
            m = int(rng.choice([2, 4, 8]))
            grids = random_sketch_grids(rng, graph, m=m, l=5)
            sketches = _grids_to_sketches(graph, grids, m=m, l=5)
            report = estimate(sketches, graph)
            ordered = sorted(report.per_repetition)
            ok = ok and report.median == ordered[2]
            ok = ok and report.median == statistics.median(report.per_repetition)
            if not ok:
                break
        _report(10, "median-of-5 protocol", ok, "100 randomized cases")
