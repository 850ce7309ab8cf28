"""The JSK2 sketch file: per-grid integer encodings, grid alignment, the
query fingerprint, and arithmetic on the integer grids a load returns."""

import json
import mmap
import tracemalloc

import numpy as np
import pytest

from joinsketch import sketchfile
from joinsketch.ams import ams_bulk_update, ams_estimate, ams_update
from joinsketch.bench import build_sketches, read_all_columns
from joinsketch.cli import EXIT_DATA, main
from joinsketch.errors import DataError, QueryError
from joinsketch.estimator import circ_cross_correlate, estimate
from joinsketch.hashing import derive_hash_set
from joinsketch.joingraph import build_join_graph, load_query, parse_query, traversal_plan
from joinsketch.sketch import (
    RelationSketch,
    SketchConfig,
    TupleUpdate,
    bulk_update,
    merge,
    update,
)
from joinsketch.sketchfile import GRID_ALIGN, MAP_BYTES, load_sketch_file, save_sketch_file

from conftest import (
    chain3_graph,
    chain3_query_doc,
    multiway_graph,
    patch_sketch_header,
    two_rel_graph,
    two_rel_query_doc,
    write_chain3_workload,
)


def _round_trip(tmp_path, grids, graph=None, config=None):
    """Save `grids` as relations A and B (or `graph`'s) and load them back."""
    graph = graph or two_rel_graph()
    l, m = grids[0].shape
    config = config or SketchConfig(m=m, l=l, seed=5)
    names = [decl.name for decl in graph.spec.relations]
    path = str(tmp_path / "g.jsk")
    save_sketch_file(path, graph, config, list(zip(names, grids)))
    loaded_config, loaded = load_sketch_file(path, graph)
    assert loaded_config == config
    assert [name for name, _ in loaded] == names
    return path, [grid for _, grid in loaded]


def _grid_with(value, m=8):
    grid = np.zeros((2, m))
    grid[1, 3] = value
    grid[0, 0] = -1.0
    return grid


@pytest.mark.parametrize(
    "value, dtype",
    [
        (2**15 - 1, np.int16), (-(2**15 - 1), np.int16),
        (2**15, np.int32), (-(2**15), np.int32),
        (2**31 - 1, np.int32), (2**31, np.int64),
        (2**53 - 1, np.int64), (-(2**53 - 1), np.int64),
        (2**53, np.float64),
    ],
)
def test_each_grid_takes_the_narrowest_exact_dtype(tmp_path, value, dtype):
    grids = [_grid_with(float(value)), np.ones((2, 8))]
    _, loaded = _round_trip(tmp_path, grids)
    assert loaded[0].dtype == dtype and loaded[0].dtype.isnative
    assert loaded[1].dtype == np.int16
    for grid, back in zip(grids, loaded):
        assert back.astype(np.float64).tobytes() == grid.tobytes()


@pytest.mark.parametrize("value", [0.5, -3.25, 1e-300, np.nan, np.inf, -np.inf, -0.0])
def test_a_grid_that_is_not_all_integers_stays_float64(tmp_path, value):
    grids = [_grid_with(value), np.zeros((2, 8))]
    _, loaded = _round_trip(tmp_path, grids)
    assert loaded[0].dtype == np.float64
    assert loaded[0].tobytes() == grids[0].tobytes()  # NaN payload and -0.0 sign bit too


def test_all_zero_and_fully_dense_grids_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    dense = rng.integers(1, 2**15, size=(3, 64)) * rng.choice([-1, 1], size=(3, 64))
    grids = [np.zeros((3, 64)), dense.astype(np.float64)]
    _, loaded = _round_trip(tmp_path, grids)
    assert [g.dtype for g in loaded] == [np.int16, np.int16]
    assert np.count_nonzero(loaded[1]) == loaded[1].size
    for grid, back in zip(grids, loaded):
        assert back.astype(np.float64).tobytes() == grid.tobytes()


@pytest.mark.parametrize("names", [("A", "B"), ("a" * 63, "b" * 64), ("ä", "b" * 130)])
def test_every_grid_starts_at_an_aligned_offset(tmp_path, names):
    # Over MAP_BYTES of int16 grids, so the grids are views of the mapping,
    # whose start is page-aligned.
    m = MAP_BYTES // (2 * 2 * 2) + 1
    doc = two_rel_query_doc()
    for decl, name in zip(doc["relations"], names):
        decl["name"] = name
    doc["joins"] = [[f"{names[0]}.x", f"{names[1]}.y"]]
    graph = build_join_graph(parse_query(doc))
    rng = np.random.default_rng(2)
    grids = [rng.integers(-9, 10, size=(2, m)).astype(np.float64) for _ in names]
    path, loaded = _round_trip(tmp_path, grids, graph)
    data = open(path, "rb").read()
    for grid, back in zip(grids, loaded):
        assert not back.flags.owndata and back.dtype == np.int16
        assert back.ctypes.data % GRID_ALIGN == 0
        offset = data.index(back.tobytes())
        assert offset % GRID_ALIGN == 0
        assert np.array_equal(back, grid)


def test_narrow_grids_are_read_below_map_bytes_of_encoded_size(tmp_path):
    # As float64 these grids would total MAP_BYTES; as int16 a quarter.
    m = MAP_BYTES // (2 * 2 * 8)
    grids = [np.ones((2, m)), -np.ones((2, m))]
    _, loaded = _round_trip(tmp_path, grids)
    assert all(g.flags.owndata and g.dtype == np.int16 for g in loaded)


def _saved_int16(tmp_path, m=4096):
    graph = two_rel_graph()
    path = str(tmp_path / "t.jsk")
    relations = [("A", np.ones((2, m))), ("B", np.full((2, m), -2.0))]
    save_sketch_file(path, graph, SketchConfig(m=m, l=2), relations)
    return path


@pytest.fixture()
def no_mapping(monkeypatch):
    """Map every file, and fail the test if one is mapped."""

    class Refused:
        ACCESS_COPY = mmap.ACCESS_COPY

        @staticmethod
        def mmap(*args, **kwargs):
            raise AssertionError("the file was mapped")

    monkeypatch.setattr(sketchfile, "mmap", Refused)
    monkeypatch.setattr(sketchfile, "MAP_BYTES", 0)


@pytest.mark.parametrize(
    "tag, fragment",
    [(4, "unknown grid encoding tag 4 for 'A'"), (0xFF, "unknown grid encoding tag 255"),
     (3, "truncated sketch file while reading counters for 'A'")],
)
def test_a_corrupt_tag_is_a_data_error_before_any_grid_is_held(
    tmp_path, no_mapping, tag, fragment
):
    # Tag 3 claims 8 bytes a counter for A's 2-byte counters: 64 KiB, more
    # than the file holds.
    path = _saved_int16(tmp_path)
    patch_sketch_header(path, "tag0", tag)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=fragment):
            load_sketch_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 4096 * 2


def test_a_corrupt_tag_exits_3(tmp_path, caplog):
    q = tmp_path / "q.json"
    q.write_text(json.dumps(two_rel_query_doc()))
    path = _saved_int16(tmp_path)
    patch_sketch_header(path, "tag0", 9)
    assert main(["estimate", "--query", str(q), "--sketches", path]) == EXIT_DATA
    assert "unknown grid encoding tag 9" in caplog.text


# --- integer grids in arithmetic ---------------------------------------------


def _sketches(graph, config, grids):
    return [RelationSketch(k, config, graph, None, grid) for k, grid in enumerate(grids)]


def _big_counters(rng, graph, l, m, dtype):
    """Grids of `dtype` whose counters fill most of its range."""
    top = np.iinfo(dtype).max
    return [
        (rng.integers(top // 2, top, size=(l, m)) * rng.choice([-1, 1], size=(l, m))).astype(dtype)
        for _ in range(graph.r)
    ]


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
@pytest.mark.parametrize("graph_of", [two_rel_graph, chain3_graph, multiway_graph])
@pytest.mark.parametrize("path", ["fft", "naive"])
def test_conv_estimate_over_integer_grids_is_the_float64_estimate(dtype, graph_of, path):
    # Every Hadamard product here overflows the grids' dtype.
    graph, rng = graph_of(), np.random.default_rng(7)
    config = SketchConfig(m=16, l=3)
    grids = _big_counters(rng, graph, config.l, config.m, dtype)
    narrow = estimate(_sketches(graph, config, grids), graph, path=path)
    wide = estimate(
        _sketches(graph, config, [g.astype(np.float64) for g in grids]), graph, path=path
    )
    assert narrow.per_repetition == wide.per_repetition


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_conv_estimate_from_every_root_is_the_float64_estimate(dtype):
    # Rooted at R3's a4, the plan enters R1 through a2 and multiplies the
    # rows of R0 and R2, the two relations a1 joins, before it
    # cross-correlates them: two raw counter rows meet.
    graph, rng = multiway_graph(), np.random.default_rng(9)
    config = SketchConfig(m=16, l=3)
    grids = _big_counters(rng, graph, config.l, config.m, dtype)
    wide = [g.astype(np.float64) for g in grids]
    for root in range(graph.w):
        plan = traversal_plan(graph, root)
        narrow = estimate(_sketches(graph, config, grids), graph, plan)
        want = estimate(_sketches(graph, config, wide), graph, plan)
        assert narrow.per_repetition == want.per_repetition, root


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
@pytest.mark.parametrize("graph_of", [two_rel_graph, multiway_graph])
def test_ams_estimate_over_integer_grids_is_the_float64_estimate(dtype, graph_of):
    # Four int16 counters multiply past 2^53 in int64, and int32 ones
    # past 2^63: an integer product would round or wrap, not as float64.
    graph, rng = graph_of(), np.random.default_rng(8)
    config = SketchConfig(m=64, l=3, method="ams")
    grids = _big_counters(rng, graph, config.l, config.m, dtype)
    narrow = ams_estimate(_sketches(graph, config, grids), graph)
    wide = ams_estimate(_sketches(graph, config, [g.astype(np.float64) for g in grids]), graph)
    assert narrow.per_repetition == wide.per_repetition


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
@pytest.mark.parametrize("m", [7, 64, 4096])
def test_cross_correlation_reads_integer_rows_as_float64(dtype, m):
    rng = np.random.default_rng(m)
    top = np.iinfo(dtype).max
    x, y = (rng.integers(-top, top, size=m).astype(dtype) for _ in range(2))
    got = circ_cross_correlate(x, y)
    want = circ_cross_correlate(x.astype(np.float64), y.astype(np.float64))
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_merge_of_int16_grids_sums_in_float64():
    graph, config = two_rel_graph(), SketchConfig(m=8, l=2)
    a = RelationSketch(0, config, graph, None, np.full((2, 8), 30000, dtype=np.int16))
    b = RelationSketch(0, config, graph, None, np.full((2, 8), -30000, dtype=np.int16))
    b.counters[1, 2] = 30000
    out = merge(a, b)
    assert out.counters.dtype == np.float64
    expected = a.counters.astype(np.float64) + b.counters.astype(np.float64)
    assert out.counters.tobytes() == expected.tobytes()
    assert out.counters[1, 2] == 60000.0


def test_merge_of_int64_grids_still_stops_at_2_53():
    graph, config = two_rel_graph(), SketchConfig(m=4, l=1)
    a = RelationSketch(0, config, graph, None, np.full((1, 4), 2**52, dtype=np.int64))
    with pytest.raises(DataError, match="2\\^53"):
        merge(a, a)


def test_an_update_into_a_loaded_integer_grid_fails_loudly(tmp_path):
    graph = two_rel_graph()
    config = SketchConfig(m=8, l=2, seed=3)
    _, (grid, _) = _round_trip(tmp_path, [np.ones((2, 8)), np.ones((2, 8))], config=config)
    assert grid.dtype == np.int16
    before = grid.copy()
    sk = RelationSketch(0, config, graph, derive_hash_set(config, graph), grid)
    match = "cannot update the int16 counter grid of relation 0"
    with pytest.raises(QueryError, match=match):
        bulk_update(sk, {0: np.array([1, 2], dtype=np.uint64)}, np.array([0.5, 1.0]))
    with pytest.raises(QueryError, match=match):
        update(sk, TupleUpdate(0, {0: 1}, 0.5))
    ams_config = SketchConfig(m=8, l=2, method="ams")
    ams = RelationSketch(0, ams_config, graph, derive_hash_set(ams_config, graph), grid)
    with pytest.raises(QueryError, match=match):
        ams_bulk_update([ams], [({0: np.array([1], dtype=np.uint64)}, np.array([1.0]))])
    with pytest.raises(QueryError, match=match):
        ams_update(ams, TupleUpdate(0, {0: 1}, 1.0))
    assert np.array_equal(grid, before)


@pytest.mark.parametrize("method, m", [("conv", 64), ("ams", 64), ("conv", 2**14)])
def test_estimates_from_a_narrow_file_equal_those_from_float64_grids(
    tmp_path, capsys, monkeypatch, method, m
):
    # `estimate` over the file `sketch` wrote, whose grids are int16, and
    # over the same grids written as float64, the grid form of JSK1.  At
    # m = 2^14 the float64 file is mapped and the int16 one read, and the
    # repetitions split between two threads.
    write_chain3_workload(tmp_path, np.random.default_rng(4), sizes=(300, 400, 300))
    q = tmp_path / "q.json"
    q.write_text(json.dumps(chain3_query_doc(
        {f"R{k}": str(tmp_path / f"r{k}.csv") for k in range(3)}
    )))
    narrow, wide = str(tmp_path / "n.jsk"), str(tmp_path / "w.jsk")
    assert main(["sketch", "--query", str(q), "--m", str(m), "--reps", "5", "--seed", "2",
                 "--method", method, "--out", narrow]) == 0
    graph = build_join_graph(load_query(str(q)))
    config, loaded = load_sketch_file(narrow, graph)
    assert {grid.dtype for _, grid in loaded} == {np.dtype(np.int16)}
    built = build_sketches(graph, config, read_all_columns(graph))
    for (_, grid), sk in zip(loaded, built):
        assert grid.astype(np.float64).tobytes() == sk.counters.tobytes()
    with monkeypatch.context() as patched:
        patched.setattr(sketchfile, "_encode", lambda grid: (0, grid.astype("<f8")))
        save_sketch_file(wide, graph, config, loaded)
    assert {grid.dtype for _, grid in load_sketch_file(wide)[1]} == {np.dtype(np.float64)}

    reports = []
    for path in (narrow, wide):
        assert main(["estimate", "--query", str(q), "--sketches", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        del payload["infer_ms"]
        reports.append(payload)
    assert reports[0] == reports[1]


# --- the query fingerprint ---------------------------------------------------


def _chain3(joins=None, r1=None, **changes):
    """chain3's query graph with `changes` applied to relation R0, and
    `joins` and R1's `r1` join columns in place of chain3's."""
    doc = chain3_query_doc()
    doc["relations"][0].update(changes)
    if r1 is not None:
        doc["relations"][1]["join_columns"] = r1
    if joins is not None:
        doc["joins"] = joins
    return build_join_graph(parse_query(doc))


def test_the_fingerprint_leaves_out_sources_and_m():
    config = SketchConfig(m=64, l=5, seed=1)
    base = sketchfile._fingerprint(chain3_graph(), config)
    assert len(base) == 32
    assert sketchfile._fingerprint(_chain3(source="/elsewhere/r0.csv"), config) == base
    assert sketchfile._fingerprint(chain3_graph(), SketchConfig(m=4096, l=5, seed=1)) == base
    # The seed is stored as its low 64 bits, and fingerprinted so.
    assert sketchfile._fingerprint(
        chain3_graph(), SketchConfig(m=64, l=5, seed=1 + 2**64)
    ) == base


def test_the_fingerprint_covers_what_chooses_the_counters():
    config = SketchConfig(m=64, l=5, seed=1)
    variants = {
        "base": (chain3_graph(), config),
        "joins swapped": (_chain3(joins=[["R0.x", "R1.z"], ["R1.y", "R2.w"]]), config),
        "join type": (_chain3(join_columns=["x:str"], r1=["y:str", "z:int"]), config),
        "filter": (_chain3(filters=[{"column": "x", "op": "<", "value": 5}]), config),
        "filter value": (_chain3(filters=[{"column": "x", "op": "<", "value": 6}]), config),
        "filter op": (_chain3(filters=[{"column": "x", "op": "<=", "value": 5}]), config),
        "str filter": (_chain3(filters=[{"column": "s", "op": "=", "value": "5"}]), config),
        "join column": (
            _chain3(join_columns=["v:int"], joins=[["R0.v", "R1.y"], ["R1.z", "R2.w"]]), config
        ),
        "seed": (chain3_graph(), SketchConfig(m=64, l=5, seed=2)),
        "l": (chain3_graph(), SketchConfig(m=64, l=4, seed=1)),
        "method": (chain3_graph(), SketchConfig(m=64, l=5, seed=1, method="ams")),
    }
    fingerprints = {
        name: sketchfile._fingerprint(graph, cfg) for name, (graph, cfg) in variants.items()
    }
    assert len(set(fingerprints.values())) == len(variants), fingerprints


def test_a_file_loads_for_its_query_only(tmp_path):
    graph = chain3_graph()
    config = SketchConfig(m=8, l=2, seed=4)
    path = str(tmp_path / "c.jsk")
    save_sketch_file(path, graph, config, [(f"R{k}", np.ones((2, 8))) for k in range(3)])
    assert load_sketch_file(path, _chain3(source="moved.csv"))[0] == config
    with pytest.raises(QueryError, match="was sketched for another query"):
        load_sketch_file(path, _chain3(filters=[{"column": "x", "op": "<", "value": 5}]))
    with pytest.raises(QueryError, match=r"relations \['R0', 'R1', 'R2'\] do not match"):
        load_sketch_file(path, multiway_graph())


def test_filters_in_another_order_or_repeated_load_the_file(tmp_path):
    # The filters are ANDed, so neither their order nor a repeat changes
    # the counters.
    x_lt, x_gt, s_eq = (
        {"column": "x", "op": "<", "value": 5},
        {"column": "x", "op": ">", "value": 1},
        {"column": "s", "op": "=", "value": "5"},
    )
    config = SketchConfig(m=8, l=2, seed=4)
    path = str(tmp_path / "f.jsk")
    grids = [(f"R{k}", np.ones((2, 8))) for k in range(3)]
    save_sketch_file(path, _chain3(filters=[x_lt, x_gt, s_eq]), config, grids)
    for filters in ([s_eq, x_gt, x_lt], [x_gt, x_lt, s_eq, x_lt]):
        assert load_sketch_file(path, _chain3(filters=filters))[0] == config
    with pytest.raises(QueryError, match="was sketched for another query"):
        load_sketch_file(path, _chain3(filters=[x_lt, x_gt]))
