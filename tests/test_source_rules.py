"""Source rules checked on the package's syntax trees.

A nested function that calls itself by name holds its own closure cell,
a reference cycle: everything it closes over (a join graph, counter
grids, frequency arrays) then lives until the cyclic garbage collector
runs.  Recursion belongs in module-level functions.

`np.unique` with an `axis` sorts whole rows as structured records, about
ten times slower than grouping by per-column codes with 1-D
`np.unique` calls (`sketch.group_tuples`).

In `sketch.py`, `ams.py` and `oracle.py`, `np.unique` runs only inside
`sketch.group_tuples`.  A batch is grouped into distinct tuples once, and
the conv update, the AMS update and the nested-loop oracle all read that
one result, so no column is sorted twice and the three cannot fold
duplicates three different ways; the hash-join oracle groups no tuples,
and totals a sparse column per value through the same function.

In `sketch.py`, no `bin_eval_vec` or `sign_eval_vec` call sits inside
a loop over repetitions: each call takes an attribute's values with the
hash functions of every repetition, so its values are reduced and their
powers formed once, not once per repetition.

Every imported name is used: a leftover import of a deleted helper is
dead code that still ties two modules together.  Names that exist only
to be patched from outside carry `# noqa: F401`.

Hash functions come from the seed in one place, `hashing.derive_hash_set`:
no other module reads the seed-expansion functions that `mersenne.py`
defines, so two methods cannot derive one family two ways.

Only `hashing.py` reads a HashSet's fields, `signs` and `bins`; every
other module goes through `sign_for`, `bin_for` and `coefficients`.  One
module knows how the uint64 coefficients are laid out, so a new layout
(a fold of the sketch to a divisor of m, say) changes one file.

The package does not read the process environment: a run is described
by its command line and the arguments of the calls it makes, so a stray
variable cannot change a sketch without showing in the argv.

No module imports `ctypes`, and only `sketchfile.py` imports `mmap`:
the one mapping is a loaded sketch file's, so the grids' memory never
comes from the allocator.  Tuning the allocator instead (`mallopt`
through `ctypes`, or freeing a larger block to lift glibc's dynamic
mmap threshold) changes the state of the whole process, and perfbench
times its reference mix in that same process, so it would speed up the
reference along with the program and distort every scaled time.

Only `estimator.py` imports `threading`, `queue` or `concurrent.futures`
(or their cores, `_thread` and `_queue`):
one place starts threads, and only for FFT work, which releases the GIL.
Threads running Python code take turns on the GIL, so they would add
handoffs without overlap, and every module that shares state with a
thread must be checked for races.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "joinsketch"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def recursive_closures(source: str) -> list[tuple[str, int]]:
    """(name, line) of every nested function whose body calls its own name."""
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, _FUNCTIONS):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls_itself = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == inner.name
                for node in ast.walk(inner)
            )
            if calls_itself:
                found.add((inner.name, inner.lineno))
    return sorted(found)


def test_finds_a_recursive_closure():
    source = (
        "def plan(graph):\n"
        "    def build(u):\n"
        "        return [build(v) for v in graph[u]]\n"
        "    return build(0)\n"
        "\n"
        "def module_level(u):\n"
        "    return module_level(u - 1) if u else 0\n"
        "\n"
        "class Tree:\n"
        "    def covered(self):\n"
        "        def walk(node):\n"
        "            for child in node:\n"
        "                walk(child)\n"
        "        walk(self)\n"
    )
    assert recursive_closures(source) == [("build", 2), ("walk", 11)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_recursive_closure_in_the_package(path):
    assert recursive_closures(path.read_text(encoding="utf-8")) == []


# np.unique(ar, return_index, return_inverse, return_counts, axis, ...)
_UNIQUE_AXIS_POSITION = 4


def unique_with_axis(source: str) -> list[int]:
    """Line of every `<module>.unique(...)` call that passes an axis."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and (
                any(kw.arg == "axis" for kw in node.keywords)
                or len(node.args) > _UNIQUE_AXIS_POSITION
            )
        ):
            found.append(node.lineno)
    return sorted(found)


def test_finds_np_unique_with_an_axis():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "def group(stacked, col):\n"
        "    keys = np.unique(stacked, axis=0)\n"
        "    rows = numpy.unique(stacked, return_inverse=True, axis=0)\n"
        "    flat = np.unique(stacked, False, True, False, 0)\n"
        "    ok = np.unique(col, return_inverse=True)\n"
        "    also_ok = np.unique(col, True, True, False)\n"
        "    return np.sum(stacked, axis=0)\n"
    )
    assert unique_with_axis(source) == [4, 5, 6]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_np_unique_with_an_axis_in_the_package(path):
    assert unique_with_axis(path.read_text(encoding="utf-8")) == []


GROUPING = "group_tuples"


def unique_outside_grouping(source: str) -> list[int]:
    """Line of every `<module>.unique(...)` call outside a function named
    GROUPING."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for outer in ast.walk(tree)
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)) and outer.name == GROUPING
        for node in ast.walk(outer)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and id(node) not in inside
    )


def test_finds_np_unique_outside_the_grouping():
    source = (
        "import numpy as np\n"
        "def group_tuples(columns):\n"
        "    return [np.unique(col, return_inverse=True) for col in columns]\n"
        "def bulk_update(keys):\n"
        "    values = np.unique(keys[:, 0])\n"
        "    return values, group_tuples([values])\n"
        "class Sketch:\n"
        "    def update(self, col):\n"
        "        'np.unique in a docstring is not a call.'\n"
        "        return numpy.unique(col, return_inverse=True)\n"
        "rank = np.unique(np.arange(3))\n"
    )
    assert unique_outside_grouping(source) == [5, 10, 11]


@pytest.mark.parametrize("name", ["sketch.py", "ams.py", "oracle.py"])
def test_np_unique_only_in_the_grouping(name):
    assert unique_outside_grouping((PACKAGE / name).read_text(encoding="utf-8")) == []


HASH_EVALS = {"bin_eval_vec", "sign_eval_vec"}
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _over_repetitions(loop) -> bool:
    """Whether a for loop or comprehension generator runs over repetitions:
    its target binds `rep`, or it iterates `range(<...>.l)` or `range(l)`."""
    if any(isinstance(n, ast.Name) and n.id == "rep" for n in ast.walk(loop.target)):
        return True
    it = loop.iter
    return (
        isinstance(it, ast.Call)
        and isinstance(it.func, ast.Name)
        and it.func.id == "range"
        and any(
            isinstance(a, ast.Attribute) and a.attr == "l" or isinstance(a, ast.Name) and a.id == "l"
            for a in it.args
        )
    )


def hash_evals_per_repetition(source: str) -> list[int]:
    """Line of every HASH_EVALS call inside the body of a for loop, or the
    whole of a comprehension, that runs over repetitions."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, (ast.For, ast.AsyncFor)) and _over_repetitions(loop):
            scope = loop.body + loop.orelse
        elif isinstance(loop, _COMPREHENSIONS) and any(map(_over_repetitions, loop.generators)):
            scope = [loop]
        else:
            continue
        for node in (n for part in scope for n in ast.walk(part)):
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in HASH_EVALS
                or isinstance(node.func, ast.Attribute) and node.func.attr in HASH_EVALS
            ):
                found.add(node.lineno)
    return sorted(found)


def test_finds_a_hash_eval_per_repetition():
    source = (
        "def bulk_update(sk, hashes, values, reps):\n"
        "    for rep in range(sk.config.l):\n"
        "        bins = bin_eval_vec([hashes.bin_for(0, rep)], values)\n"
        "    signs = [hashing.sign_eval_vec([h], values) for rep in reps for h in hs]\n"
        "    for i in range(l):\n"
        "        while True:\n"
        "            sign_eval_vec(hashes, values)\n"
        "    tables = bin_eval_vec([hashes.bin_for(0, rep) for rep in reps], values)\n"
        "    for u in omega:\n"
        "        sign_eval_vec(edges, values)\n"
        "    'bin_eval_vec in a docstring is not a call.'\n"
    )
    assert hash_evals_per_repetition(source) == [3, 4, 7]


def test_sketch_hashes_each_attribute_once_for_all_repetitions():
    source = (PACKAGE / "sketch.py").read_text(encoding="utf-8")
    assert "bin_eval_vec(" in source and "sign_eval_vec(" in source
    assert hash_evals_per_repetition(source) == []


def _annotations(tree: ast.AST):
    """Every annotation expression of a module: arguments, returns and
    annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of every imported name the module never reads.

    A name counts as read when it appears as a bare name anywhere in the
    module, inside a string annotation, or in `__all__`; `__future__`
    imports and statements with a `# noqa: F401` line are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                found.append((name, node.lineno))
    return sorted(found)


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "from collections import defaultdict\n"
        "from typing import TYPE_CHECKING, Iterable, Mapping\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .sketch import (\n"
        "    distinct_tuples,\n"
        "    group_tuples,\n"
        ")\n"
        "from .ingest import read_stream  # noqa: F401\n"
        "from .errors import QueryError\n"
        "__all__ = ['QueryError']\n"
        "if TYPE_CHECKING:\n"
        "    from .joingraph import JoinGraph, PlanNode\n"
        "def keys(xs: Iterable[int], graph: 'JoinGraph') -> np.ndarray:\n"
        "    'A PlanNode in a docstring is not a use.'\n"
        "    return distinct_tuples(xs)\n"
    )
    assert unused_imports(source) == [
        ("Mapping", 3), ("PlanNode", 14), ("defaultdict", 2), ("group_tuples", 6), ("os", 5)
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import_in_the_package(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


SEED_EXPANSION = {"derive_state", "field_elements", "field_elements_vec"}


def seed_expansion_uses(source: str) -> list[tuple[str, int]]:
    """(name, line) of every import, call or other read of a
    seed-expansion function; their definitions do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update((a.name, node.lineno) for a in node.names if a.name in SEED_EXPANSION)
        elif isinstance(node, ast.Name) and node.id in SEED_EXPANSION:
            found.add((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in SEED_EXPANSION:
            found.add((node.attr, node.lineno))
    return sorted(found)


def test_finds_a_seed_expansion_use():
    source = (
        "from .mersenne import (\n"
        "    BLOCK_ELEMENTS,\n"
        "    derive_state,\n"
        ")\n"
        "from . import mersenne\n"
        "def derive_state_twice(seed):\n"
        "    'field_elements in a docstring is not a use.'\n"
        "    state = derive_state(seed, 1)\n"
        "    draw = mersenne.field_elements_vec\n"
        "    return draw(state, 4), mersenne.field_elements(state, 4)\n"
        "def field_elements(state, count):\n"
        "    return state\n"
    )
    assert seed_expansion_uses(source) == [
        ("derive_state", 1), ("derive_state", 8), ("field_elements", 10),
        ("field_elements_vec", 9),
    ]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "hashing.py"),
    ids=lambda p: p.name,
)
def test_only_hashing_expands_the_seed(path):
    assert seed_expansion_uses(path.read_text(encoding="utf-8")) == []


HASH_SET_FIELDS = {"signs", "bins"}


def hash_set_field_reads(source: str) -> list[tuple[str, int]]:
    """(name, line) of every `<...>.signs` or `<...>.bins` attribute."""
    return sorted(
        (node.attr, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in HASH_SET_FIELDS
    )


def test_finds_a_hash_set_field_read():
    source = (
        "def bulk_update(sk, hashes, values):\n"
        "    table = hashes.signs[(0, 1)][:, 0]\n"
        "    bins = sk.hashes.bins[0] % sk.config.m\n"
        "    signs = hashes.sign_for(0, 1)\n"
        "    'hashes.bins in a docstring is not a read.'\n"
        "    return hashes.coefficients(0, 1, 0), hashes.bin_for(0), bins, signs\n"
        "class Layout:\n"
        "    bins = None\n"
        "    def width(self):\n"
        "        return len(self.signs)\n"
    )
    assert hash_set_field_reads(source) == [("bins", 3), ("signs", 2), ("signs", 10)]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "hashing.py"),
    ids=lambda p: p.name,
)
def test_only_hashing_reads_hash_set_fields(path):
    assert hash_set_field_reads(path.read_text(encoding="utf-8")) == []


ENVIRONMENT_READS = {"environ", "environb", "getenv"}


def environment_reads(source: str) -> list[tuple[str, int]]:
    """(name, line) of every `os.environ`, `os.environb` or `os.getenv`
    attribute and every `from os import` of one of them."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found.update((a.name, node.lineno) for a in node.names if a.name in ENVIRONMENT_READS)
        elif isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS:
            found.add((node.attr, node.lineno))
    return sorted(found)


def test_finds_an_environment_read():
    source = (
        "import os\n"
        "from os import environ, path\n"
        "from os import getenv as ge\n"
        "def flag(name):\n"
        "    'os.environ in a docstring is not a read.'\n"
        "    raw = os.environb.get(b'JSK_M')\n"
        "    return os.environ.get(name) or os.getenv(name) or path.join(name)\n"
    )
    assert environment_reads(source) == [
        ("environ", 2), ("environ", 7), ("environb", 6), ("getenv", 3), ("getenv", 7)
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_package_reads_no_environment(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> list[tuple[str, int]]:
    """(top-level module, line) of every absolute `import` and `from ...
    import` statement; relative imports of the package do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update((a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add((node.module.split(".")[0], node.lineno))
    return sorted(found)


def test_finds_imported_modules():
    source = (
        "import mmap, os.path\n"
        "from ctypes import CDLL\n"
        "from . import sketch\n"
        "from .mmap import view\n"
        "def load():\n"
        "    'import ctypes in a docstring is not an import.'\n"
        "    import ctypes.util as cu\n"
    )
    assert imported_modules(source) == [("ctypes", 2), ("ctypes", 7), ("mmap", 1), ("os", 1)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_sketchfile_maps_memory(path):
    modules = {name for name, _ in imported_modules(path.read_text(encoding="utf-8"))}
    assert "ctypes" not in modules
    assert ("mmap" in modules) == (path.name == "sketchfile.py")


THREAD_MODULES = {"threading", "queue", "concurrent", "_thread", "_queue"}


def thread_imports(source: str) -> list[tuple[str, int]]:
    """(module, line) of every import of a THREAD_MODULES module, at any
    depth of the module."""
    return [(name, line) for name, line in imported_modules(source) if name in THREAD_MODULES]


def test_finds_thread_imports():
    source = (
        "import os, threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from . import queue\n"
        "def split():\n"
        "    'import queue in a docstring is not an import.'\n"
        "    import queue as q\n"
        "    import concurrent.futures\n"
        "    from _queue import SimpleQueue\n"
    )
    assert thread_imports(source) == [
        ("_queue", 8), ("concurrent", 2), ("concurrent", 7), ("queue", 6), ("threading", 1)
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_estimator_starts_threads(path):
    found = thread_imports(path.read_text(encoding="utf-8"))
    assert (found != []) == (path.name == "estimator.py"), found
