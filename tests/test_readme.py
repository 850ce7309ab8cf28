"""The README's library example runs as written, on the top-level API."""

import ast
import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np

import joinsketch
from joinsketch.cli import main
from joinsketch.errors import JoinSketchError
from joinsketch.sketch import TupleUpdate

from conftest import chain3_query_doc, write_chain3_workload

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_top_level_exports_are_the_snippet_imports_and_errors():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(_library_snippet()))
        if isinstance(node, ast.ImportFrom) and node.module == "joinsketch"
        for alias in node.names
    }
    errors = {
        name for name in joinsketch.__all__
        if isinstance(getattr(joinsketch, name), type)
        and issubclass(getattr(joinsketch, name), JoinSketchError)
    }
    assert set(joinsketch.__all__) == imported | errors
    assert errors == {"BudgetError", "DataError", "JoinSketchError", "QueryError",
                      "UnsupportedQueryError"}


def test_snippet_matches_cli_estimate(tmp_path, monkeypatch, capsys):
    write_chain3_workload(tmp_path, np.random.default_rng(17), sizes=(30, 40, 30))
    sources = {f"R{k}": str(tmp_path / f"r{k}.csv") for k in range(3)}
    (tmp_path / "q.json").write_text(json.dumps(chain3_query_doc(sources)))
    monkeypatch.chdir(tmp_path)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_library_snippet(), {})
    printed = float(out.getvalue())

    # The snippet's config: m=4096, l=5, seed=7.
    flags = ["--query", "q.json"]
    assert main(["sketch", *flags, "--m", "4096", "--reps", "5", "--seed", "7",
                 "--out", "q.jsk"]) == 0
    assert main(["estimate", *flags, "--sketches", "q.jsk"]) == 0
    assert printed == json.loads(capsys.readouterr().out)["median"]
    assert printed != 0.0


def test_snippet_builds_no_tuple_updates(tmp_path, monkeypatch):
    write_chain3_workload(tmp_path, np.random.default_rng(17), sizes=(30, 40, 30))
    sources = {f"R{k}": str(tmp_path / f"r{k}.csv") for k in range(3)}
    (tmp_path / "q.json").write_text(json.dumps(chain3_query_doc(sources)))
    monkeypatch.chdir(tmp_path)
    built = []
    init = TupleUpdate.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TupleUpdate, "__init__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(_library_snippet(), {})
    assert built == []
    TupleUpdate(0, {0: 1})  # the spy sees a construction
    assert len(built) == 1
