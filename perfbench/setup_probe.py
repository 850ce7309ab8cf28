"""Set-up cost of one joinsketch ``sketch`` command, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py QUERY M L SEED METHOD

Times what the command pays before its first row: importing
``joinsketch.cli``, loading the query, building the join graph and
deriving the hash functions of METHOD with SEED (``derive_hash_set`` for
conv; every per-counter sign family of every relation for ams).  Then
times the reference work mix (reference.py) in the same process, and
prints both, in seconds.
"""

import time

start = time.perf_counter()

import sys  # noqa: E402

from joinsketch import cli  # noqa: E402
from joinsketch.ams import ams_sketch  # noqa: E402
from joinsketch.sketch import SketchConfig  # noqa: E402

query, method = sys.argv[1], sys.argv[5]
m, l, seed = (int(arg) for arg in sys.argv[2:5])
graph = cli.build_join_graph(cli.load_query(query))
config = SketchConfig(m=m, l=l, seed=seed, method=method)
if method == "ams":
    for rel in range(graph.r):
        families = ams_sketch(rel, config, graph).hashes
        for u in graph.omega[rel]:
            for v in graph.gamma[u]:
                for rep in range(l):
                    families.coefficients(u, v, rep)
else:
    cli.derive_hash_set(config, graph)
setup_s = time.perf_counter() - start

from reference import reference_s  # noqa: E402

print(setup_s, reference_s())
