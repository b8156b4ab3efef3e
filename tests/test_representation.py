"""The dense-id representation: node hashing and the result boundary.

The builder and the solver work on the graph's int ids; node objects
appear only where a result is read. These tests pin that boundary.
"""

import os
import subprocess
import sys

import pytest

from repro.bench.solverbench import scaled_spec
from repro.core import nodes as node_module
from repro.core.analysis import AnalysisOptions, GuiReferenceAnalysis
from repro.core.graph import RECV
from repro.core.nodes import Node, OpRecv, Site, VarNode
from repro.corpus.apps import spec_by_name
from repro.corpus.generator import generate_app
from repro.frontend import load_app_from_sources
from repro.ir.program import MethodSig
from repro.platform.api import OpKind

import test_dialogs
from test_provenance import FIXTURES

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
MISSING = VarNode(MethodSig("no.Class", "m", 0), "x")
NODE_KINDS = [
    cls
    for cls in vars(node_module).values()
    if isinstance(cls, type) and issubclass(cls, Node) and cls is not Node
]


def test_solve_hashes_fewer_nodes_than_flow_edges(monkeypatch):
    """Propagation runs on ids: solving K9 hashes node objects, sites
    and signatures fewer times than the graph has flow edges (the
    node-keyed solver made 257,676 such calls for 40,072 edges)."""
    analysis = GuiReferenceAnalysis(generate_app(spec_by_name("K9")))
    calls = [0]
    for cls in NODE_KINDS + [Site, MethodSig]:

        def counting(self, _hash=cls.__hash__):
            calls[0] += 1
            return _hash(self)

        monkeypatch.setattr(cls, "__hash__", counting)
    analysis.solve()
    monkeypatch.undo()
    assert 0 < calls[0] < analysis.graph.flow_edge_count()


# Every operation rule and android:onClick (the witness fixtures), plus
# dialogs and an app larger than any corpus app.
HASH_FREE_APPS = {
    **FIXTURES,
    "dialogs": lambda: load_app_from_sources("dlg", [test_dialogs.SOURCE], test_dialogs.LAYOUTS),
    "scale8": lambda: generate_app(scaled_spec(8)),
}


@pytest.mark.parametrize("provenance", [False, True], ids=["plain", "provenance"])
@pytest.mark.parametrize("solver", ["naive", "seminaive"])
@pytest.mark.parametrize("name", sorted(HASH_FREE_APPS))
def test_build_and_solve_hash_no_node(monkeypatch, name, solver, provenance):
    """Both edge families and the fact order are kept over ids, so the
    builder and the solver never hash a node: with every node kind's
    ``__hash__`` raising, an analysis still builds and solves."""
    app = HASH_FREE_APPS[name]()

    def refuse(self):
        raise AssertionError(f"hashed {type(self).__name__} {self}")

    for cls in NODE_KINDS:
        monkeypatch.setattr(cls, "__hash__", refuse)
    analysis = GuiReferenceAnalysis(app, AnalysisOptions(solver=solver, provenance=provenance))
    result = analysis.solve()
    monkeypatch.undo()
    assert result.converged
    assert (result.provenance is not None) is provenance


def test_pickled_nodes_hash_in_the_loading_process():
    """A node hashed and pickled in one process is found in a set of
    equal nodes in another process, whose string hashes differ: no hash
    travels with the pickle."""
    make = (
        "import pickle, sys\n"
        "from repro.core.nodes import OpArg, OpNode, Site, VarNode\n"
        "from repro.ir.program import MethodSig\n"
        "from repro.platform.api import OpKind\n"
        "sig = MethodSig('app.C', 'onCreate', 1)\n"
        "nodes = [VarNode(sig, 'x'), OpArg(OpNode(OpKind.SETID, Site(sig, 3, 12)), 0)]\n"
    )
    dump = make + "[hash(n) for n in nodes]\nsys.stdout.buffer.write(pickle.dumps(nodes))\n"
    load = make + (
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "for old, fresh in zip(loaded, nodes):\n"
        "    assert old == fresh and old in {fresh} and fresh in {old}, old\n"
    )

    def run(code, seed, stdin=None):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", code], input=stdin, capture_output=True, env=env
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    run(load, "2", run(dump, "1"))


class TestPointsTo:
    """``AnalysisResult.pts`` decodes the solver's int table on access."""

    def test_get_accepts_a_fresh_port(self, connectbot_result):
        op = next(o for o in connectbot_result.graph.ops() if o.kind is OpKind.SETID)
        values = connectbot_result.pts.get(OpRecv(op))
        graph = connectbot_result.graph
        interned = graph.node_list[graph.port_id(graph.id_of(op), RECV)]
        assert values and values == connectbot_result.values_at(interned)

    def test_items_decode_every_entry(self, connectbot_result):
        r = connectbot_result
        assert dict(r.pts.items()) == {n: r.values_at(n) for n in r.pts}
        assert list(r.pts.values()) == [r.pts[n] for n in r.pts]

    def test_missing_node(self, connectbot_result):
        pts = connectbot_result.pts
        assert pts.get(MISSING) is None
        assert pts.get(MISSING, ()) == ()
        assert MISSING not in pts
        with pytest.raises(KeyError):
            pts[MISSING]

    def test_len_and_in(self, connectbot_result):
        pts = connectbot_result.pts
        nodes = list(pts)
        assert len(pts) == len(nodes) > 0
        assert all(node in pts for node in nodes)

    def test_read_only(self, connectbot_result):
        pts = connectbot_result.pts
        node = next(iter(pts))
        with pytest.raises(TypeError):
            pts[node] = set()  # type: ignore[index]
        with pytest.raises(TypeError):
            del pts[node]  # type: ignore[attr-defined]
        with pytest.raises(AttributeError):
            pts[node].add(node)  # type: ignore[attr-defined]
