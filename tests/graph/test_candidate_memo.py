"""The hop-filter index is never stale.

:meth:`DMHG.hop_index` keeps, per hop filter ``(rel_ids, type_id)``, each
node's admissible adjacency entries as one segment of a shared pool,
built on the filter's first use and kept current by every insert, η
eviction and removal after it.  Over random interleavings of insertions
(self-loops among them), deletions and filter registrations — before any
edge, or after evictions and removals — under every recency cap, every
segment of every registered filter, and every :meth:`DMHG.candidates`
answer, must equal a brute-force filter of :meth:`DMHG.neighbors` after
each step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dmhg import DMHG
from repro.graph.schema import GraphSchema

SCHEMA = GraphSchema.create(["a", "b"], ["r0", "r1", "r2"])
NODE_TYPES = ["a", "a", "a", "b", "b", "b"]
NODES = len(NODE_TYPES)

REL_SETS = [
    frozenset(s) for s in ({0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2})
]
FILTERS = st.tuples(st.sampled_from(REL_SETS), st.integers(0, 1))

_add = st.tuples(
    st.just("add"), st.integers(0, NODES - 1), st.integers(0, NODES - 1),
    st.integers(0, 2),
)
_loop = st.tuples(st.integers(0, NODES - 1), st.integers(0, 2)).map(
    lambda x: ("add", x[0], x[0], x[1])
)
_remove = st.tuples(st.just("remove"), st.integers(0, 63))
_register = FILTERS.map(lambda key: ("register",) + key)


def _brute_force(graph, node, rel_ids, type_id):
    entries = [
        e for e in graph.neighbors(node)
        if e[1] in rel_ids and graph.node_type_id(e[0]) == type_id
    ]
    return (
        [e[0] for e in entries], [e[1] for e in entries], [e[2] for e in entries]
    )


@given(
    eta=st.sampled_from([None, 1, 3]),
    early=st.lists(FILTERS, max_size=3),
    ops=st.lists(
        st.one_of(_add, _loop, _remove, _register), min_size=1, max_size=40
    ),
)
@settings(max_examples=150, deadline=None)
def test_candidates_never_stale(eta, early, ops):
    graph = DMHG(SCHEMA, max_neighbors=eta)
    for node_type in NODE_TYPES:
        graph.add_node(node_type)
    registered = []
    for key in early:  # before any edge
        if key not in registered:
            registered.append(key)
    graph.hop_index(registered)
    added = 0
    for step, op in enumerate(ops):
        if op[0] == "add":
            graph.add_edge(op[1], op[2], SCHEMA.edge_types[op[3]], float(step))
            added += 1
        elif op[0] == "remove":
            if added:
                graph.remove_edge(op[1] % added)
        elif op[1:] not in registered:
            registered.append(op[1:])
        columns, index = graph.hop_index(registered)
        for (rel_ids, type_id), f in zip(registered, columns.tolist()):
            for node in range(NODES):
                expected = _brute_force(graph, node, rel_ids, type_id)
                start, n = index.start[node, f], index.length[node, f]
                segment = tuple(a[start : start + n].tolist() for a in index[2:])
                assert segment == expected
                others, rels, times = graph.candidates(node, rel_ids, type_id)
                assert (others.dtype, rels.dtype, times.dtype) == (
                    np.int64, np.int64, np.float64
                )
                assert (others.tolist(), rels.tolist(), times.tolist()) == expected
