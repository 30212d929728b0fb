"""The per-node candidate memo is never stale.

:meth:`DMHG.candidates` memoises each ``(node, rel_ids, type_id)``
answer and drops a node's answers whenever its adjacency list changes.
Over random interleavings of insertions, deletions and queries, under
every recency cap, every answer asked for so far must still equal a
brute-force filter of :meth:`DMHG.neighbors` after each step.
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

_add = st.tuples(
    st.just("add"), st.integers(0, NODES - 1), st.integers(0, NODES - 1),
    st.integers(0, 2),
)
_remove = st.tuples(st.just("remove"), st.integers(0, 63))
_query = st.tuples(
    st.just("query"), st.integers(0, NODES - 1),
    st.sampled_from(REL_SETS), st.integers(0, 1),
)


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
    ops=st.lists(st.one_of(_add, _remove, _query), min_size=1, max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_candidates_never_stale(eta, ops):
    graph = DMHG(SCHEMA, max_neighbors=eta)
    for node_type in NODE_TYPES:
        graph.add_node(node_type)
    asked = []
    added = 0
    for step, op in enumerate(ops):
        if op[0] == "add":
            graph.add_edge(op[1], op[2], SCHEMA.edge_types[op[3]], float(step))
            added += 1
        elif op[0] == "remove":
            if added:
                graph.remove_edge(op[1] % added)
        elif op[1:] not in asked:
            asked.append(op[1:])
        for node, rel_ids, type_id in asked:
            others, rels, times = graph.candidates(node, rel_ids, type_id)
            assert (others.dtype, rels.dtype, times.dtype) == (
                np.int64, np.int64, np.float64
            )
            got = (others.tolist(), rels.tolist(), times.tolist())
            assert got == _brute_force(graph, node, rel_ids, type_id)
