"""The SUPA model (Section III): sample, update, propagate — per edge.

For every streamed edge ``(u, v, r, t)`` the model

1. samples an influenced graph with metapath walks (Section III-B),
2. updates the two interactive nodes' representations through the
   node-type specific updater and edge-type specific interactor
   (Section III-C),
3. propagates the interaction information over the influenced graph with
   time attenuation and termination (Section III-D), and
4. takes one sparse Adam step on the combined objective
   ``L = L_inter + L_prop + L_neg`` (Eq. 13).

Gradients are hand-derived (the model is shallow — every loss is a
log-sigmoid of an inner product of memory rows), which keeps the per-edge
step allocation-light; correctness is cross-checked against finite
differences in ``tests/core/test_propagation.py``, ``test_updater.py``,
``test_interactor.py`` and ``test_engine_parity.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SUPAConfig
from repro.core.engine.engine import BatchedEngine
from repro.core.memory import MemoryOptimizer, NodeMemory
from repro.core.negative import NegativeSampler
from repro.core.updater import active_interval, final_embedding_rows
from repro.datasets.base import Dataset
from repro.graph.dmhg import DMHG
from repro.graph.metapath import MultiplexMetapath
from repro.graph.sampling import CompiledMetapathSet
from repro.graph.schema import GraphSchema
from repro.graph.streams import StreamEdge
from repro.obs.trace import NULL_TRACER
from repro.utils.rng import new_rng


class SUPA:
    """Instant representation learning over a dynamic multiplex
    heterogeneous graph.

    The model owns a live :class:`DMHG` that grows as edges are
    observed; training and inference never iterate over the full graph —
    every update is local to the sampled influenced subgraph, which is
    what makes single-pass streaming training possible.

    Parameters
    ----------
    schema / nodes_by_type / metapaths:
        The graph universe, usually taken from a :class:`Dataset` via
        :meth:`for_dataset`.
    config:
        Hyper-parameters and ablation toggles.
    max_neighbors:
        Optional recency cap ``eta`` on the internal graph.
    """

    def __init__(
        self,
        schema: GraphSchema,
        nodes_by_type: Sequence[Tuple[str, int]],
        metapaths: Sequence[MultiplexMetapath],
        config: Optional[SUPAConfig] = None,
        max_neighbors: Optional[int] = None,
    ):
        self.config = config or SUPAConfig()
        self.schema = schema
        self.metapaths = list(metapaths)
        for mp in self.metapaths:
            mp.validate_against(schema)
        self._compiled_metapaths = CompiledMetapathSet(self.metapaths, schema)
        self.rng = new_rng(self.config.seed)

        self.graph = DMHG(schema, max_neighbors=max_neighbors)
        for node_type, count in nodes_by_type:
            self.graph.add_nodes(node_type, count)
        self._node_type_ids = self.graph.node_type_ids()

        self.memory = NodeMemory(
            num_nodes=self.graph.num_nodes,
            num_edge_types=schema.num_edge_types,
            num_node_types=schema.num_node_types,
            dim=self.config.dim,
            rng=self.rng,
            typed_context=self.config.typed_context,
            typed_alpha=self.config.typed_alpha,
        )
        self.optimizer = MemoryOptimizer(self.memory)
        self.negatives = NegativeSampler(self.graph)
        self.last_loss_components: Dict[str, float] = {}
        #: nodes whose memory rows (long / short / any context slot) were
        #: written by the most recent :meth:`train_step` /
        #: :meth:`train_batch` — a *sorted tuple* (byte-deterministic
        #: when serialised) the serving layer publishes as the next
        #: snapshot's rows.
        self.last_touched_nodes: Tuple[int, ...] = ()
        #: observability hook (``repro.obs``): the no-op tracer until a
        #: caller installs a recording one (``model.tracer = Tracer()``,
        #: as a traced service does), so engines read this attribute per
        #: call rather than caching it.
        self.tracer = NULL_TRACER
        self.engine = BatchedEngine()

    @classmethod
    def for_dataset(
        cls,
        dataset: Dataset,
        config: Optional[SUPAConfig] = None,
        max_neighbors: Optional[int] = None,
    ) -> "SUPA":
        """Construct a model matching ``dataset``'s universe."""
        return cls(
            schema=dataset.schema,
            nodes_by_type=dataset.nodes_by_type,
            metapaths=dataset.metapaths,
            config=config,
            max_neighbors=max_neighbors,
        )

    # --------------------------------------------------------------- streaming

    def observe(self, u: int, v: int, edge_type: str, t: float) -> None:
        """Insert an edge into the live graph without learning from it."""
        self.graph.add_edge(u, v, edge_type, t)
        self.negatives.tick()

    def process_edge(self, u: int, v: int, edge_type: str, t: float) -> float:
        """The full online step for a new edge: learn, then insert.

        The active intervals ``Delta_V`` and the influenced graph are
        taken from the graph state *before* insertion, matching the
        paper's semantics of reacting to a new interaction.
        """
        delta_u = active_interval(self.graph.last_interaction_time(u), t)
        delta_v = active_interval(self.graph.last_interaction_time(v), t)
        loss = self.train_step(u, v, edge_type, t, delta_u, delta_v)
        self.observe(u, v, edge_type, t)
        return loss

    def process_stream(self, edges: Sequence[StreamEdge]) -> float:
        """Process a chronological edge sequence; returns the mean loss."""
        if not len(edges):
            return 0.0
        total = 0.0
        for e in edges:
            total += self.process_edge(e.u, e.v, e.edge_type, e.t)
        return total / len(edges)

    # ---------------------------------------------------------------- training

    def train_step(
        self,
        u: int,
        v: int,
        edge_type: str,
        t: float,
        delta_u: float,
        delta_v: float,
    ) -> float:
        """One gradient step for edge ``(u, v, edge_type, t)``.

        Does *not* insert the edge — InsLearn replays batches several
        times and must control insertion separately.  Delegates to the
        execution engine (a micro-batch of one).
        """
        return self.engine.train_step(self, u, v, edge_type, t, delta_u, delta_v)

    def train_batch(
        self, records: Sequence[Tuple[StreamEdge, float, float]]
    ) -> np.ndarray:
        """Gradient steps for a micro-batch of pre-recorded edges.

        ``records`` pairs each edge with its pre-insertion active
        intervals ``(Delta_u, Delta_v)`` — the shape InsLearn's replay
        passes already hold.  Returns the per-edge losses in order and
        leaves the batch's touched-node union on
        :attr:`last_touched_nodes`.  The batched engine compiles the
        whole micro-batch into one structure-of-arrays plan here, which
        is where its speedup comes from.
        """
        return self.engine.train_batch(self, records)

    # --------------------------------------------------------------- inference

    def final_embeddings(
        self, nodes: Sequence[int], edge_type: str, t: float
    ) -> np.ndarray:
        """Eq. 14: ``h^r = 1/2 (h^L + gamma h^S + c^r)`` for ``nodes`` at
        time ``t``."""
        slot = self.memory.context_slot(self.schema.edge_type_id(edge_type))
        return self.final_embedding_rows(nodes, slot, t)

    def final_embedding_rows(self, nodes: Sequence[int], slots, t) -> np.ndarray:
        """:meth:`final_embeddings` row by row: the context slot ``slots``
        and the time ``t`` are each a scalar or one entry per node, so
        rows of different relations and times share one gather."""
        nodes = np.asarray(nodes, dtype=np.int64)
        memory = self.memory
        return final_embedding_rows(
            memory.long[nodes],
            memory.short[nodes],
            memory.context[slots, nodes],
            memory.alpha,
            memory.alpha_slots(self._node_type_ids[nodes]),
            t - self.graph.last_interaction_times(nodes),
            self.config,
        )

    def score(
        self, node: int, candidates: np.ndarray, edge_type: str, t: float
    ) -> np.ndarray:
        """Eq. 15: ``gamma(u, v', r) = h_u^r . h_v'^r`` over candidates."""
        candidates = np.asarray(candidates, dtype=np.int64)
        h_u = self.final_embeddings(np.asarray([node]), edge_type, t)[0]
        h_c = self.final_embeddings(candidates, edge_type, t)
        return h_c @ h_u

    def recommend(
        self, node: int, candidates: np.ndarray, edge_type: str, t: float, k: int = 10
    ) -> np.ndarray:
        """Top-``k`` candidates by Eq. 15 score, best first."""
        scores = self.score(node, candidates, edge_type, t)
        order = np.argsort(-scores, kind="stable")[:k]
        return np.asarray(candidates)[order]

    # ------------------------------------------------------------- checkpoints

    def state_dict(self) -> Dict[str, object]:
        """Learnable state (memories + optimiser moments), not the graph."""
        return {
            "memory": self.memory.state_dict(),
            "optimizer": self.optimizer.state_dict(),
        }

    def state_views(self) -> Dict[str, object]:
        """:meth:`state_dict`'s arrays uncopied: live views, valid only
        while nothing trains (a checkpoint reads them under the dispatch
        barrier)."""
        return {
            "memory": self.memory.state_views(),
            "optimizer": self.optimizer.state_views(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict`'s output; a state whose memory or
        optimiser part does not fit raises ``ValueError`` before either
        is written, so a refused load leaves the model as it was."""
        self.memory.check_state(state["memory"])
        self.optimizer.check_state(state["optimizer"])
        self.memory.load_state_dict(state["memory"])
        self.optimizer.load_state_dict(state["optimizer"])
