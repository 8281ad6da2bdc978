"""Network topologies: node sets, sources, and the no-common-double-source predicate."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence


@dataclass(frozen=True)
class NetworkTopology:
    """Nodes plus sources, each source being the ordered tuple of nodes it feeds.

    Every source must connect at least two and at most N-1 nodes (a source
    touching all nodes would be a global one).
    """

    nodes: tuple[str, ...]
    sources: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "sources", tuple(tuple(s) for s in self.sources))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"node labels must be unique: {self.nodes}")
        for s in self.sources:
            if len(set(s)) != len(s):
                raise ValueError(f"source {s} lists a node twice")
            unknown = set(s) - set(self.nodes)
            if unknown:
                raise ValueError(f"source {s} references unknown nodes {sorted(unknown)}")
            if len(s) < 2:
                raise ValueError(f"source {s} must connect at least two nodes")
            # N = 2 is exempt: a bipartite source between two nodes is the
            # canonical bipartite network, not a global source
            if len(self.nodes) > 2 and len(s) >= len(self.nodes):
                raise ValueError(f"source {s} touches all {len(self.nodes)} nodes; "
                                 "sources may feed at most N-1 of them")

    def to_spec(self) -> dict:
        """The JSON form ``{"nodes": [...], "sources": [[...], ...]}`` that reports record."""
        return {"nodes": list(self.nodes), "sources": [list(s) for s in self.sources]}

    def is_ncds(self) -> bool:
        """True iff any two nodes share at most one common source."""
        seen = set()
        for s in self.sources:
            for pair in combinations(sorted(s), 2):
                if pair in seen:
                    return False
                seen.add(pair)
        return True


def triangle_topology(labels: Sequence[str] = ("A", "B", "C")) -> NetworkTopology:
    """Triangle: three bipartite sources a = {B,C}, b = {C,A}, c = {A,B}."""
    a, b, c = labels
    return NetworkTopology((a, b, c), ((b, c), (c, a), (a, b)))


def line_topology(labels: Sequence[str]) -> NetworkTopology:
    """Line network: bipartite sources between consecutive nodes; two nodes share one source."""
    labels = tuple(labels)
    if len(labels) < 2:
        raise ValueError("a line network needs at least two nodes")
    return NetworkTopology(labels, tuple((labels[i], labels[i + 1]) for i in range(len(labels) - 1)))
