"""Layout selection and SWAP routing onto a device coupling graph.

The cost metric is CNOT count with SWAP = 3 CNOTs (two-qubit errors
dominate single-qubit errors by over an order of magnitude on this
device class), tie-broken by depth, then by lexicographic layout.
SWAPs are inserted greedily along shortest paths.  CNOT direction is
ignored: reversal is free via Hadamard conjugation.

Layouts are enumerated in lexicographic order and bounded by the
greedy router itself: under a fixed layout it inserts exactly ``d - 1``
SWAPs before the first two-qubit gate whose qubits sit ``d > 1`` hops
apart, so that layout costs at least the circuit's own CNOT count plus
``3 * (d - 1)``.  A layout with no such gate routes with no SWAP and
the circuit's own depth, so the first one found wins every tie-break
and is the only layout routed.  Otherwise layouts are routed in
increasing order of their bound until the bound exceeds the best CNOT
count found, and a route is cut short once its SWAPs alone take it past
that count.  The result is the optimum of an exhaustive search, with
the same tie-breaks.

A ``CouplingGraph`` builds its adjacency once.  Hop counts come from one
BFS per source, run the first time that source's row is read; the BFS
from node 0 is also the connectivity check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import permutations

from .circuit import Circuit, parse_int

log = logging.getLogger(__name__)


class _HopCounts(dict):
    """Hop counts ``[a][b]``; the row of each source ``a`` is filled by
    one BFS the first time it is read."""

    def __init__(self, adj: dict):
        super().__init__()
        self.adj = adj

    def __missing__(self, source: int) -> dict:
        row, frontier = {source: 0}, [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in self.adj[v]:
                    if w not in row:
                        row[w] = row[v] + 1
                        nxt.append(w)
            frontier = nxt
        self[source] = row
        return row


@dataclass(frozen=True)
class CouplingGraph:
    num_physical: int
    edges: frozenset  # of frozenset pairs
    _hops: _HopCounts = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = frozenset(frozenset(e) for e in self.edges)
        if self.num_physical > len(edges) + 1:  # N nodes need N - 1 edges; checked before allocating
            raise ValueError("coupling graph must be connected")
        adj = {q: set() for q in range(self.num_physical)}
        for e in edges:
            if len(e) != 2 or any(not 0 <= q < self.num_physical for q in e):
                raise ValueError(f"bad edge {set(e)}")
            a, b = e
            adj[a].add(b)
            adj[b].add(a)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_hops", _HopCounts(adj))
        if self.num_physical > 1 and len(self._hops[0]) != self.num_physical:
            raise ValueError("coupling graph must be connected")

    def adjacency(self) -> dict:
        return self._hops.adj

    def has_edge(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.edges

    def distances(self) -> dict:
        """Hop counts ``[a][b]``, each source's row computed on first read."""
        return self._hops


def casablanca_topology() -> CouplingGraph:
    """The seven-qubit H-shaped device graph."""
    return CouplingGraph(7, frozenset({frozenset(e) for e in
                                       [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)]}))


def load_coupling_graph(path) -> CouplingGraph:
    """Edge-list text file, one ``u v`` pair per line; # starts a comment."""
    edges = set()
    max_node = -1
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {line_no}: expected 'u v', got {line!r}")
            u, v = (parse_int(tok, line_no) for tok in parts)
            edges.add(frozenset((u, v)))
            max_node = max(max_node, u, v)
    if not edges:
        raise ValueError("empty graph file")
    return CouplingGraph(max_node + 1, frozenset(edges))


@dataclass(frozen=True)
class CostReport:
    cnot_count: int
    swap_count: int
    depth: int


def cost(routed: Circuit, graph: CouplingGraph | None = None) -> CostReport:
    """CNOT count (SWAP = 3) and dependency depth of a routed circuit."""
    cnots = 0
    swaps = 0
    level = {}

    def bump(qubits):
        lvl = 1 + max((level.get(q, 0) for q in qubits), default=0)
        for q in qubits:
            level[q] = lvl

    for step in routed.steps:
        if len(step.targets) == 2:
            if graph is not None and not graph.has_edge(*step.targets):
                raise ValueError(
                    f"two-qubit gate on non-edge {step.targets}: routing bug"
                )
            if step.kind == "SWAP":
                swaps += 1
            else:
                cnots += 1
        bump(step.targets)
    return CostReport(cnots + 3 * swaps, swaps, max(level.values(), default=0))


def _route_with_layout(c: Circuit, g: CouplingGraph, initial: dict, dist: dict,
                       max_swaps: float = float("inf")):
    """Greedy nearest-neighbor SWAP insertion for a fixed initial layout.

    Returns None as soon as more than ``max_swaps`` SWAPs are needed.
    """
    l2p = dict(initial)
    swaps = 0
    adj = g.adjacency()
    routed = Circuit(g.num_physical)
    p2l = {p: l for l, p in l2p.items()}
    for step in c.steps:
        if len(step.targets) == 2:
            a, b = step.targets
            while dist[l2p[b]][l2p[a]] > 1:
                swaps += 1
                if swaps > max_swaps:
                    return None
                pa, pb = l2p[a], l2p[b]
                nxt = min(adj[pa], key=lambda n: (dist[pb][n], n))
                routed.gate("SWAP", pa, nxt)
                la, ln = p2l.pop(pa, None), p2l.pop(nxt, None)
                if la is not None:
                    l2p[la], p2l[nxt] = nxt, la
                if ln is not None:
                    l2p[ln], p2l[pa] = pa, ln
        routed.add(step.on(l2p))
    return routed


def route(c: Circuit, g: CouplingGraph):
    """Map and route a logical circuit onto the coupling graph.

    Returns ({logical: physical} layout, routed circuit, cost report)
    minimizing CNOT count, ties broken by depth then lexicographic
    layout: the optimum of an exhaustive search over injective layouts.
    Only the first layout that needs no SWAP is routed, if one exists;
    otherwise layouts are routed in order of their lower bound (see the
    module docstring) until it exceeds the best CNOT count found.
    Logs the layouts enumerated and routed at DEBUG level.
    """
    n_log = c.num_qubits
    if n_log > g.num_physical:
        raise ValueError(
            f"{n_log} logical qubits exceed {g.num_physical} physical qubits"
        )
    dist = g.distances()
    pairs = [s.targets for s in c.steps if len(s.targets) == 2]
    floor = cost(c).cnot_count
    candidates, enumerated = [], 0
    for phys in permutations(range(g.num_physical), n_log):
        enumerated += 1
        # Hop distance of the first gate that is off an edge; 1 if none is.
        hops = next((d for d in (dist[phys[a]][phys[b]] for a, b in pairs) if d > 1), 1)
        if hops == 1:
            candidates = [(floor, phys)]
            break
        candidates.append((floor + 3 * (hops - 1), phys))
    best, routed_count, cut_short = None, 0, 0
    for bound, phys in sorted(candidates):
        if best is not None and bound > best[0][0]:
            break
        routed_count += 1
        layout = dict(enumerate(phys))
        # Every SWAP adds 3 to ``floor``: one SWAP past this budget loses.
        budget = float("inf") if best is None else (best[0][0] - floor) // 3
        routed = _route_with_layout(c, g, layout, dist, budget)
        if routed is None:
            cut_short += 1
            continue
        report = cost(routed, g)
        key = (report.cnot_count, report.depth, phys)
        if best is None or key < best[0]:
            best = (key, layout, routed, report)
    _, layout, routed, report = best
    log.debug(
        "route: %d layouts enumerated, %d routed (%d cut short), chose cnot_count=%d depth=%d",
        enumerated, routed_count, cut_short, report.cnot_count, report.depth,
    )
    return layout, routed, report
