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

A ``CouplingGraph`` builds its adjacency ``adj[q]`` (q's neighbours)
once.  Its hop counts ``hops[a][b]`` come from one BFS per source, run the
first time that source's row is read; the BFS from node 0 is also the
connectivity check.
"""

from __future__ import annotations

import sys
from itertools import permutations
from typing import NamedTuple

from .circuit import SWAP_CNOTS, Circuit


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


class CouplingGraph:
    __slots__ = ("num_physical", "edges", "adj", "hops")

    def __init__(self, num_physical: int, edges):
        edges = frozenset(frozenset(e) for e in edges)  # of frozenset pairs
        if num_physical > len(edges) + 1:  # N nodes need N - 1 edges; checked before allocating
            raise ValueError("coupling graph must be connected")
        adj = {q: set() for q in range(num_physical)}
        for e in edges:
            if len(e) != 2 or any(not 0 <= q < num_physical for q in e):
                raise ValueError(f"bad edge {set(e)}")
            a, b = e
            adj[a].add(b)
            adj[b].add(a)
        self.num_physical, self.edges, self.adj, self.hops = num_physical, edges, adj, _HopCounts(adj)
        if num_physical > 1 and len(self.hops[0]) != num_physical:
            raise ValueError("coupling graph must be connected")

    def has_edge(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.edges


def casablanca_topology() -> CouplingGraph:
    """The seven-qubit H-shaped device graph."""
    return CouplingGraph(7, [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)])


class CostReport(NamedTuple):
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
    return CostReport(cnots + SWAP_CNOTS * swaps, swaps, max(level.values(), default=0))


def _route_with_layout(c: Circuit, g: CouplingGraph, initial: dict,
                       max_swaps: float = float("inf")):
    """Greedy nearest-neighbor SWAP insertion for a fixed initial layout.

    Returns (routed circuit, {logical: physical} where it ends), or None
    as soon as more than ``max_swaps`` SWAPs are needed.
    """
    l2p = dict(initial)
    swaps = 0
    adj, dist = g.adj, g.hops
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
    return routed, l2p


def route(c: Circuit, g: CouplingGraph):
    """Map and route a logical circuit onto the coupling graph.

    Returns ({logical: physical} initial layout, routed circuit, cost
    report, {logical: physical} final layout after the inserted SWAPs)
    minimizing CNOT count, ties broken by depth then lexicographic
    layout: the optimum of an exhaustive search over injective layouts.
    Only the first layout that needs no SWAP is routed, if one exists;
    otherwise layouts are routed in order of their lower bound (see the
    module docstring) until it exceeds the best CNOT count found.
    Logs the layouts enumerated and routed at DEBUG level, if the process
    has imported ``logging``: one that has not can have no handler for it.
    """
    n_log = c.num_qubits
    if n_log > g.num_physical:
        raise ValueError(
            f"{n_log} logical qubits exceed {g.num_physical} physical qubits"
        )
    dist = g.hops
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
        candidates.append((floor + SWAP_CNOTS * (hops - 1), phys))
    best, routed_count, cut_short = None, 0, 0
    for bound, phys in sorted(candidates):
        if best is not None and bound > best[0][0]:
            break
        routed_count += 1
        layout = dict(enumerate(phys))
        # Every SWAP adds SWAP_CNOTS to ``floor``: one SWAP past this budget loses.
        budget = float("inf") if best is None else (best[0][0] - floor) // SWAP_CNOTS
        result = _route_with_layout(c, g, layout, budget)
        if result is None:
            cut_short += 1
            continue
        routed, final = result
        report = cost(routed, g)
        key = (report.cnot_count, report.depth, phys)
        if best is None or key < best[0]:
            best = (key, layout, routed, report, final)
    _, layout, routed, report, final = best
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(
            "route: %d layouts enumerated, %d routed (%d cut short), chose cnot_count=%d depth=%d",
            enumerated, routed_count, cut_short, report.cnot_count, report.depth,
        )
    return layout, routed, report, final
