"""Layout selection and SWAP routing onto a device coupling graph.

The cost metric is CNOT count with SWAP = 3 CNOTs (two-qubit errors
dominate single-qubit errors by over an order of magnitude on this
device class), tie-broken by depth, then by lexicographic layout.
Layouts are searched exhaustively (at most 7 physical qubits here);
SWAPs are inserted greedily along shortest paths.  CNOT direction is
ignored: reversal is free via Hadamard conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .circuit import Circuit, ClassicallyControlled, Gate, Measure


@dataclass(frozen=True)
class CouplingGraph:
    num_physical: int
    edges: frozenset  # of frozenset pairs

    def __post_init__(self):
        edges = frozenset(frozenset(e) for e in self.edges)
        for e in edges:
            if len(e) != 2 or any(not 0 <= q < self.num_physical for q in e):
                raise ValueError(f"bad edge {set(e)}")
        object.__setattr__(self, "edges", edges)
        if self.num_physical > 1 and len(self._components()) != 1:
            raise ValueError("coupling graph must be connected")

    def _components(self):
        seen, comps = set(), []
        adj = self.adjacency()
        for start in range(self.num_physical):
            if start in seen:
                continue
            comp, stack = set(), [start]
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(adj[v])
            seen |= comp
            comps.append(comp)
        return comps

    def adjacency(self) -> dict:
        adj = {q: set() for q in range(self.num_physical)}
        for e in self.edges:
            a, b = sorted(e)
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def has_edge(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.edges

    def distances(self) -> dict:
        """All-pairs hop counts by BFS."""
        adj = self.adjacency()
        dist = {}
        for s in range(self.num_physical):
            d = {s: 0}
            frontier = [s]
            while frontier:
                nxt = []
                for v in frontier:
                    for w in adj[v]:
                        if w not in d:
                            d[w] = d[v] + 1
                            nxt.append(w)
                frontier = nxt
            dist[s] = d
        return dist


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
            u, v = int(parts[0]), int(parts[1])
            edges.add(frozenset((u, v)))
            max_node = max(max_node, u, v)
    if not edges:
        raise ValueError("empty graph file")
    return CouplingGraph(max_node + 1, frozenset(edges))


@dataclass(frozen=True)
class Layout:
    mapping: dict  # logical -> physical

    def __post_init__(self):
        vals = list(self.mapping.values())
        if len(set(vals)) != len(vals):
            raise ValueError("layout must be injective")


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
        gate = step.gate if isinstance(step, ClassicallyControlled) else step
        if isinstance(gate, Measure):
            for q in gate.qubits:
                bump([q])
            continue
        if len(gate.targets) == 2:
            if graph is not None and not graph.has_edge(*gate.targets):
                raise ValueError(
                    f"two-qubit gate on non-edge {gate.targets}: routing bug"
                )
            if gate.kind == "SWAP":
                swaps += 1
            else:
                cnots += 1
        bump(gate.targets)
    return CostReport(cnots + 3 * swaps, swaps, max(level.values(), default=0))


def _route_with_layout(c: Circuit, g: CouplingGraph, initial: dict, dist: dict):
    """Greedy nearest-neighbor SWAP insertion for a fixed initial layout."""
    l2p = dict(initial)
    adj = g.adjacency()
    routed = Circuit(g.num_physical)

    def emit(step, gate):
        phys = tuple(l2p[q] for q in gate.targets)
        new_gate = Gate(gate.kind, phys, gate.matrix)
        if isinstance(step, ClassicallyControlled):
            routed.add(ClassicallyControlled(new_gate, step.bit, step.value))
        else:
            routed.add(new_gate)

    p2l = {p: l for l, p in l2p.items()}
    for step in c.steps:
        if isinstance(step, Measure):
            routed.add(Measure(tuple(l2p[q] for q in step.qubits), step.bits))
            continue
        gate = step.gate if isinstance(step, ClassicallyControlled) else step
        if len(gate.targets) == 2:
            a, b = gate.targets
            while dist[l2p[a]][l2p[b]] > 1:
                pa, pb = l2p[a], l2p[b]
                nxt = min(
                    (n for n in adj[pa]),
                    key=lambda n: (dist[n][pb], n),
                )
                routed.gate("SWAP", pa, nxt)
                la, ln = p2l.get(pa), p2l.get(nxt)
                if la is not None:
                    l2p[la] = nxt
                if ln is not None:
                    l2p[ln] = pa
                p2l = {p: l for l, p in l2p.items()}
        emit(step, gate)
    return routed


def route(c: Circuit, g: CouplingGraph):
    """Map and route a logical circuit onto the coupling graph.

    Exhaustive search over injective layouts, minimizing CNOT count,
    ties broken by depth then lexicographic layout.  Returns
    (layout, routed circuit, cost report).
    """
    n_log = c.num_qubits
    if n_log > g.num_physical:
        raise ValueError(
            f"{n_log} logical qubits exceed {g.num_physical} physical qubits"
        )
    dist = g.distances()
    best = None
    for phys in permutations(range(g.num_physical), n_log):
        layout = dict(enumerate(phys))
        routed = _route_with_layout(c, g, layout, dist)
        report = cost(routed, g)
        key = (report.cnot_count, report.depth, phys)
        if best is None or key < best[0]:
            best = (key, Layout(layout), routed, report)
    _, layout, routed, report = best
    return layout, routed, report
