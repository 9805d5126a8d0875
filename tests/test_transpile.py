import heapq
import logging
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twobell import transpile
from twobell.channels import ideal_noise_model, noisy_distribution
from twobell.circuit import Circuit, Gate, Measure, from_text, run_exact, to_text
from twobell.protocols import experiment_circuit
from twobell.transpile import (
    CostReport,
    CouplingGraph,
    casablanca_topology,
    cost,
    load_coupling_graph,
    route,
)


def two_qubit_interactions(c: Circuit):
    out = []
    for step in c.steps:
        gate = getattr(step, "gate", step)  # unwrap classical control
        kind = getattr(gate, "kind", None)
        if kind in ("CNOT", "SWAP") or (kind == "CUSTOM" and len(gate.targets) == 2):
            out.append(tuple(gate.targets))
    return out


def brute_force_min_cost(c: Circuit, g: CouplingGraph, max_swaps=3):
    """Dijkstra over (qubit mapping, next gate index) with SWAP cost 3."""
    gates = two_qubit_interactions(c)
    n = c.num_qubits
    edges = [tuple(sorted(e)) for e in g.edges]
    best = None
    for init in permutations(range(g.num_physical), n):
        heap = [(0, 0, init, 0)]  # cost, gate index, mapping, swaps used
        seen = {}
        while heap:
            cst, idx, mapping, swaps = heapq.heappop(heap)
            if best is not None and cst >= best:
                break
            if idx == len(gates):
                best = cst if best is None else min(best, cst)
                break
            if seen.get((idx, mapping), 1 << 30) <= cst:
                continue
            seen[(idx, mapping)] = cst
            a, b = gates[idx]
            if g.has_edge(mapping[a], mapping[b]):
                heapq.heappush(heap, (cst + 1, idx + 1, mapping, swaps))
            if swaps < max_swaps:
                for u, v in edges:
                    m = list(mapping)
                    for i, p in enumerate(m):
                        if p == u:
                            m[i] = v
                        elif p == v:
                            m[i] = u
                    heapq.heappush(heap, (cst + 3, idx, tuple(m), swaps + 1))
    return best


# -- topology -------------------------------------------------------------------


def test_casablanca_shape():
    g = casablanca_topology()
    assert g.num_physical == 7
    assert len(g.edges) == 6
    assert g.adjacency()[5] == {3, 4, 6}


def test_casablanca_connected():
    g = casablanca_topology()
    dist = g.distances()
    assert all(b in dist[a] for a in range(7) for b in range(7))


def test_graph_rejects_disconnected():
    with pytest.raises(ValueError):
        CouplingGraph(4, frozenset({frozenset({0, 1}), frozenset({2, 3})}))


def test_route_on_large_graph_computes_only_the_hop_counts_it_reads():
    g = CouplingGraph(600, frozenset(frozenset((i, i + 1)) for i in range(599)))
    layout, routed, report = route(Circuit(2).cnot(0, 1), g)
    assert layout == {0: 0, 1: 1}
    assert report == CostReport(1, 0, 1)
    # BFS sources: node 0 for the connectivity check, then the routed gate's.
    assert len(g.distances()) <= 2
    assert g.distances()[0][599] == 599


def test_load_coupling_graph(tmp_path):
    p = tmp_path / "graph.txt"
    p.write_text("0 1\n1 2\n")
    g = load_coupling_graph(p)
    assert g.num_physical == 3
    assert g.has_edge(0, 1) and g.has_edge(2, 1) and not g.has_edge(0, 2)


# -- cost -----------------------------------------------------------------------


def test_cost_four_cnots():
    c = Circuit(2)
    for _ in range(4):
        c.cnot(0, 1)
    assert cost(c) == CostReport(cnot_count=4, swap_count=0, depth=4)


def test_cost_swap_counts_as_three():
    c = Circuit(3).cnot(0, 1).gate("SWAP", 1, 2).cnot(0, 1)
    report = cost(c)
    assert report.cnot_count == 5
    assert report.swap_count == 1


def test_cost_rejects_non_edge():
    c = Circuit(3).cnot(0, 2)
    with pytest.raises(ValueError):
        cost(c, load_coupling_graph_from_edges())


def load_coupling_graph_from_edges():
    return CouplingGraph(3, frozenset({frozenset({0, 1}), frozenset({1, 2})}))


# -- routing --------------------------------------------------------------------


def test_single_cnot_zero_swaps():
    c = Circuit(2).cnot(0, 1)
    _, routed, report = route(c, casablanca_topology())
    assert report.swap_count == 0
    assert report.cnot_count == 1


def test_disjoint_chains_zero_swaps():
    # Interactions a-b, b-c and d-e, e-f: fits paths 0-1-2 and 4-5-6.
    c = Circuit(6).cnot(0, 1).cnot(1, 2).cnot(3, 4).cnot(4, 5)
    _, routed, report = route(c, casablanca_topology())
    assert report.swap_count == 0
    assert report.cnot_count == 4


def test_experiment_circuit_routes_without_swaps():
    c = experiment_circuit(measure_outputs=False)
    layout, routed, report = route(c, casablanca_topology())
    assert report.swap_count == 0
    assert report.cnot_count == 4


def test_triangle_needs_a_swap():
    c = Circuit(3).cnot(0, 1).cnot(1, 2).cnot(0, 2)
    _, routed, report = route(c, casablanca_topology())
    assert report.swap_count >= 1


def test_route_rejects_too_many_logical_qubits():
    c = Circuit(8).cnot(0, 7)
    with pytest.raises(ValueError):
        route(c, casablanca_topology())


def test_routed_gates_lie_on_edges():
    g = casablanca_topology()
    rng = np.random.default_rng(41)
    for _ in range(5):
        c = _random_circuit(rng, 4, measured=0)
        _, routed, _ = route(c, g)
        for a, b in two_qubit_interactions(routed):
            assert g.has_edge(a, b)


def _random_circuit(rng, n, measured=2):
    c = Circuit(n)
    for _ in range(8):
        if rng.random() < 0.45:
            a, b = rng.choice(n, size=2, replace=False)
            c.cnot(int(a), int(b))
        else:
            c.gate(["H", "X", "Z", "S"][rng.integers(4)], int(rng.integers(n)))
    for i in range(measured):
        c.measure(int(rng.integers(n)), f"c{i}")
    return c


def test_routed_circuit_semantically_equivalent():
    g = casablanca_topology()
    rng = np.random.default_rng(43)
    for _ in range(8):
        c = _random_circuit(rng, int(rng.integers(2, 5)), measured=3)
        _, routed, _ = route(c, g)
        expected = run_exact(c).probabilities()
        got = run_exact(routed).probabilities()
        for outcome in set(expected) | set(got):
            assert got.get(outcome, 0.0) == pytest.approx(
                expected.get(outcome, 0.0), abs=1e-10
            )


def test_route_matches_brute_force_optimum():
    g = casablanca_topology()
    rng = np.random.default_rng(47)
    for _ in range(4):
        c = _random_circuit(rng, int(rng.integers(3, 6)), measured=0)
        _, _, report = route(c, g)
        oracle = brute_force_min_cost(c, g)
        assert oracle is not None
        assert report.cnot_count <= oracle


def test_route_deterministic_tie_breaking():
    c = Circuit(2).cnot(0, 1)
    g = casablanca_topology()
    first = route(c, g)
    second = route(c, g)
    assert first[0] == second[0]
    assert first[2] == second[2]


# -- pruned search against the exhaustive one -----------------------------------


GRAPHS = {
    "casablanca": casablanca_topology(),
    "line5": CouplingGraph(5, frozenset(frozenset((i, i + 1)) for i in range(4))),
    "ring6": CouplingGraph(6, frozenset(frozenset((i, (i + 1) % 6)) for i in range(6))),
}


def exhaustive_route(c: Circuit, g: CouplingGraph):
    """Reference: route and cost every injective layout, keep the least
    (cnot_count, depth, layout) key."""
    dist = g.distances()
    best = None
    for phys in permutations(range(g.num_physical), c.num_qubits):
        layout = dict(enumerate(phys))
        routed = transpile._route_with_layout(c, g, layout, dist)
        report = cost(routed, g)
        key = (report.cnot_count, report.depth, phys)
        if best is None or key < best[0]:
            best = (key, layout, routed, report)
    _, layout, routed, report = best
    return layout, routed, report


@st.composite
def routing_cases(draw, g):
    """(circuit, embeds): ``embeds`` circuits only interact pairs that
    are edges under one hidden layout; the others contain a CNOT
    triangle, which none of the (triangle-free) graphs can hold."""
    n = draw(st.sampled_from(range(1, min(6, g.num_physical) + 1)))
    embeds = n < 3 or draw(st.booleans())
    if embeds:
        hidden = draw(st.permutations(range(g.num_physical)))
        pairs = [(a, b) for a, b in permutations(range(n), 2) if g.has_edge(hidden[a], hidden[b])]
    else:
        pairs = list(permutations(range(n), 2))

    def gate(two_qubit):
        if two_qubit:
            return Gate(draw(st.sampled_from(["CNOT", "SWAP"])), draw(st.sampled_from(pairs)))
        return Gate(draw(st.sampled_from(["H", "X", "Z", "S"])), (draw(st.integers(0, n - 1)),))

    steps, bits = [], []
    kinds = ["1q", "measure", "c1q"] + (["2q", "2q", "c2q"] if pairs else [])
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=10)):
        if kind == "measure":
            bits.append(f"c{draw(st.integers(0, 2))}")  # a bit may be measured twice
            steps.append(Measure(draw(st.integers(0, n - 1)), bits[-1]))
        elif kind.startswith("c") and bits:
            steps.append(replace(gate(kind == "c2q"), bit=draw(st.sampled_from(bits))))
        else:
            steps.append(gate(kind in ("2q", "c2q")))
    if not embeds:
        a, b, c = draw(st.permutations(range(n)))[:3]
        for pair in ((a, b), (b, c), (a, c)):
            steps.insert(draw(st.integers(0, len(steps))), Gate("CNOT", pair))
    return Circuit(n, steps), embeds


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@settings(max_examples=40)
@given(data=st.data())
def test_route_equals_exhaustive_search(graph, data):
    g = GRAPHS[graph]
    c, embeds = data.draw(routing_cases(g))
    layout, routed, report = route(c, g)
    ref_layout, ref_routed, ref_report = exhaustive_route(c, g)
    assert layout == ref_layout
    assert routed.steps == ref_routed.steps
    assert report == ref_report
    # The case is of the kind it was drawn as: SWAPs are needed exactly
    # when no layout embeds the circuit.
    assert (report.cnot_count == cost(c).cnot_count) == embeds


def test_routing_the_experiment_routes_one_layout(monkeypatch):
    calls = []
    real = transpile._route_with_layout

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(transpile, "_route_with_layout", counted)
    layout, _, _ = route(experiment_circuit(measure_outputs=False), casablanca_topology())
    assert calls == [layout]


def test_route_logs_the_search(caplog):
    g = casablanca_topology()
    with caplog.at_level(logging.DEBUG, logger="twobell.transpile"):
        route(experiment_circuit(measure_outputs=False), g)
        route(Circuit(3).cnot(0, 1).cnot(1, 2).cnot(0, 2), g)
    assert [r.getMessage() for r in caplog.records] == [
        "route: 3 layouts enumerated, 1 routed (0 cut short), chose cnot_count=4 depth=5",
        "route: 210 layouts enumerated, 106 routed (92 cut short), chose cnot_count=6 depth=4",
    ]


# -- the noise engine on routed circuits against the exact engine -------------


ROUTED_AGREEMENT_GRAPHS = {
    "casablanca": casablanca_topology(),
    "ring7": CouplingGraph(7, frozenset(frozenset((i, (i + 1) % 7)) for i in range(7))),
}


@st.composite
def measured_circuits(draw):
    """Up to 5 logical qubits, mostly 5 so that layouts reach the far
    qubits of the graph: one- and two-qubit gates on any qubits,
    mid-circuit measurements, gates controlled on a measured bit, and a
    final measurement."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 5, 5, 5]))
    kinds = ["H", "X", "Z", "S"] + (["CNOT", "CNOT", "SWAP"] if n > 1 else [])

    def gate():
        kind = draw(st.sampled_from(kinds))
        arity = 2 if kind in ("CNOT", "SWAP") else 1
        return Gate(kind, tuple(draw(st.permutations(range(n)))[:arity]))

    c = Circuit(n).h(draw(st.integers(0, n - 1)))
    bits = []
    for step in draw(st.lists(st.sampled_from(["gate", "gate", "measure", "control"]), max_size=10)):
        if step == "measure":
            bits.append(draw(st.sampled_from(["m0", "m1"])))
            c.measure(draw(st.integers(0, n - 1)), bits[-1])
        elif step == "control" and bits:
            c.add(replace(gate(), bit=draw(st.sampled_from(bits))))
        else:
            c.add(gate())
    return c.measure(draw(st.integers(0, n - 1)), "out")


@settings(max_examples=60)
@given(c=measured_circuits())
def test_text_round_trip_keeps_every_step_and_measured_bit(c):
    """``from_text`` gives back the same qubit count, steps and
    bit -> qubit map, in the same order."""
    back = from_text(to_text(c))
    assert back.num_qubits == c.num_qubits
    assert back.steps == c.steps
    assert list(back.measured.items()) == list(c.measured.items())


@pytest.mark.parametrize("graph", sorted(ROUTED_AGREEMENT_GRAPHS))
@settings(max_examples=40)
@given(c=measured_circuits())
def test_noiseless_routed_run_matches_exact_logical_run(graph, c):
    """Routing keeps the classical bit names, so the noiseless noise engine
    on the routed circuit gives the exact engine's distribution key by key."""
    _, routed, _ = route(c, ROUTED_AGREEMENT_GRAPHS[graph])
    exact = run_exact(c).probabilities()
    _, dist = noisy_distribution(routed, ideal_noise_model(7))
    for outcome in set(exact) | set(dist):
        assert dist.get(outcome, 0.0) == pytest.approx(exact.get(outcome, 0.0), abs=1e-9)
