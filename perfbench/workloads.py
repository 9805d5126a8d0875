"""Workload inputs, generated from the seed, and checks of the outputs.

Each workload is a cycle of ops that the benchmark repeats as a closed
loop with one client.  An op is one ``twobell`` command line; its check
reads the JSON document the command printed and raises ``CheckFailed``
when it is wrong.  The mix of op kinds and sizes in a cycle is fixed and
only the values inside are drawn from the seed, so that a cycle costs
about the same under any seed and the reported rates stay comparable.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference"
PAPER_REFERENCE = REFERENCE / f"paper_noisy_seed{DEFAULT_SEED}.json"
ROUTE_REFERENCE = REFERENCE / "route_mix_cnot_count.json"

TOL = 1e-9


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple
    check: Callable[[str], None]


def _expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# -- paper_noisy --------------------------------------------------------------

PAPER_ARGV = ("run", "--calibration", "builtin", "--reps", "10")
PAPER_FIXED_KEYS = ("branches", "command", "resources", "schema_version", "scheme", "shots")


def paper_cycle(seed: int, workdir: Path) -> list:
    """One op: the paper's experiment, ``twobell run --calibration builtin
    --reps 10 --seed <seed>``, checked against the reference document."""
    ref_text = PAPER_REFERENCE.read_text()
    ref = json.loads(ref_text)

    def check(text: str):
        _expect(seed != DEFAULT_SEED or text == ref_text, "output differs from the reference document")
        doc = json.loads(text)
        _expect(doc["seed"] == seed, "seed not echoed")
        for key in PAPER_FIXED_KEYS:
            _expect(doc[key] == ref[key], f"{key} differs from the reference")
        noisy, ref_noisy = doc["noisy"], ref["noisy"]
        for key in ("fidelity_percent_deterministic", "classical_limit_percent"):
            _expect(noisy[key] == ref_noisy[key], f"noisy.{key} differs from the reference")
        _expect(doc["ideal"]["fidelity_percent"] == 100.0, "ideal fidelity is not 100")
        for block in (doc["ideal"], noisy):
            _expect(sum(block["histogram"].values()) == doc["shots"], "histogram does not sum to shots")
        reps = noisy["repetition_fidelities_percent"]
        _expect(len(reps) == 10, "expected 10 repetition fidelities")
        _expect(all(0.0 <= f <= 100.0 for f in reps), "repetition fidelity outside [0, 100]")
        _expect(abs(noisy["stats"]["mean"] - sum(reps) / len(reps)) <= 1e-5, "stats.mean is not the mean")

    return [Op("paper_noisy", PAPER_ARGV + ("--seed", str(seed)), check)]


# -- exact_protocols ----------------------------------------------------------

# Op kind -> count per cycle.  The register size m of two_bell runs is
# drawn evenly from 1 to 4; the counts put the median latency inside a
# group of like ops rather than on a step between two.
EXACT_MIX = (
    ("tomography", 3),
    ("tomography_exact", 2),
    ("general_two_qubit", 3),
    ("cluster5", 3),
    ("two_bell_m1", 3),
    ("compare", 3),
    ("two_bell_m2", 3),
    ("two_bell_m3", 3),
    ("two_bell_m4", 3),
)


def _unit_complex(rng: random.Random, count: int) -> list:
    raw = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(count)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in raw))
    return [[c.real / norm, c.imag / norm] for c in raw]


def _bell_input(rng: random.Random, n: int) -> dict:
    alpha, beta = _unit_complex(rng, 2)
    return {"x": rng.randrange(2 ** n), "alpha": alpha, "beta": beta}


def _check_branches(doc: dict, scheme: str):
    _expect(doc["scheme"] == scheme, "wrong scheme")
    branches = doc["branches"]
    _expect(len(branches) == 16, "expected 16 branches")
    for b in branches:
        _expect(abs(b["fidelity_vs_ideal"] - 1.0) <= TOL, f"branch {b['outcome_bits']} fidelity != 1")
    _expect(abs(sum(b["probability"] for b in branches) - 1.0) <= TOL, "branch probabilities do not sum to 1")


def _check_run(scheme: str):
    def check(text: str):
        doc = json.loads(text)
        _check_branches(doc, scheme)
        if scheme == "two_bell":
            _expect(doc["resources"]["bell_pairs"] == 2, "two_bell must use two Bell pairs")
            _expect(sum(doc["ideal"]["histogram"].values()) == doc["shots"], "histogram does not sum to shots")

    return check


def _check_compare(text: str):
    doc = json.loads(text)
    _expect(doc["equivalent"] is True, "compare: schemes not equivalent")
    _expect(doc["min_branch_fidelity"] >= 1.0 - TOL, "compare: branch fidelity below 1")


def _check_tomography(exact: bool):
    def check(text: str):
        doc = json.loads(text)
        rho = doc["density_matrix"]["real"]
        _expect(abs(sum(rho[i][i] for i in range(len(rho))) - 1.0) <= TOL, "tomography: trace != 1")
        fid = doc["fidelity_percent"]
        if exact:
            _expect(abs(fid - 100.0) <= 1e-6, "exact tomography fidelity is not 100")
        else:
            _expect(90.0 <= fid <= 100.0, "sampled tomography fidelity outside [90, 100]")

    return check


def exact_cycle(seed: int, workdir: Path) -> list:
    rng = random.Random(f"exact_protocols/{seed}")
    ops = []
    for kind, count in EXACT_MIX:
        for i in range(count):
            op_seed = str(rng.randrange(2 ** 31))
            config = workdir / f"{kind}_{i}.json"
            if kind.startswith("two_bell_m"):
                m = int(kind[-1])
                data = {"scheme": "two_bell", "m": m, "input_a": _bell_input(rng, m),
                        "input_b": _bell_input(rng, m + 1)}
                argv = ("run", "--config", str(config), "--seed", op_seed)
                check = _check_run("two_bell")
            elif kind == "cluster5":
                data = {"scheme": "cluster5", "m": 1, "input_a": _bell_input(rng, 1),
                        "input_b": _bell_input(rng, 2)}
                argv = ("run", "--config", str(config), "--seed", op_seed)
                check = _check_run("cluster5")
            elif kind == "general_two_qubit":
                data = {"scheme": "general_two_qubit", "coefficients": _unit_complex(rng, 4)}
                argv = ("run", "--config", str(config), "--seed", op_seed)
                check = _check_run("general_two_qubit")
            elif kind == "compare":
                data = {"input_a": _bell_input(rng, 1), "input_b": _bell_input(rng, 2)}
                argv = ("compare", "--config", str(config))
                check = _check_compare
            elif kind == "tomography":
                data = None
                shots = str(rng.choice((1024, 4096, 8192)))
                argv = ("tomography", "--shots", shots, "--seed", op_seed)
                check = _check_tomography(exact=False)
            else:
                data = None
                argv = ("tomography", "--exact")
                check = _check_tomography(exact=True)
            if data is not None:
                config.write_text(json.dumps(data))
            ops.append(Op(kind, argv, check))
    rng.shuffle(ops)
    return ops


# -- route_mix ----------------------------------------------------------------

GRAPHS = {
    "casablanca": ((0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)),
    "line": tuple((i, i + 1) for i in range(6)),
    "ring": tuple((i, (i + 1) % 7) for i in range(7)),
    "ladder": ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (0, 4), (1, 5), (2, 6)),
}

# (logical qubits, graph) per random circuit in a cycle.  The layout
# search visits 7!/(7-n)! layouts, 210 for n = 3 up to 5040 for n >= 6.
ROUTE_MIX = (
    (3, "line"), (3, "ring"), (4, "ladder"), (4, "casablanca"), (5, "line"),
    (5, "ring"), (5, "ladder"), (6, "casablanca"), (6, "line"), (7, "ring"),
)

# The paper's experiment circuit (|+>, |+> inputs, receivers unmeasured),
# as ``to_text(experiment_circuit(measure_outputs=False))`` prints it.
EXPERIMENT_TEXT = """qubits 6
H 0
H 3
H 1
CNOT 1 2
H 4
CNOT 4 5
CNOT 0 1
H 0
M 0 -> b1
M 1 -> b2
CNOT 3 4
H 3
M 3 -> b3
M 4 -> b4
X 2 if b2
Z 2 if b1
X 5 if b4
Z 5 if b3
"""


def random_circuit(slot: int, n: int, rng: random.Random) -> str:
    """CNOT-heavy circuit on n qubits with one mid-circuit measurement
    whose bit controls a later gate, and a final measurement.

    The CNOT skeleton of a slot is fixed; ``rng`` relabels its qubits and
    places the Hadamards, the measurements and the feed-forward gate.
    Relabelling permutes the layouts the router visits, so every seed
    costs the router the same work and gives the same optimal cnot_count.
    """
    skeleton = random.Random(f"route_mix/skeleton/{slot}")
    pairs = [skeleton.sample(range(n), 2) for _ in range(n + 4)]
    perm = rng.sample(range(n), n)
    lines = [f"qubits {n}"]
    lines += [f"H {q}" for q in sorted(rng.sample(range(n), (n + 1) // 2))]
    for i, (a, b) in enumerate(pairs):
        lines.append(f"CNOT {perm[a]} {perm[b]}")
        if i == len(pairs) // 2:
            q, target = rng.sample(range(n), 2)
            lines.append(f"M {q} -> m0")
            lines.append(f"{rng.choice('XZ')} {target} if m0")
    lines.append(f"M {rng.randrange(n)} -> out")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> list:
    """Steps of a circuit in the text format as (gate, qubits, condition)."""
    steps = []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks or toks[0] == "qubits":
            continue
        if toks[0] == "M":
            steps.append(("M", (int(toks[1]),), None))
            continue
        cond = None
        if "if" in toks:
            cond = toks[toks.index("if") + 1]
            toks = toks[: toks.index("if")]
        steps.append((toks[0], tuple(int(t) for t in toks[1:]), cond))
    return steps


def _check_route(source: str, edges, expected_cnots):
    edge_set = {frozenset(e) for e in edges}
    logical = parse_circuit(source)
    n_logical = int(source.split()[1])

    def check(text: str):
        doc = json.loads(text)
        layout = doc["layout"]
        _expect(sorted(layout) == sorted(str(q) for q in range(n_logical)), "layout misses a logical qubit")
        phys = list(layout.values())
        _expect(len(set(phys)) == len(phys) and all(0 <= p < 7 for p in phys), "layout not injective on 7 qubits")
        routed = parse_circuit(doc["routed_circuit"])
        swaps = sum(1 for g, _, _ in routed if g == "SWAP")
        cnots = sum(1 for g, _, _ in routed if g == "CNOT")
        for gate, qubits, _ in routed:
            if len(qubits) == 2:
                _expect(frozenset(qubits) in edge_set, f"{gate} {qubits} is not on an edge of the graph")
        body = [(g, c) for g, _, c in routed if g != "SWAP"]
        _expect(body == [(g, c) for g, _, c in logical], "routed gates differ from the input circuit")
        cost = doc["cost"]
        _expect(cost["swap_count"] == swaps, "swap_count disagrees with the routed circuit")
        _expect(cost["cnot_count"] == cnots + 3 * swaps, "cnot_count disagrees with the routed circuit")
        _expect(cost["cnot_count"] == expected_cnots, "cnot_count differs from the reference")

    return check


def route_sources(seed: int) -> list:
    """(slot, circuit text, graph name) per op, in cycle order; the last
    slot is the experiment circuit on the casablanca graph."""
    rng = random.Random(f"route_mix/{seed}")
    sources = [(slot, random_circuit(slot, n, rng), graph) for slot, (n, graph) in enumerate(ROUTE_MIX)]
    sources.append((len(ROUTE_MIX), EXPERIMENT_TEXT, "casablanca"))
    rng.shuffle(sources)
    return sources


def route_cycle(seed: int, workdir: Path) -> list:
    expected = json.loads(ROUTE_REFERENCE.read_text())["cnot_count"]
    for name, edges in GRAPHS.items():
        (workdir / f"{name}.edges").write_text("".join(f"{u} {v}\n" for u, v in edges))
    ops = []
    for slot, text, graph in route_sources(seed):
        path = workdir / f"circuit_{slot}.txt"
        path.write_text(text)
        check = _check_route(text, GRAPHS[graph], expected[slot])
        argv = ("route", str(path), "--graph", str(workdir / f"{graph}.edges"))
        ops.append(Op(f"route_n{text.split()[1]}", argv, check))
    return ops


# Op kinds cheap enough to run once each, as a warm-up, before timing.
WARMUP_KINDS = {
    "tomography", "tomography_exact", "general_two_qubit", "cluster5",
    "two_bell_m1", "compare", "two_bell_m2", "route_n3",
}

CYCLES = {
    "paper_noisy": paper_cycle,
    "exact_protocols": exact_cycle,
    "route_mix": route_cycle,
}
