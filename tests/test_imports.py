"""Every name a package module imports is read somewhere in that module,
no module imports another package module's private (``_``-prefixed)
name, only ``__main__`` imports the CLI, only ``experiments`` defines the
paper experiment, only ``__init__`` and ``circuit`` define a module
``__getattr__``, every function the layer tracer wraps still exists and a
fresh tracer records both schemes, a fresh process loads no stdlib module
that only a record or log helper would need, and a fresh ``twobell run``
loads none of the package's on-first-use code.

No linter ships with the toolchain, so this walks each module's syntax
tree: an imported name that no ``Name`` node reads is unused.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twobell"

# Tracer targets whose functions are gone, so their metrics read 0.  This
# set may only shrink: a rename that silently zeroes a span must fail here.
KNOWN_DEAD_TARGETS = {
    ("qstate", "apply_kraus"),
    ("qstate", "apply_unitary_dm"),
    ("experiments", "post_correction_state"),
    ("experiments", "noisy_setting_distributions"),
    ("experiments", "repeat_noisy_fidelities"),
    ("experiments", "deterministic_noisy_fidelity"),
    ("experiments", "noisy_histogram"),
}

# (module, name) -> why the import stays although the module never reads it.
ALLOWED_UNUSED = {
    ("channels", "sample_distribution"): "perfbench/spans.py traces the sampler "
    "as channels.sample_distribution; without the import those metrics read 0",
    ("channels", "load_calibration"): "perfbench/spans.py times the calibration "
    "reader as channels.load_calibration; without the import channels.calibration "
    "times build_noise_model only",
}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom json import dumps, loads\nnp.zeros(dumps(1))\n"
    assert unused_imports(source) == ["loads", "os"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem,
)
def test_module_reads_every_name_it_imports(path):
    allowed = sorted(name for module, name in ALLOWED_UNUSED if module == path.stem)
    assert unused_imports(path.read_text()) == allowed


def private_imports(source: str) -> list:
    """The ``_``-prefixed names imported from a twobell module."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("twobell"))
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_private_imports_are_found():
    source = ("from __future__ import annotations\nfrom os import _exit\n"
              "from .qstate import _a, b\nfrom twobell.circuit import _c as c\n")
    assert private_imports(source) == ["_a", "_c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_no_private_name_of_another(path):
    assert private_imports(path.read_text()) == []


def imported_modules(source: str) -> set:
    """The modules an import in ``source`` may load, with the package's
    relative names made absolute: ``from . import cli`` and ``from .cli
    import main`` both name ``twobell.cli``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module if not node.level else ".".join(filter(None, ("twobell", node.module)))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_imported_modules_are_found():
    source = ("import os.path\nfrom . import cli\nfrom .config import load_config\n"
              "def f():\n    from twobell.textformat import to_text\n")
    assert {"os.path", "twobell.cli", "twobell.config", "twobell.textformat"} <= imported_modules(source)


def test_only_main_imports_the_cli():
    """The commands and the experiment's rules live below the CLI, never in it."""
    importers = [p.stem for p in sorted(SRC.glob("*.py"))
                 if "twobell.cli" in imported_modules(p.read_text())]
    assert importers == ["__main__"]


def test_cli_imports_no_engine_module():
    """The CLI reaches the calibration table, the noise channels and the
    circuit only through ``experiments`` and ``config``."""
    engine = {"twobell.calibration", "twobell.channels", "twobell.circuit"}
    assert imported_modules((SRC / "cli.py").read_text()) & engine == set()


def defined_names(source: str) -> set:
    """The names that a module's top level defines: its functions, classes and
    assigned names (imported names are not defined there)."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_defined_names_are_found():
    source = ("from .x import A\nB = 1\nC: int = 2\nD, (E, F) = 3, (4, 5)\n"
              "def g():\n    H = 6\nclass K:\n    L = 7\n")
    assert defined_names(source) == {"B", "C", "D", "E", "F", "g", "K"}


def test_only_experiments_defines_the_paper_experiment():
    """The paper experiment's circuit, legs, receiver qubits and output bits
    have one home, so no other module knows which qubits receive."""
    definers = [p.stem for p in sorted(SRC.glob("*.py"))
                if any(n == "experiment_circuit" or n.startswith("EXPERIMENT_")
                       for n in defined_names(p.read_text()))]
    assert definers == ["experiments"]


def test_only_init_and_circuit_define_a_module_getattr():
    """A module ``__getattr__`` forwards names that no binding holds, so a
    tracer that patches bindings cannot see them: only the package's lazy
    surface and ``circuit``'s text-format forward keep one."""
    definers = [p.stem for p in sorted(SRC.glob("*.py")) if "__getattr__" in defined_names(p.read_text())]
    assert definers == ["__init__", "circuit"]


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    dead = set()
    for module, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"twobell.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            dead.add((module, attr))
    assert dead == KNOWN_DEAD_TARGETS


def run_python(code: str, *args) -> str:
    """The stdout of ``python -c code args`` in a fresh process that imports
    the package from this checkout; it must exit 0 and write no stderr."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout


def test_tracer_wraps_both_schemes_in_a_fresh_process(tmp_path):
    """A tracer installed right after ``import twobell.cli`` records the
    cluster and general schemes that ``run`` and ``compare`` call."""
    out = run_python(
        "import importlib.util, sys\n"
        "import twobell.cli\n"
        "spec = importlib.util.spec_from_file_location('spans', sys.argv[1])\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "for argv in (['run', '--scheme', 'cluster5'], ['run', '--scheme', 'general_two_qubit'],\n"
        "             ['compare']):\n"
        "    assert twobell.cli.main([*argv, '--out', sys.argv[2]]) == 0, argv\n"
        "print(*sorted({span[0] for span in tracer.spans if span[0].startswith('protocols.')}))\n",
        ROOT / "perfbench" / "spans.py", tmp_path / "doc.json",
    )
    assert set(out.split()) >= {"protocols.cluster_channel_teleport",
                                "protocols.teleport_two_qubit_general"}


# Loaded by ``dataclasses`` (copy) and ``logging`` (string, traceback) only.
UNUSED_STDLIB = ("dataclasses", "logging", "copy", "traceback", "string")


def test_commands_load_no_record_or_log_helpers(tmp_path):
    values = tmp_path / "values.txt"
    values.write_text("80.1\n79.2\n81.5\n")
    out = run_python(
        "import sys\n"
        "from twobell import cli\n"
        "for argv in (['run', '--calibration', 'builtin', '--reps', '2'], ['route', sys.argv[1]],\n"
        "             ['stats', sys.argv[2]]):\n"
        "    assert cli.main([*argv, '--out', sys.argv[3]]) == 0, argv\n"
        f"print(*sorted(m for m in {UNUSED_STDLIB!r} if m in sys.modules))\n",
        ROOT / "tests" / "golden" / "route_default.circuit.txt", values, tmp_path / "doc.json",
    )
    assert out == "\n"


# Loaded on first use only: ``twobell run`` needs none of them.
ON_FIRST_USE = ("twobell.commands", "twobell.textformat")
# Defined in those modules only, so no module a ``twobell run`` loads compiles them.
ON_FIRST_USE_NAMES = ("to_text", "from_text", "numbered_lines", "parse_int", "load_coupling_graph",
                      "cmd_tomography", "cmd_stats", "cmd_route", "cmd_compare",
                      "histogram_csv", "packaged_fidelities_path")


def test_bare_import_and_run_load_no_on_first_use_code(tmp_path):
    out = run_python(
        "import sys\n"
        "import twobell\n"
        "print(*sorted(m for m in sys.modules if m.startswith('twobell.')))\n"
        "from twobell import cli\n"
        "assert cli.main(['run', '--calibration', 'builtin', '--reps', '2', '--out', sys.argv[1]]) == 0\n"
        f"print(*sorted(m for m in {ON_FIRST_USE!r} if m in sys.modules))\n"
        "defined = {n for m, v in list(sys.modules.items()) if m.startswith('twobell') for n in vars(v)}\n"
        f"print(*sorted(defined & set({ON_FIRST_USE_NAMES!r})))\n",
        tmp_path / "doc.json",
    )
    assert out == "\n\n\n"


# Every name that ``twobell`` exported when its ``__init__`` imported each module.
PACKAGE_NAMES = (
    "Circuit", "from_text", "run_exact", "sample_counts", "to_text",
    "GeneralizedBellTypeState", "ResourceReport", "TeleportBranch", "cluster_channel_teleport",
    "compress_ghz_class", "experiment_circuit", "multi_output_teleport", "prepare_cluster5",
    "teleport_two_qubit_general",
    "DensityMatrix", "StateVector", "apply_unitary", "basis_state", "hermitian_sqrt",
    "partial_trace", "plus_state", "tensor", "to_density",
    "CalibrationRecord", "DurationConfig", "NoiseModel", "build_noise_model", "load_calibration",
    "FidelityStats", "fidelity", "fidelity_stats", "pure_fidelity", "reconstruct", "trace_distance",
    "CouplingGraph", "CostReport", "casablanca_topology", "cost", "route",
)


def test_lazy_package_surface_serves_every_name():
    import twobell

    assert sorted(twobell.__all__) == sorted(PACKAGE_NAMES)
    listed = dir(twobell)
    for name in PACKAGE_NAMES:
        namespace = {}
        exec(f"from twobell import {name} as value", namespace)
        value = namespace["value"]
        assert value is getattr(sys.modules[value.__module__], name), name
        assert name in listed, name
    assert "__version__" in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        twobell.no_such_name


def test_route_logs_when_logging_is_imported_after_the_package():
    """``route`` looks for ``logging`` when it is called, not when
    ``twobell.transpile`` is imported."""
    out = run_python(
        "import sys\n"
        "from twobell.transpile import casablanca_topology, route\n"
        "import logging\n"
        "logging.basicConfig(level=logging.DEBUG, stream=sys.stdout)\n"
        "from twobell.experiments import experiment_circuit\n"
        "route(experiment_circuit(measure_outputs=False), casablanca_topology())\n"
    )
    assert out == ("DEBUG:twobell.transpile:route: 3 layouts enumerated, 1 routed (0 cut short), "
                   "chose cnot_count=4 depth=5\n")
