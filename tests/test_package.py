"""The package namespace: it exports exactly the names callers read from it,
every one resolves, every function in it runs in a CLI run or is named below
with its reason, and no run imports what it does not use."""
import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import qfedring
from qfedring import cli, statevec, vqc

PACKAGE = Path(qfedring.__file__).parent

# Functions that no default-shaped CLI run calls, each with its reason.
NOT_RUN = {
    # CLI paths a single run skips: errors, config files, compare mode, the dump.
    "cli._Parser.error",
    "cli._load_config_file",
    "cli.config_from_file",
    "cli.compare",
    "datagen.dump_csv",
    # Library baselines the acceptance criteria train against.
    "fedring.run_hubspoke",
    "fedring.average_models",
    "fedring._fsum_mean",
    "fedring.centralized_train",
    # teleport_state(force_outcome=), and a failed channel use.
    "statevec._forcing_rule",
    "statevec._forcing_rule.pick",
    "teleport.TransferError.__init__",
    # Bound by perfbench/spans.py by module attribute.
    "qweights.encode_weight",
    "statevec.apply_gate",
    "statevec.expectation",
    "statevec.measure_qubits",
    "statevec._check_targets",
    # The Born-rule kernel behind measure_qubits, which the teleport tests
    # replay as the reference for teleport_state's measurement on halves.
    "statevec._born_measure",
    # The numpy form the channel's scalar one is tested against: runs build
    # their one-qubit states with statevec._qubit.
    "statevec.StateVector.__post_init__",
    # Called once at import, for qweights' RX(pi/2) constant.
    "statevec._rx_matrix",
}

RUNS = (
    ["--model", "cfl"],
    ["--model", "qfl-classical"],
    ["--model", "qfl-quantum", "--transport", "copy"],
    ["--model", "qfl-quantum", "--transport", "teleport"],
)


def test_every_exported_name_resolves():
    # A class deleted from its module but left in __all__ breaks
    # ``from qfedring import *`` for every user, so it fails here instead.
    namespace: dict = {}
    exec("from qfedring import *", namespace)
    assert sorted(set(qfedring.__all__) - set(namespace)) == []


def names_read_from_the_package() -> set:
    """Package-level names that code outside src/ and tests/ reads, as
    ``qfedring.<name>`` or ``from qfedring import <name>``; modules excluded."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    root = Path(__file__).resolve().parents[1]
    read = set()
    for path in root.rglob("*.py"):
        parts = path.relative_to(root).parts
        if parts[0] in ("src", "tests") or any(part.startswith(".") for part in parts):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "qfedring"):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "qfedring":
                read.update(alias.name for alias in node.names)
    return {name for name in read if name not in modules and not name.startswith("__")}


def test_the_namespace_exports_only_what_a_caller_reads():
    # Callers import from the modules; a name the package re-exports that no
    # one reads from it is a second path to the same object.
    read = names_read_from_the_package()
    assert sorted(qfedring.__all__) == sorted(read)
    exported = {name for name, value in vars(qfedring).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == read


def defined_functions() -> dict:
    """(file, first line) of every function in the package -> module.qualname."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def test_every_function_runs_or_is_listed(tmp_path, capsys):
    """The four variants' CLI runs, profiled, call every function but NOT_RUN."""
    # An earlier test may have filled a cache, and a cache hit calls nothing.
    for module in (statevec, vqc):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    for index, run in enumerate(RUNS):
        argv = [*run, "--rounds", "1", "--num-points", "200", "--out", str(tmp_path / f"{index}.csv")]
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(previous)
        assert code == 0, capsys.readouterr().err
    never = {name for key, name in defined_functions().items() if key not in called}
    assert never == NOT_RUN


def test_no_run_imports_numpy_ma(tmp_path):
    """The four variants' CLI runs leave numpy's masked-array package
    unimported: no run uses it, and loading it costs each fresh process about
    15 ms and 1 MB.  A fresh interpreter, because pytest's imports may load it."""
    script = "\n".join([
        "import sys",
        "from qfedring import cli",
        f"for index, run in enumerate({RUNS!r}):",
        "    argv = [*run, '--rounds', '1', '--num-points', '200', '--out', f'{index}.csv']",
        "    assert cli.main(argv) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
