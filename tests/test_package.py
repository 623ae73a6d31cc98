"""The package namespace: every name it exports must resolve, every
function in it runs in a CLI run or is named below with its reason, and no
run imports what it does not use."""
import ast
import os
import subprocess
import sys
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
    "statevec.GateOp.__post_init__",
    "statevec.gate_matrix",
    "statevec._check_qubit",
    "statevec.apply_gate",
    "statevec._ry_matrix",
    "statevec._rz_matrix",
    "statevec._rot_matrix",
    "statevec.expectation",
    "statevec.measure_qubits",
    "statevec._check_targets",
    # The Born-rule kernel behind measure_qubits, which the teleport tests
    # replay as the reference for teleport_state's measurement on halves.
    "statevec._born_measure",
    "statevec._bit_sides",
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
