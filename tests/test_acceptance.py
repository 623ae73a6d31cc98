"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line with its measured numbers.  Criteria cover gradient correctness, exact
shift-rule derivatives, teleportation fidelity, simulator conservation,
degenerate-ring and transport equivalences, the hub-spoke oracle, end-to-end
learning quality, and byte-level determinism."""
import hashlib
import importlib.util
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qfedring import cli
from qfedring import datagen as dg
from qfedring import fedring as fr
from qfedring import qweights as qw
from qfedring import statevec as sv
from qfedring import teleport as tp
from qfedring import trainkit as tk
from qfedring import vqc
from tests import oracle
from tests.helpers import random_state
from tests.test_statevec import random_gate


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def _within(err, fd):
    return abs(err) <= max(1e-5, 1e-4 * abs(fd))


def test_criterion_1_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(2024)
    eps = 1e-5
    worst = 0.0
    failures = 0
    start = time.perf_counter()

    def check(value_fn, grad, params):
        nonlocal worst, failures
        for idx in np.ndindex(*params.shape):
            plus = np.array(params)
            minus = np.array(params)
            plus[idx] += eps
            minus[idx] -= eps
            fd = (value_fn(plus) - value_fn(minus)) / (2 * eps)
            err = grad[idx] - fd
            worst = max(worst, abs(err))
            if not _within(err, fd):
                failures += 1

    for trial in range(20):
        layers = 1 + trial % 3
        x = rng.uniform(0, math.pi, 2)
        label = int(rng.integers(2))

        # (a) circuit classifier with classical parameters
        model = vqc.VqcModel(rng.uniform(-math.pi, math.pi, (layers, 2, 3)))
        _, dlogits = oracle.loss_and_grad(oracle.forward(model, x), label)
        grad = oracle.gradient(model, x, dlogits)
        check(
            lambda p: oracle.loss_and_grad(oracle.forward(vqc.VqcModel(p), x), label)[0],
            grad,
            model.params,
        )

        # (b) quantum-held weights composed through the readout
        store = qw.QuantumWeightStore(
            rng.uniform(-math.pi + 0.1, math.pi - 0.1, (layers, 2, 3)), math.pi
        )
        eff = qw.materialize(store)
        _, dlogits = oracle.loss_and_grad(oracle.forward(vqc.VqcModel(eff), x), label)
        cg = oracle.gradient(vqc.VqcModel(eff), x, dlogits)
        grad = qw.weight_gradient(store, cg)

        def store_loss(angles, _store=store, _x=x, _label=label):
            eff = qw.materialize(qw.QuantumWeightStore(angles, _store.gamma))
            return oracle.loss_and_grad(oracle.forward(vqc.VqcModel(eff), _x), _label)[0]

        check(store_loss, grad, store.angles)

        # (c) classical MLP baseline
        mlp = tk.init_mlp(rng)
        feats = rng.normal(size=2)
        _, grad = oracle.mlp_forward_backward(mlp.params, feats, label)

        def mlp_loss(params, _f=feats, _label=label):
            return oracle.mlp_forward_backward(params, _f, _label)[0]

        check(mlp_loss, grad, mlp.params)

    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    _report(
        capsys, 1,
        ok,
        f"20 configs x 3 model families, worst gradient error {worst:.3e}, "
        f"{failures} components out of tolerance, {elapsed:.1f}s",
    )


def test_criterion_2_shift_rule_is_exact(capsys):
    import sympy as sp

    a, phi, theta, omega = sp.symbols("a phi theta omega", real=True)

    def rz(t):
        return sp.Matrix([[sp.exp(-sp.I * t / 2), 0], [0, sp.exp(sp.I * t / 2)]])

    def ry(t):
        return sp.Matrix([[sp.cos(t / 2), -sp.sin(t / 2)], [sp.sin(t / 2), sp.cos(t / 2)]])

    def rxm(t):
        return sp.Matrix(
            [[sp.cos(t / 2), -sp.I * sp.sin(t / 2)], [-sp.I * sp.sin(t / 2), sp.cos(t / 2)]]
        )

    psi = rz(omega) * ry(theta) * rz(phi) * rxm(a) * sp.Matrix([1, 0])
    expect = sp.re((psi.H * sp.Matrix([[1, 0], [0, -1]]) * psi)[0, 0])
    symbols = (a, phi, theta, omega)
    derivatives = [
        sp.lambdify(symbols, sp.diff(sp.expand(expect), s), "math") for s in symbols
    ]

    def measured_z(values):
        state = sv.apply_gate(oracle.zero_state(1), *oracle.rx(0, values[0]))
        state = sv.apply_gate(state, *oracle.rot(0, values[1], values[2], values[3]))
        return sv.expectation(state, 0)

    rng = np.random.default_rng(555)
    worst = 0.0
    checks = 0
    for _ in range(25):
        values = rng.uniform(-math.pi, math.pi, 4)
        for k in range(4):
            plus = np.array(values)
            minus = np.array(values)
            plus[k] += vqc.SHIFT
            minus[k] -= vqc.SHIFT
            shift_value = vqc.SHIFT_COEFFICIENT * (measured_z(plus) - measured_z(minus))
            analytic = derivatives[k](*values)
            worst = max(worst, abs(shift_value - analytic))
            checks += 1
    ok = checks == 100 and worst <= 1e-9
    _report(
        capsys, 2,
        ok,
        f"shift rule vs analytic derivative over {checks} random angles, "
        f"worst gap {worst:.3e}",
    )


def test_criterion_3_teleportation(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(777)

    worst_fid = 0.0
    for _ in range(100):
        message = random_state(rng, 1)
        for outcome in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            record = tp.teleport_state(message, force_outcome=outcome)
            worst_fid = max(worst_fid, abs(record.fidelity - 1.0))

    angles = rng.uniform(-math.pi + 1e-3, math.pi, size=(2, 2, 3))
    store = qw.QuantumWeightStore(angles, math.pi)
    moved = tp.teleport_weights(store, rng)
    worst_angle = float(np.max(np.abs(moved.angles - store.angles)))

    message = sv.apply_gate(oracle.zero_state(1), *oracle.rx(0, 1.1))
    counts = {o: 0 for o in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    trials = 10_000
    for _ in range(trials):
        counts[tp.teleport_state(message, rng=rng).bell_outcome] += 1
    worst_freq = max(abs(c / trials - 0.25) for c in counts.values())

    elapsed = time.perf_counter() - start
    ok = (
        worst_fid <= 1e-10
        and worst_angle <= 1e-9
        and worst_freq <= 0.02
        and elapsed < 10.0
    )
    _report(
        capsys, 3,
        ok,
        f"fidelity gap {worst_fid:.2e} over 400 forced branches, round-trip angle "
        f"gap {worst_angle:.2e}, outcome frequency gap {worst_freq:.4f} over "
        f"{trials} samples, {elapsed:.1f}s",
    )


def test_criterion_4_norm_conservation(capsys):
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(100):
        state = random_state(rng, 4)
        for _ in range(100):
            state = sv.apply_gate(state, *random_gate(rng, 4))
        worst = max(worst, abs(np.linalg.norm(state.amplitudes) - 1.0))
    ok = worst <= 1e-9
    _report(
        capsys, 4,
        ok,
        f"norm drift {worst:.3e} after 100 trials of 100-gate random 4-qubit circuits",
    )


def test_criterion_5_one_client_ring_equals_centralized(capsys):
    feats, labels = dg.make_circles(240, noise=0.1, factor=0.5, seed=[42, 0])
    ds = dg.scale_and_split(feats, labels, 0.8, seed=[42, 1])
    init_rng = lambda: np.random.default_rng([42, 3])
    variants = {
        "cfl": tk.init_mlp(init_rng()),
        "qfl-classical": vqc.init_model(init_rng(), 2),
        "qfl-quantum": qw.init_store(init_rng(), 2, math.pi),
    }
    mismatches = []
    for name, init in variants.items():
        clients = fr.make_clients(
            ds.train_features, ds.train_labels, 1, init,
            partition_seed=[42, 2], client_seed=42, learning_rate=0.02,
        )
        schedule = fr.RingSchedule(1, 5, 2, fr.Transport.CLASSICAL_COPY)
        ring_model, _ = fr.run_ring(
            schedule, clients, ds.test_features, ds.test_labels, batch_size=32
        )
        central_model, _ = fr.centralized_train(
            init,
            clients[0].features,
            clients[0].labels,
            rng=np.random.default_rng([42, fr._CLIENT_STREAM, 0]),
            optimizer=tk.SgdOptimizer(0.02),
            epochs=10,
            batch_size=32,
        )
        if isinstance(init, qw.QuantumWeightStore):
            same = np.array_equal(ring_model.angles, central_model.angles)
        else:  # a circuit or the MLP: one params array
            same = np.array_equal(ring_model.params, central_model.params)
        if not same:
            mismatches.append(name)
    ok = not mismatches
    _report(
        capsys, 5,
        ok,
        "K=1 ring bit-identical to centralized over R=5, E=2 for all three variants"
        if ok
        else f"mismatched variants: {mismatches}",
    )


def test_criterion_6_teleport_transport_equals_copy(capsys):
    base = dict(model="qfl-quantum", rounds=10)
    dataset = cli.build_dataset(cli.ExperimentConfig(**base))
    results = {}
    for transport in ("copy", "teleport"):
        config = cli.ExperimentConfig(**base, transport=transport)
        _, metrics, _ = cli.run_single(config, dataset)
        results[transport] = metrics
    worst = 0.0
    for a, b in zip(results["copy"], results["teleport"]):
        worst = max(
            worst,
            abs(a.mean_train_loss - b.mean_train_loss),
            abs(a.test_accuracy - b.test_accuracy),
        )
    ok = worst <= 1e-9
    _report(
        capsys, 6,
        ok,
        f"teleport vs copy per-round metric gap {worst:.3e} over R=10",
    )


def test_criterion_7_hubspoke_average_oracle(capsys):
    feats, labels = dg.make_circles(240, noise=0.1, factor=0.5, seed=3)
    ds = dg.scale_and_split(feats, labels, 0.8, seed=4)
    init = vqc.init_model(np.random.default_rng(5), 2)
    clients = fr.make_clients(
        ds.train_features, ds.train_labels, 3, init, partition_seed=6, client_seed=7,
        learning_rate=0.02,
    )
    schedule = fr.RingSchedule(3, 1, 2, fr.Transport.CLASSICAL_COPY)
    global_model, _ = fr.run_hubspoke(
        schedule, clients, ds.test_features, ds.test_labels, batch_size=32
    )

    trained = []
    for cid in range(3):
        c = fr.ClientState(
            cid,
            clients[cid].features,
            clients[cid].labels,
            init,
            np.random.default_rng([7, fr._CLIENT_STREAM, cid]),
            tk.SgdOptimizer(0.02),
        )
        fr.local_train(c, epochs=2, batch_size=32)
        trained.append(c.model)
    want = fr._fsum_mean([m.params for m in trained])
    mean_gap = float(np.max(np.abs(global_model.params - want)))

    base = fr.average_models(trained)
    permutation_stable = all(
        np.array_equal(
            base.params,
            fr.average_models([trained[i] for i in order]).params,
        )
        for order in ([2, 0, 1], [1, 2, 0], [2, 1, 0])
    )
    ok = mean_gap <= 1e-12 and permutation_stable
    _report(
        capsys, 7,
        ok,
        f"server average vs independent mean gap {mean_gap:.2e}, "
        f"client-order permutations bitwise stable: {permutation_stable}",
    )


# sha256 of each default run's metrics CSV: a commit that changes what a
# default run computes must update its pin here, in the same commit.
DEFAULT_CSV_SHA256 = {
    "cfl": "b2606154301a90a631e9f4f4b4aad5f387c753966e4393e81c32fc036083ce5b",
    "qfl-classical": "78531199aa5fc0fb002df05c327e455ddfb579fa8350d508aba6badbcea02b17",
    "qfl-quantum": "b6e62a777be3054f356820ba838bae2545061e61d4ced9da5efa5ac053a52707",
}

JOB = Path(__file__).resolve().parents[1] / "perfbench" / "job.py"


def load_job():
    spec = importlib.util.spec_from_file_location("perfbench_job", JOB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of the metrics CSV of the teleport-handoff benchmark workload's shape
# (24 clients, 1 local epoch, batch 64) at 5 rounds; the copy transport writes
# the same bytes.  A commit that changes it must update the pin in the same commit.
# The flags are the benchmark's own; a later --transport or --rounds wins.
HANDOFF_FLAGS = (*load_job().WORKLOADS["teleport-handoff"]["flags"], "--rounds", "5")
HANDOFF_CSV_SHA256 = "c71aa3246a0312a439a41c7e7b82fb195149da7318ce5c61098cc26d7df74300"


@pytest.mark.parametrize("transport", ["teleport", "copy"])
def test_handoff_shape_is_pinned(transport):
    config = cli.parse_config([*HANDOFF_FLAGS, "--transport", transport])
    _, metrics, _ = cli.run_single(config, cli.build_dataset(config))
    csv_sha256 = hashlib.sha256(cli.metrics_csv_text(metrics).encode()).hexdigest()
    assert csv_sha256 == HANDOFF_CSV_SHA256


@pytest.mark.slow
def test_criterion_8_end_to_end_learning(capsys):
    summary = []
    failures = []
    max_elapsed = 0.0
    for model_name in cli.MODELS:
        config = cli.ExperimentConfig(model=model_name)  # K=3, R=100, E=5, seed 42
        dataset = cli.build_dataset(config)
        if dataset.train_labels.size != 960 or dataset.test_labels.size != 240:
            failures.append(f"{model_name}: unexpected split sizes")
        start = time.perf_counter()
        _, metrics, _ = cli.run_single(config, dataset)
        elapsed = time.perf_counter() - start
        max_elapsed = max(max_elapsed, elapsed)
        csv_sha256 = hashlib.sha256(cli.metrics_csv_text(metrics).encode()).hexdigest()
        if csv_sha256 != DEFAULT_CSV_SHA256[model_name]:
            failures.append(f"{model_name}: metrics CSV sha256 {csv_sha256} is not the pinned one")
        accs = [m.test_accuracy for m in metrics]
        final = accs[-1]
        conv = cli.convergence_round(accs)
        summary.append(f"{model_name} {final:.3f}@r{conv} ({elapsed:.0f}s)")
        if final < 0.85:
            failures.append(f"{model_name}: final accuracy {final:.3f} < 0.85")
        # On seeds 1-8 the noisy defaults converged at rounds 1-9 for the
        # circuit models and 9-15 for cfl.  The bands leave room for other
        # seeds; a convergence round can never precede round 1.
        band = (5, 45) if model_name == "cfl" else (1, 40)
        if not band[0] <= conv <= band[1]:
            failures.append(f"{model_name}: convergence round {conv} outside {band}")
        if elapsed > 300.0:
            failures.append(f"{model_name}: {elapsed:.0f}s exceeds the 5-minute budget")

        clean_config = cli.ExperimentConfig(model=model_name, noise=0.0)
        clean_final = [
            m.test_accuracy
            for m in cli.run_single(clean_config, cli.build_dataset(clean_config))[1]
        ][-1]
        summary.append(f"{model_name}[noiseless] {clean_final:.3f}")
        if clean_final < 1.0:
            failures.append(
                f"{model_name}: noiseless accuracy {clean_final:.3f} did not reach 1.0"
            )
    ok = not failures
    _report(
        capsys, 8,
        ok,
        "; ".join(summary) if ok else "; ".join(failures),
    )


def test_criterion_9_reruns_are_byte_identical(capsys, tmp_path):
    mismatched = []
    for name, argv in {
        "cfl": ["--model", "cfl", "--rounds", "5"],
        "qfl-quantum/teleport": [
            "--model", "qfl-quantum", "--transport", "teleport", "--rounds", "5",
        ],
    }.items():
        first = tmp_path / f"{name.split('/')[0]}-a.csv"
        second = tmp_path / f"{name.split('/')[0]}-b.csv"
        assert cli.main([*argv, "--out", str(first)]) == 0
        assert cli.main([*argv, "--out", str(second)]) == 0
        if first.read_bytes() != second.read_bytes():
            mismatched.append(name)
    ok = not mismatched
    _report(
        capsys, 9,
        ok,
        "identical configs reproduce metrics CSVs byte for byte"
        if ok
        else f"CSV mismatch for: {mismatched}",
    )
