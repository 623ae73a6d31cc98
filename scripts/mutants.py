#!/usr/bin/env python3
"""Mutation probes: show that the bit-equality and refusal tests can still fail.

Each entry of ``MUTANTS`` is a file under ``src/``, an old text that occurs
in it exactly once, the new text that replaces it, and the test node ids
that must then fail.  For each entry the script copies ``src/`` to a
temporary directory, applies the mutant there and runs only the named tests
against that copy.  The mutant is killed when pytest reports a failed test
(exit status 1) and survives when the tests pass; any other outcome, or an
old text that no longer occurs exactly once, is an error.  The working tree
is never changed.

    python scripts/mutants.py

It prints one line per mutant, then ``killed / total``, and exits 0 only
when every mutant is killed.  Each mutant costs one pytest start, so this
runs beside the test suite, not in it; ``tests/test_mutants.py`` checks in
the suite that each old text still occurs once and each named test exists.
Standard library and pytest only.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


REGISTER = "tests/test_teleport.py::TestScalarChannelIsBitEqual::test_register_matches_numpy_on_every_branch"
LOSS_BITS = "tests/test_trainkit.py::TestLoss::test_batch_is_bit_equal_to_the_reference"
RX_Z_BITS = "tests/test_qweights.py::TestRxZ::test_bit_equal_to_the_carrier_readout"
EDGE_VALUES = "tests/test_setting_rules.py::test_edge_values_pass"
FRACTIONS = "tests/test_setting_rules.py::test_fraction_refused_by_the_one_rule"
NUMBER_RULE = "tests/test_number_rule.py::test_refused_by_name"
GENERATOR_RULE = "tests/test_setting_rules.py::test_generator_refused_by_the_one_rule"
GATE_REFUSALS = "tests/test_statevec.py::TestGates::test_apply_refuses_a_bad_gate"
CLIENT_REFUSALS = "tests/test_fedring.py::TestClientRefusals::test_refused_before_any_step"
CIRCUIT_STEP_CONTRACT = "tests/test_bench_contract.py::test_step_calls_each_traced_binding_once[circuit]"
STORE_STEP_CONTRACT = "tests/test_bench_contract.py::test_step_calls_each_traced_binding_once[store]"
STEP_RULE = "tests/test_trainkit.py::TestModelDispatch::test_step_builds_a_checked_read_only_copy"
STORE_STEP = "tests/test_qweights.py::TestStore::test_step_keeps_gamma_and_checks_angles"
HAND_OFF = "tests/test_teleport.py::TestTeleportWeights::test_hand_off_keeps_gamma_and_checks_angles"
HAND_OFF_KIND = ("tests/test_teleport.py::TestTeleportWeights::"
                 "test_refuses_a_model_that_is_not_a_store_before_any_carrier_or_draw")
STATES_RULE = "tests/test_vqc.py::TestEncode::test_the_states_rule_refuses_by_name"

# The register's two amplitudes (a, b) of each half, |0..> then |1..>, each
# written as 0j + _H?? * p?.
_AMPLITUDES = ["_H00 * p0", "_H01 * p1", "_H10 * p0", "_H11 * p1"]
QUBIT_PARITY = "tests/test_statevec.py::TestQubit::test_refuses_and_passes_as_the_constructor"

MUTANTS = (
    # The teleport channel's Bell measurement on the register's halves.
    Mutant("measurement: second scale dropped", "qfedring/teleport.py",
           "zero, one = a * s2, b * s2", "zero, one = a, b", (REGISTER,)),
    Mutant("measurement: halves swapped", "qfedring/teleport.py",
           "if not m1:\n        a, b", "if m1:\n        a, b", (REGISTER,)),
    Mutant("measurement: qubit 0's p1 not summed in index order", "qfedring/teleport.py",
           "0.0 + aa + bb + bb + aa", "0.0 + 2 * (aa + bb)", (REGISTER,)),
    *(
        Mutant(f"register: amplitude {index} without 0j +", "qfedring/teleport.py",
               f"0j + {amplitude}", amplitude, (REGISTER,))
        for index, amplitude in enumerate(_AMPLITUDES)
    ),
    Mutant("fidelity: message amplitudes not conjugated", "qfedring/teleport.py",
           "c0.conjugate() * zero + c1.conjugate() * one", "c0 * zero + c1 * one",
           ("tests/test_teleport.py::TestTeleportState::test_forced_branches_match_gate_by_gate",)),
    # The Born kernel the channel's measurement on halves is held to.
    Mutant("_born_measure: the other side kept", "qfedring/statevec.py",
           "& 1 == outcome else 0j", "& 1 != outcome else 0j",
           (REGISTER, "tests/test_statevec.py::TestMeasurement::test_kernel_matches_enumerated_oracle")),
    # The amplitude rule StateVector and _qubit share, and what each hands it.
    Mutant("amplitude rule: norm below 1 taken as normalized", "qfedring/statevec.py",
           "abs(norm - 1.0) > _NORM_TOL", "norm - 1.0 > _NORM_TOL",
           ("tests/test_statevec.py::TestStateVector::test_norm_tolerance_edge",)),
    Mutant("_qubit: |c1|^2 without its imaginary part", "qfedring/statevec.py",
           "+ (c1.real * c1.real + c1.imag * c1.imag)", "+ (c1.real * c1.real)",
           (QUBIT_PARITY,)),
    Mutant("StateVector: text amplitudes parsed", "qfedring/statevec.py",
           'not in "biufc"', 'not in "biufcSU"',
           ("tests/test_statevec.py::TestStateVector::test_refuses_non_number_amplitudes",)),
    # One rule per kind, and one readout rule at every entry point.  A step or a
    # hand-off builds its next model with the kind's one constructor, which
    # applies the rule and keeps a store's gamma as it is.
    Mutant("QuantumWeightStore.step: gamma not handed on", "qfedring/qweights.py",
           "QuantumWeightStore(angles, self.gamma)", "QuantumWeightStore(angles, math.pi)",
           (STORE_STEP,)),
    Mutant("teleport_weights: gamma not handed on", "qfedring/teleport.py",
           "reshape(shape), store.gamma)", "reshape(shape), math.pi)", (HAND_OFF,)),
    Mutant("teleport_weights: any model kind taken", "qfedring/teleport.py",
           "if not isinstance(store, QuantumWeightStore):", "if False:", (HAND_OFF_KIND,)),
    Mutant("ClassicalMlp.__init__: non-finite params pass", "qfedring/trainkit.py",
           'check_floats(params, "params")', 'check_floats(np.nan_to_num(params), "params")',
           (f"{STEP_RULE}[mlp]",)),
    Mutant("ClassicalMlp.__init__: the read-only flag dropped", "qfedring/trainkit.py",
           'object.__setattr__(self, "params", p)', 'object.__setattr__(self, "params", p.copy())',
           (f"{STEP_RULE}[mlp]",)),
    Mutant("VqcModel.__init__: non-finite params pass", "qfedring/vqc.py",
           '_layer_angles(params, "params"))', '_layer_angles(np.nan_to_num(params), "params"))',
           (f"{STEP_RULE}[circuit]",)),
    Mutant("VqcModel.__init__: the read-only flag dropped", "qfedring/vqc.py",
           '_layer_angles(params, "params"))', '_layer_angles(params, "params").copy())',
           (f"{STEP_RULE}[circuit]",)),
    Mutant("QuantumWeightStore.__init__: non-finite angles pass", "qfedring/qweights.py",
           '_layer_angles(angles, "angles"))', '_layer_angles(np.nan_to_num(angles), "angles"))',
           (STORE_STEP, HAND_OFF)),
    Mutant("QuantumWeightStore.__init__: the read-only flag dropped", "qfedring/qweights.py",
           '_layer_angles(angles, "angles"))', '_layer_angles(angles, "angles").copy())',
           (STORE_STEP, HAND_OFF)),
    # No second constructor: nothing but statevec._qubit calls object.__new__.
    Mutant("sgd_step_mlp: the next model built through object.__new__", "qfedring/trainkit.py",
           "    return ClassicalMlp(opt.step(model.params, grad))\n",
           "    stepped = object.__new__(ClassicalMlp)\n"
           "    stepped.__init__(opt.step(model.params, grad))\n"
           "    return stepped\n",
           ("tests/test_package.py::test_only_qubit_builds_without_a_constructor",)),
    # Each experiment default lives only in cli.ExperimentConfig; with init=False
    # the store's signature is its __init__'s.
    Mutant("QuantumWeightStore: gamma defaults to pi again", "qfedring/qweights.py",
           "def __init__(self, angles, gamma: float)",
           "def __init__(self, angles, gamma: float = math.pi)",
           ("tests/test_setting_rules.py::test_only_the_config_gives_a_setting_a_default",)),
    Mutant("evaluate: readout not checked", "qfedring/trainkit.py",
           "    check_readout(model)\n    scores", "    scores",
           ("tests/test_fedring.py::TestMakeClients::test_circuits_need_two_qubits",)),
    # One generator rule for every sampled measurement, called before any work.
    Mutant("check_generator: a RandomState passes", "qfedring/datagen.py",
           "isinstance(rng, np.random.Generator)",
           "isinstance(rng, (np.random.Generator, np.random.RandomState))", (GENERATOR_RULE,)),
    Mutant("teleport_weights: the rng not refused up front", "qfedring/teleport.py",
           '    check_generator(rng, "rng")\n    shape', "    shape",
           ("tests/test_teleport.py::TestTeleportWeights::"
            "test_refuses_a_non_generator_before_any_carrier_or_draw",)),
    Mutant("teleport_state: the rng not checked", "qfedring/teleport.py",
           '    if pick is None:\n        check_generator(rng, "rng")\n', "", (GENERATOR_RULE,)),
    Mutant("teleport_state: a forced call needs an rng", "qfedring/teleport.py",
           "if pick is None:\n        check_generator", "if True:\n        check_generator",
           ("tests/test_teleport.py::TestTeleportState::test_forced_call_needs_no_rng",)),
    Mutant("run_ring: the channel rng not checked before training", "qfedring/fedring.py",
           '        datagen.check_generator(channel_rng, "channel_rng")\n', "",
           ("tests/test_fedring.py::TestRunRing::"
            "test_teleport_refuses_a_bad_channel_rng_before_any_client_trains",)),
    Mutant("measure_qubits: the rng not checked", "qfedring/statevec.py",
           '    check_generator(rng, "rng")\n    _check_targets', "    _check_targets",
           (GENERATOR_RULE,)),
    Mutant("check_generator: the value shown by its repr again", "qfedring/datagen.py",
           "got {shown}", "got {rng!r}", (GENERATOR_RULE,)),
    # A client's stream and optimizer, checked before its first step.
    Mutant("_check_client: the client's rng not checked", "qfedring/fedring.py",
           """    datagen.check_generator(client.rng, f"{owner}'s rng")\n""", "",
           (CLIENT_REFUSALS, GENERATOR_RULE)),
    Mutant("_check_client: the optimizer not checked", "qfedring/fedring.py",
           "    if not isinstance(client.optimizer, SgdOptimizer):", "    if False:",
           (CLIENT_REFUSALS,)),
    Mutant("_check_clients: clients not checked before any trains", "qfedring/fedring.py",
           "    for client in clients:\n        _check_client(client)\n", "",
           ("tests/test_fedring.py::TestClientRefusals::"
            "test_the_ring_names_the_client_that_holds_it",)),
    Mutant("run_ring: a failed hand-off loses its weight index", "qfedring/fedring.py",
           "-> {exc}\", exc.weight_index", "-> {exc}\", None",
           ("tests/test_fedring.py::TestRunRing::"
            "test_failed_hand_off_names_its_round_sender_and_weight",)),
    # The in-branch early return of the angle wrap, and the one-shift label test.
    Mutant("canonical_angles: -pi taken as in branch", "qfedring/qweights.py",
           "initial=math.inf) > -math.pi", "initial=math.inf) >= -math.pi",
           ("tests/test_qweights.py::TestCanonicalAngles::test_bit_equal_to_the_mod_where_form",)),
    Mutant("check_labels: 2 and 3 pass as labels", "qfedring/datagen.py",
           "axis=None)) >> 1", "axis=None)) >> 2",
           ("tests/test_sample_contract.py::test_check_labels_matches_the_elementwise_shift_rule",)),
    # <Z> of the stored weights' carriers.
    Mutant("_rx_z: (c - s) * (c + s)", "qfedring/qweights.py",
           "return c * c - s * s", "return (c - s) * (c + s)", (RX_Z_BITS,)),
    Mutant("_rx_z: cos(a)", "qfedring/qweights.py",
           "return c * c - s * s", "return np.cos(np.asarray(angles, dtype=float))", (RX_Z_BITS,)),
    # A store step moves the circuit gamma^2 sin^2(a) times as far as a circuit step.
    Mutant("weight_gradient: gamma dropped", "qfedring/qweights.py",
           "return cg * store.gamma * (", "return cg * (",
           ("tests/test_qweights.py::TestGradient::"
            "test_store_step_moves_the_circuit_gamma_squared_sine_squared_as_far",)),
    # The engine reads states: encode is the one way in, row by row, and the
    # states rule refuses by name what encode could not have made.
    Mutant("states rule: the finiteness test dropped", "qfedring/vqc.py",
           "if not np.logical_and.reduce(np.isfinite(s), axis=None):", "if False:",
           (f"{STATES_RULE}[nan]", f"{STATES_RULE}[inf]")),
    Mutant("states rule: the width test dropped", "qfedring/vqc.py",
           "s.ndim != 2 or s.shape[1] != 2**n", "s.ndim != 2",
           (f"{STATES_RULE}[narrow]", f"{STATES_RULE}[wide]")),
    Mutant("encode: the qubit count not checked", "qfedring/vqc.py",
           '    check_count(num_qubits, "num_qubits")\n', "",
           ("tests/test_vqc.py::TestEncode::test_refuses_a_qubit_count_that_is_not_a_count",)),
    Mutant("encode: a row's bits depend on the batch's size", "qfedring/vqc.py",
           "amps = cols[:, 0]", "amps = cols[:, 0] * (1 + 2**-52 * (len(feats) % 2))",
           ("tests/test_vqc.py::TestEncode::test_rows_are_encoded_independently",)),
    # local_train prepares its shard once per call, refusing it naming the client.
    Mutant("local_train: prepare moved inside the step loop", "qfedring/fedring.py",
           "fx, fy = rows[start : start + batch_size],",
           "fx, fy = client.model.prepare(feats[order][start : start + batch_size]),",
           ("tests/test_fedring.py::TestLocalTrain::test_prepares_the_shard_once_per_call",)),
    Mutant("local_train: prepare applied to the unpermuted shard", "qfedring/fedring.py",
           "rows, targets = prepared[order], labels[order]",
           "rows, targets = prepared, labels[order]",
           ("tests/test_fedring.py::TestLocalTrain::"
            "test_epochs_replay_bit_for_bit_with_a_short_last_batch",)),
    Mutant("local_train: a refused shard not named for its client", "qfedring/fedring.py",
           'raise ValueError(f"{owner}: {exc}") from exc', "raise",
           ("tests/test_fedring.py::TestLocalTrain::"
            "test_a_circuit_of_another_width_is_refused_naming_the_client",)),
    # local_train's per-epoch gather, and the MLP gradient written in place.
    Mutant("local_train: batch labels sliced from the unpermuted labels", "qfedring/fedring.py",
           "targets[start : start + batch_size]", "labels[start : start + batch_size]",
           ("tests/test_fedring.py::TestLocalTrain::"
            "test_epochs_replay_bit_for_bit_with_a_short_last_batch",)),
    Mutant("_mlp_forward: b1 dropped", "qfedring/trainkit.py",
           " + params[_B1:_W2])", ")",
           ("tests/test_trainkit.py::TestMlp::test_batch_is_bit_equal_to_the_reference_in_any_layout",)),
    Mutant("mlp_batch_grads: one module-level gradient buffer reused", "qfedring/trainkit.py",
           "grad = np.empty(MLP_PARAMS)", 'grad = globals().setdefault("_GRAD", np.empty(MLP_PARAMS))',
           ("tests/test_trainkit.py::TestMlp::test_batch_grads_writes_a_fresh_gradient_each_call",)),
    # The two-class loss.
    Mutant("_row_offsets: a writable table", "qfedring/trainkit.py",
           "    offsets.flags.writeable = False\n", "",
           ("tests/test_trainkit.py::TestRowOffsets::test_one_cached_read_only_table_per_batch_size",)),
    Mutant("loss: last bit of the gathered label column", "qfedring/trainkit.py",
           "- shifted.take(flat)", "- shifted.take(flat) * (1 + 2**-52)", (LOSS_BITS,)),
    Mutant("loss: < in place of <= in the logits bound", "qfedring/trainkit.py",
           "initial=0.0) <= _LOGIT_BOUND", "initial=0.0) < _LOGIT_BOUND",
           ("tests/test_trainkit.py::TestLoss::test_largest_accepted_logits_give_a_finite_loss",)),
    Mutant("loss: logits not made C-ordered", "qfedring/datagen.py",
           'np.asarray(a, dtype=float, order="C")', "np.asarray(a, dtype=float)",
           (LOSS_BITS,)),
    # The one rule for counts and the one for rates.
    Mutant("check_count: a bool passes as a count", "qfedring/datagen.py",
           "isinstance(value, bool) or not isinstance(value, numbers.Integral)",
           "not isinstance(value, numbers.Integral)",
           ("tests/test_setting_rules.py::test_count_refused_by_the_one_rule",)),
    Mutant("check_positive: 0 taken as positive", "qfedring/datagen.py",
           "not 0 < value < math.inf", "not 0 <= value < math.inf",
           ("tests/test_setting_rules.py::test_rate_refused_by_the_one_rule",)),
    # The dataset settings' rules: the seed, the noise and the two fractions.
    Mutant("check_count: the seed's minimum ignored, so that 0 is refused",
           "qfedring/datagen.py", "or value < minimum:", "or value < 1:", (EDGE_VALUES,)),
    Mutant("ExperimentConfig: the seed left unchecked", "qfedring/cli.py",
           '            datagen.check_count(self.seed, "seed", minimum=0)\n', "",
           ("tests/test_setting_rules.py::test_seed_refused_by_the_count_rule",)),
    Mutant("make_clients: the client seed left unchecked", "qfedring/fedring.py",
           '    datagen.check_count(client_seed, "client_seed", minimum=0)\n', "",
           ("tests/test_setting_rules.py::test_seed_refused_by_the_count_rule",)),
    Mutant("check_circles: a bool passes as a sigma", "qfedring/datagen.py",
           "isinstance(noise, bool) or ", "",
           ("tests/test_setting_rules.py::test_noise_refused_by_its_rule",)),
    Mutant("check_fraction: a string reaches the comparison", "qfedring/datagen.py",
           "not isinstance(value, numbers.Real) or not 0 < value < 1", "not 0 < value < 1",
           (FRACTIONS,)),
    Mutant("check_fraction: 1 taken as inside", "qfedring/datagen.py",
           "not 0 < value < 1", "not 0 < value <= 1", (FRACTIONS,)),
    Mutant("train_split_size: an empty test split passes", "qfedring/datagen.py",
           "if train in (0, num_points):", "if train == 0:",
           ("tests/test_cli.py::TestEndToEnd::test_unsplittable_data_exits_2",)),
    Mutant("scale_and_split: an empty side passes", "qfedring/datagen.py",
           "if train_idx.size == 0 or test_idx.size == 0:", "if False:",
           ("tests/test_datagen.py::TestScaleAndSplit::"
            "test_fraction_that_empties_a_side_is_refused",)),
    Mutant("config_from_file: a file without a model passes", "qfedring/cli.py",
           'if "model" not in values:\n        raise ConfigError(f"{path}',
           'if False:\n        raise ConfigError(f"{path}',
           ("tests/test_cli.py::TestCompare::test_config_without_model_exits_2",)),
    Mutant("cli: an empty output path passes", "qfedring/cli.py",
           'if path == "":', 'if path == "-":',
           ("tests/test_cli.py::TestEndToEnd::test_empty_output_path_exits_2",
            "tests/test_cli.py::TestCompare::test_empty_out_exits_2")),
    Mutant("cli: an empty --config beside --compare passes", "qfedring/cli.py",
           "if ns.config is not None or extras:", "if ns.config or extras:",
           ("tests/test_cli.py::TestCompare::test_empty_config_exits_2",)),
    Mutant("cli: compare mode refuses flags without naming them", "qfedring/cli.py",
           "not {refused}; ", "", ("tests/test_cli.py::TestParsing::test_compare_validation",)),
    Mutant("cli: a NUL byte in an output path passes", "qfedring/cli.py",
           'if path and "\\0" in path:', "if False:",
           ("tests/test_cli.py::TestEndToEnd::test_nul_in_an_output_path_exits_2",)),
    Mutant("cli: a config file that is not UTF-8 escapes its catch", "qfedring/cli.py",
           "except (OSError, UnicodeDecodeError) as exc:", "except OSError as exc:",
           ("tests/test_cli.py::TestConfigFileProperties::"
            "test_any_bytes_load_or_are_refused_naming_the_file",)),
    # The one number-array rule, and the circuit's copy of weights and angles.
    Mutant("check_floats: a complex array passes", "qfedring/datagen.py",
           'not in "biuf":', 'not in "biufc":', (NUMBER_RULE,)),
    Mutant("_check_layers: values cast to float before the rule", "qfedring/vqc.py",
           "check_floats(values, name)", "check_floats(np.array(values, dtype=float), name)",
           (NUMBER_RULE,)),
    # Each public site of the cast put back on a plain float cast.
    Mutant("loss: logits cast outside the rule", "qfedring/trainkit.py",
           'as_floats(logits, "logits")', 'np.asarray(logits, dtype=float, order="C")',
           (NUMBER_RULE,)),
    Mutant("call_loss: upstream cast outside the rule", "qfedring/vqc.py",
           'as_floats(upstream, "upstream")', 'np.asarray(upstream, dtype=float, order="C")',
           (NUMBER_RULE,)),
    Mutant("SgdOptimizer.step: params cast outside the rule", "qfedring/trainkit.py",
           'as_floats(params, "params")', "np.asarray(params, dtype=float)", (NUMBER_RULE,)),
    Mutant("SgdOptimizer.step: grad cast outside the rule", "qfedring/trainkit.py",
           'as_floats(grad, "grad")', "np.asarray(grad, dtype=float)", (NUMBER_RULE,)),
    Mutant("canonical_angles: angles cast outside the rule", "qfedring/qweights.py",
           'a = as_floats(angles, "angles")', "a = np.asarray(angles, dtype=float)",
           (NUMBER_RULE,)),
    Mutant("encode_weight: angle through float()", "qfedring/qweights.py",
           'check_floats(angle, "angle")', "np.float64(angle)", (NUMBER_RULE,)),
    Mutant("encode_weight: a 1-D angle left to the amplitude test", "qfedring/qweights.py",
           "if a.ndim:", "if a.ndim > 1:",
           ("tests/test_qweights.py::TestReadout::test_encode_weight_refuses_a_non_scalar_angle",)),
    # The gate-by-gate path's refusals of a bad gate or qubit.
    Mutant("apply_gate: the qubit check dropped", "qfedring/statevec.py",
           '    _check_targets(qubits, n, "gate")\n', "", (GATE_REFUSALS,)),
    Mutant("_check_targets: a negative qubit passes", "qfedring/statevec.py",
           "if not 0 <= q < num_qubits:", "if not q < num_qubits:",
           ("tests/test_statevec.py::TestExpectation::test_observable_validation",)),
    Mutant("apply_gate: a gate on no qubit passes", "qfedring/statevec.py",
           "    if not k:\n", "    if False:\n", (GATE_REFUSALS,)),
    Mutant("apply_gate: the matrix shape test dropped", "qfedring/statevec.py",
           "if u.shape != (2**k, 2**k):", "if False:", (GATE_REFUSALS,)),
    # A forced Bell bit must be an int.
    Mutant("_forcing_rule: a bool passes as a bit", "qfedring/statevec.py",
           " and not isinstance(outcome, bool)", "",
           ("tests/test_teleport.py::TestTeleportState::test_refuses_a_forced_bit_that_is_not_an_int",)),
    # The engine's layers, applied in circuit order.
    Mutant("_expectations: layers applied last to first", "qfedring/vqc.py",
           "2 * dim, 2 * dim):", "2 * dim, 2 * dim)[::-1]:",
           ("tests/test_vqc.py::TestBatchedPath::test_engine_matches_gate_by_gate",)),
    # The pinned default-run CSVs see a readout off by a part in 1e9.
    Mutant("_expectations: readout scaled by 1 + 1e-9", "qfedring/vqc.py",
           "_readout_signs(angles.shape[2])",
           "_readout_signs(angles.shape[2]) * (1 + 1e-9)",
           ("tests/test_acceptance.py::test_criterion_8_end_to_end_learning",)),
    # A convergence scan over a final accuracy that is not finite.
    Mutant("convergence_round: a non-finite final accuracy scanned", "qfedring/cli.py",
           "    if not math.isfinite(final):\n", "    if False:\n",
           ("tests/test_cli.py::TestConvergence::"
            "test_refuses_a_final_accuracy_that_is_not_finite",)),
    # The benchmark tracer's counters read these calls' positional arguments.
    Mutant("VqcModel.loss_grad: gradient_batch called by keyword", "qfedring/vqc.py",
           "gradient_batch(self.params, states, loss)",
           "gradient_batch(self.params, states=states, loss=loss)", (CIRCUIT_STEP_CONTRACT,)),
    Mutant("QuantumWeightStore.step: canonical_angles called by keyword", "qfedring/qweights.py",
           "canonical_angles(optimizer.step(", "canonical_angles(angles=optimizer.step(",
           (STORE_STEP_CONTRACT,)),
    Mutant("QuantumWeightStore.logits: forward_batch called by keyword", "qfedring/qweights.py",
           "vqc.forward_batch(materialize(self), states)",
           "vqc.forward_batch(materialize(self), states=states)", (STORE_STEP_CONTRACT,)),
    Mutant("teleport_weights: decode_angle called by keyword", "qfedring/teleport.py",
           "            out.append(decode_angle(*state_expectations(record.recovered_state)))\n",
           "            expect_z, expect_y = state_expectations(record.recovered_state)\n"
           "            out.append(decode_angle(expect_z=expect_z, expect_y=expect_y))\n",
           ("tests/test_bench_contract.py::test_channel_calls_each_traced_binding_once_per_weight[2]",)),
    # The package re-exports only what a caller reads from it.
    Mutant("__init__: run_ring re-exported", "qfedring/__init__.py",
           "from .vqc import init_model\n",
           "from .vqc import init_model\nfrom .fedring import run_ring\n",
           ("tests/test_package.py::test_the_namespace_exports_only_what_a_caller_reads",)),
    # A numpy warning on the way out of the command line.
    Mutant("cli.main: an np.exp overflow", "qfedring/cli.py",
           "    try:\n        request = parse_config(",
           "    try:\n        np.exp(np.float64(1000.0))\n        request = parse_config(",
           ("tests/test_cli.py::TestEndToEnd::test_divergence_names_its_client_and_step_and_exits_1",)),
)

# Runs pytest on the mutated copy, after checking that the copy is what imports.
_BOOT = """
import sys
sys.path.insert(0, sys.argv[1])
import qfedring
if not qfedring.__file__.startswith(sys.argv[1]):
    sys.exit(f"qfedring imported from {qfedring.__file__}, not the mutated copy")
import pytest
sys.exit(pytest.main(sys.argv[2:]))
"""


def run(mutant: Mutant) -> tuple[str, str]:
    """(verdict, pytest output) for one mutant: killed, SURVIVED or ERROR."""
    with tempfile.TemporaryDirectory(prefix="qfedring-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "ERROR", f"{mutant.old!r} occurs {text.count(mutant.old)} times in src/{mutant.path}"
        target.write_text(text.replace(mutant.old, mutant.new))
        # Tests that start a fresh interpreter find the copy through PYTHONPATH.
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _BOOT, str(src), "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
    verdict = {0: "SURVIVED", 1: "killed"}.get(done.returncode, "ERROR")
    return verdict, done.stdout + done.stderr


def main() -> int:
    killed = 0
    for mutant in MUTANTS:
        verdict, output = run(mutant)
        print(f"{verdict:8}  {mutant.name}", flush=True)
        if verdict == "killed":
            killed += 1
        else:
            print("\n".join("    " + line for line in output.strip().splitlines()[-15:]))
    print(f"{killed} / {len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
