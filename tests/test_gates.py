import dataclasses
import functools
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vqchem import (
    Circuit,
    Gate,
    InvalidChannel,
    InvalidOperator,
    InvalidParams,
    InvalidProbability,
    NoiseModel,
    QubitOperator,
    SizeLimit,
    build_fermion_hamiltonian,
    build_ry_ansatz,
    civector_at,
    civector_to_statevector,
    depolarizing_channel,
    expectation,
    hea_kernel,
    kernel,
    make_uccsd_problem,
    parameter_shift_gradient,
    parity_transform,
    sampled_expectation,
    simulate_density,
    simulate_state,
)
from vqchem.gates import (
    _apply_channel_density,
    _compile,
    _energy_and_gradient,
    _step,
)
import oracles
from oracles import (
    PAULI_1Q,
    compile_ucc_trotter,
    dense_qubit_operator,
    embed_unitary,
)

H2_FCI = -1.1372744055294606


def ry(theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def pauli_rot(pauli, theta):
    mat = PAULI_1Q[pauli[0]]
    for ch in pauli[1:]:
        mat = np.kron(mat, PAULI_1Q[ch])
    dim = mat.shape[0]
    return math.cos(theta / 2) * np.eye(dim) - 1j * math.sin(theta / 2) * mat


def dense_circuit_unitary(c, params):
    full = np.eye(2 ** c.n_qubits, dtype=complex)
    for g in c.gates:
        theta = params[g.param_slot] if g.param_slot is not None else g.angle
        if g.kind == "X":
            u = PAULI_1Q["X"]
        elif g.kind == "CNOT":
            u = CNOT
        elif g.kind == "RY":
            u = ry(theta)
        else:
            u = pauli_rot(g.pauli, theta)
        full = embed_unitary(u, g.qubits, c.n_qubits) @ full
    return full


def random_circuit(rng, n_qubits, n_gates, n_params):
    kinds = ["X", "RY", "PAULI_ROT"] + (["CNOT"] if n_qubits > 1 else [])
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind == "X":
            gates.append(Gate("X", (int(rng.integers(n_qubits)),)))
        elif kind == "CNOT":
            q = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate("CNOT", (int(q[0]), int(q[1]))))
        elif kind == "RY":
            slot = int(rng.integers(n_params))
            gates.append(Gate("RY", (int(rng.integers(n_qubits)),),
                              param_slot=slot))
        else:
            k = int(rng.integers(1, min(3, n_qubits + 1)))
            q = rng.choice(n_qubits, size=k, replace=False)
            pauli = "".join(rng.choice(list("XYZ"), size=k))
            gates.append(Gate("PAULI_ROT", tuple(int(x) for x in q),
                              angle=float(rng.uniform(-np.pi, np.pi)),
                              pauli=pauli))
    return Circuit(n_qubits, gates, n_params)


def random_single_slot_circuit(rng, n_qubits, n_gates):
    """X, CNOT and rotation gates; each rotation either has a fixed angle
    or drives its own parameter slot."""
    gates = []
    slot = 0
    for _ in range(n_gates):
        kind = rng.choice(["X", "RY", "RY", "PAULI_ROT", "PAULI_ROT"]
                          + (["CNOT"] if n_qubits > 1 else []))
        if kind == "X":
            gates.append(Gate("X", (int(rng.integers(n_qubits)),)))
            continue
        if kind == "CNOT":
            q = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate("CNOT", (int(q[0]), int(q[1]))))
            continue
        if rng.random() < 0.3:
            angle, param = float(rng.uniform(-np.pi, np.pi)), None
        else:
            angle, param = None, slot
            slot += 1
        if kind == "RY":
            gates.append(Gate("RY", (int(rng.integers(n_qubits)),),
                              param_slot=param, angle=angle))
        else:
            k = int(rng.integers(1, n_qubits + 1))
            q = rng.choice(n_qubits, size=k, replace=False)
            gates.append(Gate("PAULI_ROT", tuple(int(x) for x in q),
                              param_slot=param, angle=angle,
                              pauli="".join(rng.choice(list("XYZ"), size=k))))
    return Circuit(n_qubits, gates, slot)


def random_hamiltonian(rng, n_qubits, n_terms):
    terms = {(): float(rng.normal())}
    for _ in range(n_terms):
        k = int(rng.integers(1, n_qubits + 1))
        qubits = sorted(rng.choice(n_qubits, size=k, replace=False))
        key = tuple((int(q), str(rng.choice(list("XYZ")))) for q in qubits)
        terms[key] = float(rng.normal())
    return QubitOperator(n_qubits, terms)


def parity_reduced_h2(h2):
    return parity_transform(build_fermion_hamiltonian(h2), n_elec=2,
                            reduce_two_qubits=True)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_gate_validation():
    with pytest.raises(InvalidParams):
        Gate("HADAMARD", (0,))
    with pytest.raises(InvalidParams):
        Gate("CNOT", (1, 1))
    with pytest.raises(InvalidParams):
        Gate("CNOT", (0,))
    with pytest.raises(InvalidParams):
        Gate("RY", (0,))  # neither slot nor angle
    with pytest.raises(InvalidParams):
        Gate("RY", (0,), param_slot=0, angle=0.3)  # both
    with pytest.raises(InvalidParams):
        Gate("X", (0,), angle=0.3)
    with pytest.raises(InvalidParams):
        Gate("PAULI_ROT", (0, 1), angle=0.3, pauli="X")  # length mismatch
    with pytest.raises(InvalidParams):
        Gate("PAULI_ROT", (0,), angle=0.3, pauli="Q")


def test_circuit_validation():
    with pytest.raises(InvalidParams):
        Circuit(2, [Gate("X", (2,))])
    with pytest.raises(InvalidParams):
        Circuit(2, [Gate("RY", (0,), param_slot=1)], n_params=1)


def test_ry_ansatz_structure():
    c = build_ry_ansatz(4, 2)
    assert c.n_params == 12
    kinds = [g.kind for g in c.gates]
    assert kinds.count("RY") == 12 and kinds.count("CNOT") == 6
    assert kinds[:4] == ["RY"] * 4  # rotation layer comes first
    with pytest.raises(InvalidParams):
        build_ry_ansatz(4, -1)


# ---------------------------------------------------------------------------
# Simulation against the dense oracle
# ---------------------------------------------------------------------------

def test_simulate_state_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        c = random_circuit(rng, n, 8, 3)
        params = rng.uniform(-np.pi, np.pi, size=3)
        psi = simulate_state(c, params)
        want = dense_circuit_unitary(c, params)[:, 0]
        np.testing.assert_allclose(psi, want, atol=1e-12)


def test_simulate_density_pure_state_consistency():
    rng = np.random.default_rng(5)
    c = random_circuit(rng, 3, 10, 2)
    params = rng.uniform(-np.pi, np.pi, size=2)
    psi = simulate_state(c, params)
    rho = simulate_density(c, params, noise=None)
    oracles.assert_physical_density(rho)
    np.testing.assert_allclose(rho, np.outer(psi, psi.conj()),
                               atol=1e-12)


def test_simulate_density_matches_dense_oracle():
    rng = np.random.default_rng(41)
    noise = NoiseModel({"CNOT": depolarizing_channel(0.1, 2),
                        "RY": depolarizing_channel(0.05, 1)})
    for _ in range(4):
        c = random_single_slot_circuit(rng, 3, 12)
        params = rng.uniform(-np.pi, np.pi, size=c.n_params)
        h = random_hamiltonian(rng, 3, 6)
        got = expectation(simulate_density(c, params, noise), h)
        assert abs(got - oracles.dense_circuit_energy(c, params, h, noise)) \
            < 1e-12


@pytest.mark.parametrize("start", ["vector", "index"])
def test_initial_state_matches_dense_oracle(start):
    """A circuit that starts from ``initial`` (a random vector, or a basis
    index other than 0): state, density matrix, energy and gradient, ideal
    and noisy, against the dense oracle from the same start."""
    rng = np.random.default_rng(43)
    noise = NoiseModel({"CNOT": depolarizing_channel(0.1, 2),
                        "RY": depolarizing_channel(0.05, 1)})
    for n in (1, 2, 3):
        initial = (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                   if start == "vector" else int(rng.integers(1, 1 << n)))
        c = dataclasses.replace(random_single_slot_circuit(rng, n, 12),
                                initial=initial)
        params = rng.uniform(-np.pi, np.pi, size=c.n_params)
        h = random_hamiltonian(rng, n, 6)
        psi = simulate_state(c, params)
        want = dense_circuit_unitary(c, params) @ c.initial
        assert np.max(np.abs(psi - want)) <= 1e-12
        np.testing.assert_allclose(
            simulate_density(c, params, None),
            np.outer(want, want.conj()), rtol=0, atol=1e-12)
        for model in (None, noise):
            e = expectation(simulate_density(c, params, model), h)
            assert abs(e - oracles.dense_circuit_energy(c, params, h, model)) \
                <= 1e-12
            got = parameter_shift_gradient(c, params, h, model)
            want_grad = oracles.parameter_shift_gradient(c, params, h, model)
            assert np.max(np.abs(got - want_grad), initial=0.0) <= 1e-12


def test_simulate_density_size_limit():
    c = Circuit(11, [Gate("X", (0,))])
    with pytest.raises(SizeLimit):
        simulate_density(c, None, None)


@pytest.mark.parametrize("shots", [None, 100])
def test_noisy_hea_kernel_refuses_size_before_compiling(monkeypatch, shots):
    from vqchem import gates

    c = build_ry_ansatz(11, 1)
    noise = NoiseModel({"CNOT": depolarizing_channel(0.02, 2)})
    monkeypatch.setattr(gates, "_compile",
                        lambda *args: pytest.fail("the circuit was compiled"))
    with pytest.raises(SizeLimit):
        hea_kernel(c, np.zeros(c.n_params), QubitOperator.identity(11),
                   noise, shots=shots)


def test_param_count_checked():
    c = build_ry_ansatz(2, 1)
    with pytest.raises(InvalidParams):
        simulate_state(c, [0.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_params_are_refused(bad):
    c = build_ry_ansatz(2, 1)
    params = np.zeros(c.n_params)
    params[1] = bad
    with pytest.raises(InvalidParams, match="finite"):
        simulate_state(c, params)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.data())
def test_x_and_cnot_flips_match_embedded_unitaries(n, data):
    """X and CNOT, compiled to permutation steps, equal the embedded 2x2
    and 4x4 matrices bit for bit on statevectors, row matrices and
    transposed views, with the CNOT control above and below the target."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dim = 1 << n
    inputs = (rng.normal(size=dim) + 1j * rng.normal(size=dim),
              rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3)),
              (rng.normal(size=(dim, dim))
               + 1j * rng.normal(size=(dim, dim))).T)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    gates_ = [(Gate("X", (q,)), embed_unitary(PAULI_1Q["X"], (q,), n))
              for q in range(n)]
    gates_ += [(Gate("CNOT", (c, t)), embed_unitary(cnot, (c, t), n))
               for c in range(n) for t in range(n) if c != t]
    for gate, u in gates_:
        runs = _compile(Circuit(n, [gate]), None)
        (step,) = runs.steps
        for x in inputs:
            got = _step(x, step, *runs.rotations([]))
            assert got.shape == x.shape
            np.testing.assert_array_equal(got, u @ x)


def _chunk_case(case):
    """(circuit, noise) of a chunked-compile case."""
    if case == "vha":  # the dynamics command's default spin-boson VHA
        from vqchem import (build_vha, coherent_state, encode_state,
                            qubit_encode, spin_boson_model)
        enc = qubit_encode(*spin_boson_model(0.0, 1.0, 1.0, 0.5, 8), "gray")
        start = np.kron([1.0, 0.0], coherent_state(0.0, 8))
        return build_vha(enc, 3, encode_state(enc, start)), None
    noise = NoiseModel({"CNOT": depolarizing_channel(0.02, 2)})
    return {"ry6": (build_ry_ansatz(6, 2), None),
            "ry6-noisy": (build_ry_ansatz(6, 2), noise),
            "ry10": (build_ry_ansatz(10, 2), None)}[case]


@pytest.mark.parametrize("case", ["ry6", "ry6-noisy", "ry10", "vha"])
def test_chunked_compile_matches_one_rotation_per_call(case, monkeypatch):
    """The compile reads the rotations' actions from mask_action in chunks
    of rotations.  A budget of three rotations per call and the default
    give every field of the runs bit for bit as one rotation per call
    does; the sign table holds the member columns alone, and no step's
    target is a view that keeps a chunk alive."""
    from vqchem import operators

    c, noise = _chunk_case(case)
    n_rot = sum(g.kind in ("RY", "PAULI_ROT") for g in c.gates)
    calls, action = [], operators.mask_action
    monkeypatch.setattr(operators, "mask_action",
                        lambda n, x, z: calls.append(len(x)) or action(n, x, z))
    default = _compile(c, noise)
    assert calls == [n_rot]  # every case fits in 2^16 entries

    def compile_in_chunks_of(per_call):
        calls.clear()
        monkeypatch.setattr(operators, "_CHUNK", per_call << c.n_qubits)
        runs = _compile(c, noise)
        assert sum(calls) == n_rot and set(calls[:-1]) == {per_call}
        return runs

    want, chunked = compile_in_chunks_of(1), compile_in_chunks_of(3)
    for runs in (default, chunked):
        for name in ("starts", "flips", "signs", "slots", "angles"):
            got, ref = getattr(runs, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        assert [s[1:] for s in runs.steps] == [s[1:] for s in want.steps]
        for (target, _, _), (ref, _, _) in zip(runs.steps, want.steps):
            assert target.dtype == ref.dtype
            np.testing.assert_array_equal(target, ref)
            assert target.base is None
        assert runs.signs.shape == (1 << c.n_qubits, n_rot)
        assert runs.signs.base is None


def test_gates_keep_no_memory():
    """Simulating a circuit leaves nothing behind: after 40 distinct Pauli
    rotations on 12 qubits, tracemalloc's current size is back near its
    baseline (a cached action per string would keep 24 * 4096 B each)."""
    import tracemalloc

    rng = np.random.default_rng(3)
    n, strings = 12, set()
    while len(strings) < 40:
        strings.add("".join(rng.choice(list("XYZ"), size=n)))
    c = Circuit(n, [Gate("PAULI_ROT", tuple(range(n)), angle=0.1 * k,
                         pauli=p) for k, p in enumerate(sorted(strings))])
    # numpy's one-time allocations, on a string the circuit does not use
    simulate_state(Circuit(n, [Gate("RY", (0,), angle=0.1)]), None)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        psi = simulate_state(c, None)
        kept = tracemalloc.get_traced_memory()[0] - before - psi.nbytes
    finally:
        tracemalloc.stop()
    assert kept < 256 << 10, kept


# ---------------------------------------------------------------------------
# Noise channels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_qubits,p", [(1, 0.0), (1, 0.3), (2, 0.02),
                                        (2, 0.25), (2, 1.0)])
def test_depolarizing_kraus_completeness(n_qubits, p):
    kraus = depolarizing_channel(p, n_qubits)
    dim = 2 ** n_qubits
    total = sum(k.conj().T @ k for k in kraus)
    np.testing.assert_allclose(total, np.eye(dim), atol=1e-12)
    assert len(kraus) == {1: 4, 2: 16}[n_qubits]


def test_depolarizing_validation():
    with pytest.raises(InvalidProbability):
        depolarizing_channel(-0.1, 2)
    with pytest.raises(InvalidProbability):
        depolarizing_channel(1.1, 2)
    with pytest.raises(InvalidChannel):
        depolarizing_channel(0.1, 3)
    with pytest.raises(InvalidChannel):
        NoiseModel({"CNOT": [np.eye(4) * 0.5]})  # not trace preserving


def test_noisy_density_stays_physical():
    rng = np.random.default_rng(7)
    noise = NoiseModel({"CNOT": depolarizing_channel(0.1, 2),
                        "RY": depolarizing_channel(0.02, 1)})
    for _ in range(6):
        c = random_circuit(rng, 3, 12, 4)
        params = rng.uniform(-np.pi, np.pi, size=4)
        rho = simulate_density(c, params, noise)
        oracles.assert_physical_density(rho)
        purity = float(np.trace(rho @ rho).real)
        assert purity <= 1.0 + 1e-12


@pytest.mark.parametrize("kind", ["cnot", "ry", "H", "PAULI"])
def test_noise_on_unknown_gate_kind_is_refused(kind):
    """A channel bound to a kind no gate has would never be applied."""
    with pytest.raises(InvalidChannel, match=repr(kind)):
        NoiseModel({kind: depolarizing_channel(0.1, 1)})


def test_channel_arity_must_match_gate():
    c = Circuit(2, [Gate("CNOT", (0, 1))])
    noise = NoiseModel({"CNOT": depolarizing_channel(0.1, 1)})
    with pytest.raises(InvalidChannel):
        simulate_density(c, None, noise)


def _amplitude_damping(gamma, n_qubits):
    """Amplitude damping on each qubit (its Kraus products for two)."""
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    if n_qubits == 1:
        return [k0, k1]
    return [np.kron(a, b) for a in (k0, k1) for b in (k0, k1)]


def _isometry_channel(rng, n_ops, n_qubits):
    """n_ops Kraus operators cut from the Q of a random complex QR: the
    stacked operators form an isometry, so sum K^dagger K = I."""
    dim = 2 ** n_qubits
    m = rng.normal(size=(n_ops * dim, dim)) \
        + 1j * rng.normal(size=(n_ops * dim, dim))
    q, _ = np.linalg.qr(m)
    return [q[i * dim:(i + 1) * dim] for i in range(n_ops)]


def _random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m + m.conj().T
    return m / np.linalg.norm(m)


_CHANNELS = {
    "depolarizing": lambda rng, k: depolarizing_channel(0.3, k),
    "amplitude-damping": lambda rng, k: _amplitude_damping(0.4, k),
    "random-isometry": lambda rng, k: _isometry_channel(rng, 3, k),
}


@pytest.mark.parametrize("qubits", [(0,), (3,), (1, 2), (2, 0), (3, 1)])
@pytest.mark.parametrize("channel", sorted(_CHANNELS))
def test_superoperator_matches_kraus_oracle(channel, qubits):
    """The compiled superoperator S applied as one contraction gives
    sum K rho K^dagger, and S^dagger gives sum K^dagger A K, both against
    full-register Kraus products; Tr(A S(rho)) = Tr(S^dagger(A) rho)."""
    rng = np.random.default_rng(41 + 7 * len(qubits) + qubits[0])
    n = 4
    kraus = _CHANNELS[channel](rng, len(qubits))
    kind = "CNOT" if len(qubits) == 2 else "RY"
    superop = NoiseModel({kind: kraus}).superops[kind]
    assert superop.shape == (4 ** len(qubits),) * 2
    rho, a = _random_hermitian(rng, 2 ** n), _random_hermitian(rng, 2 ** n)
    got = _apply_channel_density(rho, superop, qubits, n)
    want = oracles.kraus_channel(rho, kraus, qubits, n)
    assert np.max(np.abs(got - want)) <= 1e-12
    got_adj = _apply_channel_density(a, superop.conj().T, qubits, n)
    want_adj = oracles.kraus_channel(a, kraus, qubits, n, adjoint=True)
    assert np.max(np.abs(got_adj - want_adj)) <= 1e-12
    assert abs(np.trace(a @ got) - np.trace(got_adj @ rho)) <= 1e-12


def test_noise_model_is_fixed_at_construction():
    """The superoperators are compiled from the validated channels once, so
    the channels cannot be swapped afterwards."""
    noise = NoiseModel({"CNOT": depolarizing_channel(0.1, 2)})
    with pytest.raises(dataclasses.FrozenInstanceError):
        noise.channels = {"CNOT": [np.eye(4) * 0.5]}


def _assert_superop_is_kraus_sum(kraus):
    """NoiseModel's superoperator equals sum(K (x) conj(K)) bit for bit,
    signed zeros included."""
    kind = "CNOT" if kraus[0].shape == (4, 4) else "RY"
    want = sum(np.kron(k, k.conj()) for k in kraus)
    got = NoiseModel({kind: kraus}).superops[kind]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("p", [0.0, 0.02, 0.3, 1.0])
def test_depolarizing_channel_is_the_kron_products_bit_for_bit(p, n_qubits):
    """The Kraus list is sqrt(1 - p) I and sqrt(p / (4^k - 1)) times the
    Kronecker products of the other letters, in "IXYZ" order, bit for bit;
    so is its superoperator."""
    paulis = [functools.reduce(np.kron, [PAULI_1Q[ch] for ch in letters])
              for letters in itertools.product("IXYZ", repeat=n_qubits)]
    weight = math.sqrt(p / (len(paulis) - 1))
    want = [math.sqrt(1.0 - p) * paulis[0]] + [weight * m for m in paulis[1:]]
    got = depolarizing_channel(p, n_qubits)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    _assert_superop_is_kraus_sum(got)


@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("channel", ["amplitude-damping", "random-isometry",
                                     "signed-zero"])
def test_superoperator_is_the_kraus_sum_bit_for_bit(channel, n_qubits):
    """Also for a unitary whose K (x) conj(K) has -0.0 entries, which
    sum() turns into +0.0 as it adds them to 0."""
    if channel == "signed-zero":
        k = np.diag([complex(-1.0, -0.0)] + [1.0] * (2 ** n_qubits - 1))
        assert np.signbit(np.kron(k, k.conj()).real).any()
        kraus = [k]
    else:
        kraus = _CHANNELS[channel](np.random.default_rng(23), n_qubits)
    _assert_superop_is_kraus_sum(kraus)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_non_finite_kraus_is_refused(bad):
    k = np.eye(2, dtype=complex)
    k[0, 0] = bad
    with pytest.raises(InvalidChannel):
        NoiseModel({"RY": [k]})
    with pytest.raises(InvalidChannel):
        NoiseModel({"CNOT": [np.eye(4), np.full((4, 4), bad)]})


@pytest.mark.parametrize("kraus", [[np.eye(3)], [np.eye(8)], [np.eye(1)],
                                   [np.ones(2)], [1.0]])
def test_kraus_dimension_must_be_one_or_two_qubits(kraus):
    with pytest.raises(InvalidChannel):
        NoiseModel({"CNOT": kraus})


def test_two_qubit_depolarizing_equals_global_mixing(h2):
    """On a 2-qubit register a CNOT depolarizing channel is global: each
    noisy CNOT mixes toward I/4 with weight 16p/15, so the energy follows
    (1-16p/15)^k * E_ideal + (1-(1-16p/15)^k) * Tr(H)/4 with k CNOTs."""
    h = parity_reduced_h2(h2)
    h_dense = dense_qubit_operator(h)
    trace_term = np.trace(h_dense).real / 4.0
    rng = np.random.default_rng(11)
    for layers in (1, 2, 3):
        c = build_ry_ansatz(2, layers)
        params = rng.uniform(-np.pi, np.pi, size=c.n_params)
        e_ideal = expectation(simulate_state(c, params), h)
        for p in (0.0, 0.1, 0.4):
            noise = NoiseModel({"CNOT": depolarizing_channel(p, 2)})
            e_noisy = expectation(simulate_density(c, params, noise), h)
            keep = (1.0 - 16.0 * p / 15.0) ** layers
            want = keep * e_ideal + (1.0 - keep) * trace_term
            assert abs(e_noisy - want) < 1e-10


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------

def test_expectation_matches_dense():
    rng = np.random.default_rng(13)
    n = 3
    terms = {}
    for _ in range(6):
        k = int(rng.integers(1, n + 1))
        qubits = sorted(rng.choice(n, size=k, replace=False))
        key = tuple((int(q), str(rng.choice(list("XYZ")))) for q in qubits)
        terms[key] = float(rng.normal())
    terms[()] = 0.3
    h = QubitOperator(n, terms)
    h_dense = dense_qubit_operator(h)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    assert abs(expectation(psi, h) - np.vdot(psi, h_dense @ psi).real) < 1e-12
    rho = np.outer(psi, psi.conj())
    assert abs(expectation(rho, h) - np.trace(rho @ h_dense).real) < 1e-12


def test_expectation_matches_dense_on_parity_reduced_h4(h4):
    h = parity_transform(build_fermion_hamiltonian(h4), h4.n_elec,
                         reduce_two_qubits=True)
    assert (h.n_qubits, len(h.terms)) == (6, 165)
    h_dense = dense_qubit_operator(h)
    rng = np.random.default_rng(29)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi /= np.linalg.norm(psi)
    assert abs(expectation(psi, h) - np.vdot(psi, h_dense @ psi).real) < 1e-12
    rho = np.outer(psi, psi.conj())
    assert abs(expectation(rho, h) - np.trace(rho @ h_dense).real) < 1e-12


def test_expectation_rejects_non_hermitian():
    h = QubitOperator(1, {((0, "X"),): 1j})
    psi = np.array([1.0, 1.0]) / np.sqrt(2)  # <X> = 1, so <iX> is imaginary
    with pytest.raises(InvalidOperator):
        expectation(psi, h)


def test_expectation_dimension_mismatch():
    h = QubitOperator(2, {((0, "Z"),): 1.0})
    with pytest.raises(InvalidOperator):
        expectation(np.array([1.0, 0.0]), h)


def test_sampled_expectation_behaviour(h2):
    h = parity_reduced_h2(h2)
    c = build_ry_ansatz(2, 1)
    params = np.array([0.1, np.pi - 0.2, 0.05, -0.4])
    psi = simulate_state(c, params)
    exact = expectation(psi, h)
    a = sampled_expectation(psi, h, shots_per_term=512, seed=42)
    b = sampled_expectation(psi, h, shots_per_term=512, seed=42)
    assert a == b  # deterministic for a fixed seed
    c2 = sampled_expectation(psi, h, shots_per_term=512, seed=43)
    assert a != c2
    big = sampled_expectation(psi, h, shots_per_term=2 ** 17, seed=7)
    assert abs(big - exact) < 0.02
    with pytest.raises(InvalidParams):
        sampled_expectation(psi, h, shots_per_term=0)


def test_sampled_terms_use_masks_not_the_action_cache(h2):
    """Sampled terms read their actions off the strings' masks: each value
    equals the letter-by-letter action's, for complex, real and density
    inputs and across chunks."""
    from vqchem.operators import pauli_traces

    h = parity_transform(build_fermion_hamiltonian(h2), h2.n_elec)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    # 10 qubits, 100 strings: two chunks of the 2^16-entry budget
    strings = {tuple((q, "XYZ"[k - 1]) for q, k in enumerate(row) if k): 1.0
               for row in rng.integers(0, 4, size=(100, 10))}
    psi10 = rng.normal(size=1024) + 1j * rng.normal(size=1024)
    for op, arrs in ((h, (psi, psi.real.copy(), rho)),
                     (QubitOperator(10, strings), (psi10,))):
        for arr in arrs:
            is_rho = arr.ndim == 2
            got = pauli_traces(op.n_qubits, op.x, op.z, arr).real
            assert got.shape == (len(op.terms),)
            for term, value in zip(op.terms, got):
                target, phase = oracles.letter_pauli_action(op.n_qubits, term)
                want = (np.sum(arr[np.arange(arr.shape[0]), target] * phase)
                        if is_rho else
                        np.sum(np.conj(arr[target]) * phase * arr))
                assert value == want.real, term


def test_sampled_draw_order_ignores_insertion_order(h2):
    """Shots are drawn term by term in the sorted order of the letter
    terms, so the same terms inserted in another order give the same
    estimate for one seed."""
    h = parity_transform(build_fermion_hamiltonian(h2), h2.n_elec)
    items = list(h.terms.items())
    shuffled = [items[k] for k in np.random.default_rng(3).permutation(
        len(items))]
    again = QubitOperator(h.n_qubits, dict(shuffled))
    assert list(again.terms) != list(h.terms)
    rng = np.random.default_rng(8)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    for seed in (0, 11):
        assert (sampled_expectation(psi, again, 64, seed)
                == sampled_expectation(psi, h, 64, seed))


def test_sampled_identity_term_is_exact():
    h = QubitOperator(1, {(): 0.7})
    psi = np.array([1.0, 0.0], dtype=complex)
    assert sampled_expectation(psi, h, shots_per_term=1, seed=0) == 0.7


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("noisy", [False, True])
def test_parameter_shift_matches_finite_difference(h2, noisy):
    h = parity_reduced_h2(h2)
    noise = (NoiseModel({"CNOT": depolarizing_channel(0.05, 2)})
             if noisy else None)
    c = build_ry_ansatz(2, 1)
    rng = np.random.default_rng(17)
    params = rng.uniform(-np.pi, np.pi, size=c.n_params)

    def energy(x):
        if noise is None:
            return expectation(simulate_state(c, x), h)
        return expectation(simulate_density(c, x, noise), h)

    grad = parameter_shift_gradient(c, params, h, noise)
    fd = 1e-6
    for j in range(c.n_params):
        shift = np.zeros(c.n_params)
        shift[j] = fd
        want = (energy(params + shift) - energy(params - shift)) / (2 * fd)
        assert abs(grad[j] - want) < 1e-7


ADJOINT_TOL = 1e-10


def hea_case(s, n_layers):
    h = parity_transform(build_fermion_hamiltonian(s), s.n_elec,
                         reduce_two_qubits=True)
    return build_ry_ansatz(h.n_qubits, n_layers), h


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("case", ["h2", "h4"])
def test_gradient_matches_shift_rule_oracle_on_hea(case, noisy, request):
    c, h = hea_case(request.getfixturevalue(case), 2)
    noise = (NoiseModel({"CNOT": depolarizing_channel(0.05, 2)})
             if noisy else None)
    params = np.random.default_rng(31).uniform(-np.pi, np.pi, c.n_params)
    want = oracles.parameter_shift_gradient(c, params, h, noise)
    got = parameter_shift_gradient(c, params, h, noise)
    assert np.max(np.abs(got - want)) < ADJOINT_TOL


def test_noisy_gradient_with_non_self_adjoint_channels():
    """Complex, non-unital channels, whose superoperators differ from their
    adjoints (depolarizing ones do not): the reverse pass still matches the
    shift rule and the energy of the full-register Kraus products."""
    rng = np.random.default_rng(43)
    noise = NoiseModel({"CNOT": _isometry_channel(rng, 3, 2),
                        "RY": _amplitude_damping(0.1, 1),
                        "X": _isometry_channel(rng, 2, 1)})
    for n_qubits in (2, 3):
        c = random_single_slot_circuit(rng, n_qubits, 14)
        h = random_hamiltonian(rng, n_qubits, 8)
        params = rng.uniform(-np.pi, np.pi, size=c.n_params)
        want = oracles.parameter_shift_gradient(c, params, h, noise)
        e, got = _energy_and_gradient(c, params, h, noise)
        assert np.max(np.abs(got - want), initial=0.0) < ADJOINT_TOL
        assert abs(e - oracles.dense_circuit_energy(c, params, h, noise)) \
            < ADJOINT_TOL


@pytest.mark.parametrize("noisy", [False, True])
def test_gradient_matches_shift_rule_oracle_on_random_circuits(noisy):
    rng = np.random.default_rng(37 + noisy)
    # the RY channel acts right after a parametrised gate
    noise = (NoiseModel({"CNOT": depolarizing_channel(0.1, 2),
                         "RY": depolarizing_channel(0.05, 1)})
             if noisy else None)
    for n_qubits in (1, 2, 3, 4):
        c = random_single_slot_circuit(rng, n_qubits, 14)
        h = random_hamiltonian(rng, n_qubits, 8)
        params = rng.uniform(-np.pi, np.pi, size=c.n_params)
        want = oracles.parameter_shift_gradient(c, params, h, noise)
        got = parameter_shift_gradient(c, params, h, noise)
        assert np.max(np.abs(got - want), initial=0.0) < ADJOINT_TOL
        # the same gates with their slots folded onto three shared ones
        tied = Circuit(n_qubits, [
            g if g.param_slot is None
            else dataclasses.replace(g, param_slot=g.param_slot % 3)
            for g in c.gates], 3)
        shared = rng.uniform(-np.pi, np.pi, size=3)
        want = oracles.tied_slot_gradient(tied, shared, h, noise)
        got = parameter_shift_gradient(tied, shared, h, noise)
        assert np.max(np.abs(got - want)) < ADJOINT_TOL
    with pytest.raises(InvalidOperator):
        parameter_shift_gradient(c, params, random_hamiltonian(rng, 2, 3),
                                 noise)


@st.composite
def fusing_circuits(draw):
    """Circuits over all four gate kinds on 1-3 qubits, with rotations on
    three shared slots or at fixed angles.  A "twin" repeats the previous
    rotation's string, or swaps X and Y on two of its letters, so that the
    two flip the same qubits and commute and compile to one run."""
    n = draw(st.integers(1, 3))
    kinds = ["X", "RY", "PAULI_ROT", "twin", "twin"] + ["CNOT"] * (n > 1)
    gates, last = [], None
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "X":
            gates.append(Gate("X", (draw(st.integers(0, n - 1)),)))
            continue
        if kind == "CNOT":
            q = draw(st.permutations(range(n)))
            gates.append(Gate("CNOT", (q[0], q[1])))
            continue
        slot = draw(st.one_of(st.none(), st.integers(0, 2)))
        angle = None if slot is not None else draw(st.floats(-4.0, 4.0))
        if kind == "twin" and last is not None:
            pauli = last.pauli
            if pauli and draw(st.booleans()):
                flips = [k for k, ch in enumerate(pauli) if ch != "Z"][:2]
                swap = dict(zip("XYZ", "YXZ"))
                pauli = "".join(swap[ch] if k in flips and len(flips) == 2
                                else ch for k, ch in enumerate(pauli))
            g = dataclasses.replace(last, param_slot=slot, angle=angle,
                                    pauli=pauli)
        elif kind == "RY" or (kind == "twin" and n == 1):
            g = Gate("RY", (draw(st.integers(0, n - 1)),), param_slot=slot,
                     angle=angle)
        else:
            k = draw(st.integers(1, n))
            g = Gate("PAULI_ROT", tuple(draw(st.permutations(range(n)))[:k]),
                     param_slot=slot, angle=angle,
                     pauli="".join(draw(st.lists(st.sampled_from("XYZ"),
                                                 min_size=k, max_size=k))))
        gates.append(g)
        last = g
    return Circuit(n, gates, 3)


@settings(max_examples=60, deadline=None)
@given(fusing_circuits(), st.sampled_from(["none", "cnot", "ry-x-cnot"]),
       st.integers(0, 2**32 - 1))
@example(Circuit(2, [Gate("RY", (1,), param_slot=2),
                     Gate("PAULI_ROT", (0, 1), param_slot=0, pauli="XY"),
                     Gate("PAULI_ROT", (0, 1), angle=0.4, pauli="YX"),
                     Gate("PAULI_ROT", (0, 1), param_slot=1, pauli="YX")], 3),
         "cnot", 0)
def test_compiled_circuits_match_dense_oracle(c, channels, seed):
    """Energies and gradients, ideal and noisy, of circuits whose rotations
    fuse into runs, share slots and hold fixed angles, against full-register
    matrices and the shift rule per gate, to 1e-12.  A channel on RY ends
    its run."""
    rng = np.random.default_rng(seed)
    noise = {"none": None,
             "cnot": NoiseModel({"CNOT": depolarizing_channel(0.1, 2)}),
             "ry-x-cnot": NoiseModel({"RY": _amplitude_damping(0.2, 1),
                                      "X": depolarizing_channel(0.05, 1),
                                      "CNOT": depolarizing_channel(0.1, 2)}),
             }[channels]
    h = random_hamiltonian(rng, c.n_qubits, 6)
    params = rng.uniform(-np.pi, np.pi, size=3)
    want_e = oracles.dense_circuit_energy(c, params, h, noise)
    state = (simulate_state(c, params) if noise is None
             else simulate_density(c, params, noise))
    e, grad = _energy_and_gradient(c, params, h, noise)
    assert abs(expectation(state, h) - want_e) <= 1e-12
    assert abs(e - want_e) <= 1e-12
    want = oracles.tied_slot_gradient(c, params, h, noise)
    assert np.max(np.abs(grad - want)) <= 1e-12


@pytest.mark.parametrize("states", [5, 0])
def test_noisy_gradient_with_checkpoint_stride(h4, states, monkeypatch):
    """A budget of a few states (or none) keeps every stride-th state and
    replays the rest on the way back."""
    import vqchem.gates as gates

    c, h = hea_case(h4, 2)
    monkeypatch.setattr(gates, "_ADJOINT_STATE_BYTES",
                        max(1, states * 16 * 4 ** c.n_qubits))
    noise = NoiseModel({"CNOT": depolarizing_channel(0.05, 2),
                        "RY": depolarizing_channel(0.02, 1)})
    params = np.random.default_rng(43).uniform(-np.pi, np.pi, c.n_params)
    want = oracles.parameter_shift_gradient(c, params, h, noise)
    got = parameter_shift_gradient(c, params, h, noise)
    assert np.max(np.abs(got - want)) < ADJOINT_TOL


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("case, layers", [("h4", 2), ("h6", 1)])
def test_real_program_matches_complex_arithmetic(case, layers, noisy,
                                                 request):
    """The RY/CNOT ansatz on the parity-reduced operator runs in float64
    from |0...0>; the same circuit from the complex start ``initial=0``
    runs in complex128.  Their states, density matrices, energies and
    gradients agree to 1e-12, ideal and with CNOT depolarizing noise."""
    c, h = hea_case(request.getfixturevalue(case), layers)
    twin = dataclasses.replace(c, initial=0)
    noise = (NoiseModel({"CNOT": depolarizing_channel(0.02, 2)})
             if noisy else None)
    params = np.random.default_rng(53).uniform(-np.pi, np.pi, c.n_params)
    if noisy:
        real, cplx = (simulate_density(x, params, noise) for x in (c, twin))
    else:
        real, cplx = (simulate_state(x, params) for x in (c, twin))
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert np.max(np.abs(real - cplx)) <= 1e-12
    (e, grad), (want_e, want) = (_energy_and_gradient(x, params, h, noise)
                                 for x in (c, twin))
    assert abs(e - want_e) <= 1e-12
    assert np.max(np.abs(grad - want)) <= 1e-12


def test_real_flips_run_in_float64():
    """RY, X and CNOT circuits from |0...0> return float64 states and
    density matrices, noisy or not; a rotation about "X" and the VHA's
    strings (an even number of Y each) keep complex128."""
    from vqchem import (build_vha, coherent_state, encode_state,
                        qubit_encode, spin_boson_model)

    c = build_ry_ansatz(3, 1)
    c = Circuit(3, c.gates + [Gate("X", (1,))], c.n_params)
    params = np.linspace(0.1, 0.9, c.n_params)
    noise = NoiseModel({"CNOT": depolarizing_channel(0.02, 2)})
    assert simulate_state(c, params).dtype == np.float64
    assert simulate_density(c, params, None).dtype == np.float64
    assert simulate_density(c, params, noise).dtype == np.float64

    x_rot = Circuit(2, [Gate("RY", (0,), param_slot=0),
                        Gate("PAULI_ROT", (1,), param_slot=1, pauli="X")], 2)
    assert simulate_state(x_rot, [0.3, 0.4]).dtype == np.complex128
    assert simulate_density(x_rot, [0.3, 0.4], None).dtype == np.complex128
    enc = qubit_encode(*spin_boson_model(0.0, 1.0, 1.0, 0.5, 4), "gray")
    start = np.kron([1.0, 0.0], coherent_state(0.0, 4))
    vha = build_vha(enc, 1, encode_state(enc, start))
    theta = np.linspace(0.1, 0.5, vha.n_params)
    for circuit in (vha, dataclasses.replace(vha, initial=None)):
        assert simulate_state(circuit, theta).dtype == np.complex128
        assert simulate_density(circuit, theta, None).dtype == np.complex128


def test_shared_slot_gradient_sums_its_gates(h2):
    from vqchem.vqe import _GRAD_TOL

    h = parity_reduced_h2(h2)
    c = Circuit(2, [Gate("RY", (0,), param_slot=0),
                    Gate("RY", (1,), param_slot=0)], n_params=1)
    want = oracles.tied_slot_gradient(c, [0.3], h)
    assert abs(parameter_shift_gradient(c, [0.3], h)[0] - want[0]) \
        < ADJOINT_TOL
    # the optimizer takes the gradient path, not a derivative-free one
    res = hea_kernel(c, [0.3], h)
    assert res.njev > 0
    assert res.converged == (np.max(np.abs(res.grad_at_opt)) <= _GRAD_TOL)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("shots", [None, 64])
def test_hea_compiles_its_circuit_once(h4, noisy, shots, monkeypatch):
    """One hea_kernel call compiles the circuit once, however many
    evaluations its optimizer makes (L-BFGS without shots, SPSA's 401
    samples with them)."""
    import vqchem.gates as gates
    from vqchem.cli import _hea_init_params, _reference_bitstring

    c, h = hea_case(h4, 1)
    noise = (NoiseModel({"CNOT": depolarizing_channel(0.02, 2)})
             if noisy else None)
    compiled = []

    def counted(*args):
        compiled.append(args)
        return compile_(*args)

    compile_ = gates._compile
    monkeypatch.setattr(gates, "_compile", counted)
    res = hea_kernel(c, _hea_init_params(c, _reference_bitstring(h)), h,
                     noise=noise, shots=shots)
    assert res.nfev > 1 and len(compiled) == 1


def test_hea_simulates_once_per_evaluation(h4, monkeypatch):
    """Each evaluation runs the circuit forward once and computes its
    rotations once, for the forward and the reverse pass together."""
    import vqchem.gates as gates
    from vqchem.cli import _hea_init_params, _reference_bitstring
    from vqchem.operators import _RotationRuns

    c, h = hea_case(h4, 2)
    calls, rotations = [], []
    forward, rotate = gates._final_state, _RotationRuns.rotations

    def counted(*args):
        calls.append(args)
        return forward(*args)

    def counted_rotations(runs, params):
        rotations.append(params)
        return rotate(runs, params)

    monkeypatch.setattr(gates, "_final_state", counted)
    monkeypatch.setattr(_RotationRuns, "rotations", counted_rotations)
    res = hea_kernel(c, _hea_init_params(c, _reference_bitstring(h)), h)
    assert len(calls) == len(rotations) == res.nfev > 1


@pytest.mark.parametrize("noisy", [False, True])
def test_hea_pass_energy_is_the_expectation(h4, noisy, monkeypatch):
    """Each evaluation's energy is bit for bit the expectation of the
    simulated state, so the reverse pass changes no optimizer step."""
    import vqchem.gates as gates
    from vqchem.cli import _hea_init_params, _reference_bitstring

    c, h = hea_case(h4, 1)
    noise = (NoiseModel({"CNOT": depolarizing_channel(0.02, 2)})
             if noisy else None)
    passes = []
    lbfgs = gates._minimize_lbfgs

    def recorded(objective, x0):
        def tap(x):
            e, grad = objective(x)
            passes.append((x.copy(), e))
            return e, grad
        return lbfgs(tap, x0)

    monkeypatch.setattr(gates, "_minimize_lbfgs", recorded)
    res = hea_kernel(c, _hea_init_params(c, _reference_bitstring(h)), h,
                     noise=noise)
    assert len(passes) == res.nfev
    for x, e in passes:
        state = (simulate_state(c, x) if noise is None
                 else simulate_density(c, x, noise))
        assert e == expectation(state, h)


@pytest.mark.parametrize("noisy", [False, True])
def test_hea_rejects_non_hermitian_operator(noisy):
    h = QubitOperator(1, {((0, "X"),): 1j})
    c = Circuit(1, [Gate("RY", (0,), param_slot=0)], n_params=1)
    noise = (NoiseModel({"RY": depolarizing_channel(0.05, 1)})
             if noisy else None)
    with pytest.raises(InvalidOperator):
        hea_kernel(c, [0.3], h, noise=noise)


# ---------------------------------------------------------------------------
# Hardware-efficient VQE on the reduced two-qubit molecular problem
# ---------------------------------------------------------------------------

def hea_start(n_qubits, n_layers, bitstring):
    c = build_ry_ansatz(n_qubits, n_layers)
    init = np.zeros(c.n_params)
    for q, ch in enumerate(bitstring):
        if ch == "1":
            init[q] = np.pi
    return c, init


def test_hea_noiseless_reaches_exact_ground_state(h2):
    h = parity_reduced_h2(h2)
    c, init = hea_start(2, 1, "01")
    res = hea_kernel(c, init, h)
    assert res.converged
    assert abs(res.e - H2_FCI) < 1e-6


def test_hea_noisy_pinned_energy(h2):
    h = parity_reduced_h2(h2)
    c, init = hea_start(2, 1, "01")
    noise = NoiseModel({"CNOT": depolarizing_channel(0.1, 2)})
    res = hea_kernel(c, init, h, noise=noise)
    assert abs(res.e - (-1.0521770566223434)) < 1e-6


@pytest.mark.parametrize("case", ["h2", "h4"])
def test_hea_converged_is_the_gradient_test(case, request):
    from vqchem.cli import _hea_init_params, _reference_bitstring
    from vqchem.vqe import _GRAD_TOL

    s = request.getfixturevalue(case)
    h = parity_transform(build_fermion_hamiltonian(s), s.n_elec,
                         reduce_two_qubits=True)
    c = build_ry_ansatz(h.n_qubits, 1)
    res = hea_kernel(c, _hea_init_params(c, _reference_bitstring(h)), h)
    assert res.converged == (np.max(np.abs(res.grad_at_opt)) <= _GRAD_TOL)


def test_hea_without_parameters_evaluates_the_circuit():
    h = QubitOperator(1, {((0, "Z"),): 1.0})
    res = hea_kernel(Circuit(1, [Gate("X", (0,))], 0), [], h)
    assert res.e == -1.0 and res.converged and res.nfev == 1


def test_hea_sampled_objective_is_seeded(h2):
    h = parity_reduced_h2(h2)
    c, init = hea_start(2, 1, "01")
    a = hea_kernel(c, init, h, shots=256, seed=5)
    b = hea_kernel(c, init, h, shots=256, seed=5)
    assert a.e == b.e and np.array_equal(a.x, b.x)


def test_hea_sampled_objective_runs_spsa(h2):
    """SPSA's 200 iterations lower the exact noisy energy by more than
    10 mH; ``e`` is the last, 401st, sample, taken at ``x``."""
    h = parity_reduced_h2(h2)
    c, init = hea_start(2, 1, "01")
    noise = NoiseModel({"CNOT": depolarizing_channel(0.02, 2)})
    res = hea_kernel(c, init, h, noise=noise, shots=128, seed=9)
    start = expectation(simulate_density(c, init, noise), h)
    assert expectation(simulate_density(c, res.x, noise), h) < start - 0.010
    assert res.e == sampled_expectation(
        simulate_density(c, res.x, noise), h, 128, seed=9 + 401)
    assert np.all(np.isfinite(res.grad_at_opt))
    assert res.nfev == 401 and res.njev == 0 and not res.converged


# ---------------------------------------------------------------------------
# UCC factors compiled to Pauli rotations
# ---------------------------------------------------------------------------

def ucc_statevector(problem, params):
    v = civector_at(problem, params)
    return civector_to_statevector(v.space, v)


@pytest.mark.parametrize("at_optimum", [True, False])
def test_compiled_ucc_matches_determinant_engine(h2, at_optimum):
    problem = make_uccsd_problem(h2)
    if at_optimum:
        params = kernel(problem).x
    else:
        params = np.array([0.13, -0.21])
    c = compile_ucc_trotter(problem, params)
    assert c.n_params == 0
    psi = simulate_state(c, None)
    want = ucc_statevector(problem, params)
    np.testing.assert_allclose(psi, want, atol=1e-10)


def test_compiled_ucc_h4_random_params(h4):
    problem = make_uccsd_problem(h4)
    rng = np.random.default_rng(19)
    params = rng.uniform(-0.2, 0.2, size=problem.n_params)
    psi = simulate_state(compile_ucc_trotter(problem, params), None)
    np.testing.assert_allclose(psi, ucc_statevector(problem, params),
                               atol=1e-10)


_COMPILED_H6 = """
import json, resource
import numpy as np
import vqchem
from oracles import compile_ucc_trotter
s = vqchem.load_fcidump(vqchem.fixture_path("h6_sto3g"))
problem = vqchem.make_uccsd_problem(s)
params = np.random.default_rng(19).uniform(-0.2, 0.2, problem.n_params)
circuit = compile_ucc_trotter(problem, params)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
psi = vqchem.simulate_state(circuit, None)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
v = vqchem.civector_at(problem, params)
err = np.max(np.abs(psi - vqchem.civector_to_statevector(v.space, v)))
print(json.dumps({"widest": max(len(g.qubits) for g in circuit.gates),
                  "err": float(err), "grew_mb": (after - before) / 1024}))
"""


def test_compiled_ucc_h6_without_dense_rotations():
    """Rotations over all 12 qubits of h6 are applied from the string's
    action; a dense 4096 x 4096 matrix per string took about 0.27 GB."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(here.parent / "src"), str(here),
                    os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _COMPILED_H6], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout)
    assert result["widest"] == 12
    assert result["err"] < 1e-10
    assert result["grew_mb"] < 64
