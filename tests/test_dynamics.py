import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from vqchem import (
    BasisHalfSpin,
    BasisSHO,
    Circuit,
    FitError,
    Gate,
    InvalidParams,
    InvalidSymbol,
    SizeLimit,
    SymbolicTerm,
    ZeroState,
    ansatz_state,
    assemble_eom,
    boson_matrix,
    build_vha,
    coherent_state,
    encode_state,
    exact_propagate,
    marcus_model,
    marcus_rate_theory,
    parse_symbolic_term,
    qubit_encode,
    rate_fit,
    solve_thetadot,
    spin_boson_model,
    time_evolve,
    trajectory_to_csv,
)
from vqchem import dynamics, gates
from oracles import (
    decode_dense,
    mclachlan_thetadot,
    model_dense_matrix,
    vha_state_and_jacobian,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

ENCODINGS = ["unary", "binary", "gray"]


def lowering(nbas):
    m = np.zeros((nbas, nbas), dtype=complex)
    for k in range(nbas - 1):
        m[k, k + 1] = math.sqrt(k + 1)
    return m


def anharmonic_test_model(nbas=3):
    """A spin coupled to a small oscillator through several operator types,
    exercising every boson symbol in one Hamiltonian."""
    terms = [
        SymbolicTerm((("sigma_z", "s"),), 0.4),
        SymbolicTerm((("sigma_x", "s"),), -0.3),
        SymbolicTerm((("b^dagger b", "v"),), 1.1),
        SymbolicTerm((("sigma_z", "s"), ("b^dagger+b", "v")), 0.25),
        SymbolicTerm((("x", "v"),), 0.15),
        SymbolicTerm((), 0.05),
    ]
    basis = [BasisHalfSpin("s"), BasisSHO("v", omega=1.1, nbas=nbas)]
    return terms, basis


# ---------------------------------------------------------------------------
# Level-space operators
# ---------------------------------------------------------------------------

def test_boson_matrices():
    basis = BasisSHO("v", omega=2.0, nbas=5, mass=1.5)
    b = boson_matrix("b", basis)
    np.testing.assert_allclose(b, lowering(5), atol=0)
    np.testing.assert_allclose(boson_matrix("b^dagger", basis),
                               lowering(5).conj().T, atol=0)
    np.testing.assert_allclose(boson_matrix("b^dagger b", basis),
                               np.diag(np.arange(5.0)), atol=1e-15)
    x = boson_matrix("x", basis)
    p = boson_matrix("p", basis)
    np.testing.assert_allclose(x, x.conj().T, atol=1e-15)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-15)
    scale = math.sqrt(1.0 / (2.0 * 1.5 * 2.0))
    assert abs(x[0, 1] - scale) < 1e-15
    # canonical commutator, exact except in the truncated corner
    comm = b @ b.conj().T - b.conj().T @ b
    want = np.eye(5)
    want[4, 4] = -4.0
    np.testing.assert_allclose(comm, want, atol=1e-12)


def test_boson_matrix_validation():
    with pytest.raises(InvalidSymbol):
        boson_matrix("sigma_z", BasisSHO("v", omega=1.0, nbas=4))
    with pytest.raises(InvalidSymbol):
        boson_matrix("q", BasisSHO("v", omega=1.0, nbas=4))
    with pytest.raises(InvalidParams):
        BasisSHO("v", omega=1.0, nbas=1)


def test_symbolic_term_round_trip():
    term = SymbolicTerm((("sigma_z", "spin"), ("b^dagger b", "mode")), -0.75)
    back = parse_symbolic_term("-0.75 sigma_z@spin b^dagger_b@mode")
    assert back == term
    assert parse_symbolic_term("0.5").factors == ()
    aliased = parse_symbolic_term("1.0 n@mode")
    assert aliased.factors == (("b^dagger b", "mode"),)
    assert parse_symbolic_term("1.0 b^dagger_b@mode") == aliased


def test_symbolic_term_validation():
    with pytest.raises(InvalidParams):
        parse_symbolic_term("abc x@v")
    with pytest.raises(InvalidParams):
        parse_symbolic_term("nan sigma_z@spin")
    with pytest.raises(InvalidParams):
        parse_symbolic_term("1.0 sigma_z")
    with pytest.raises(InvalidSymbol):
        parse_symbolic_term("1.0 hop@v")
    with pytest.raises(InvalidParams):
        SymbolicTerm((("x", "v"), ("p", "v")), 1.0)  # twice the same dof


def test_model_dense_matrix_matches_manual_kron():
    """The spin-boson model, built in the level basis and decoded from its
    qubit encoding, against Kronecker products written out by hand."""
    eps, delta, omega, g, nbas = 0.3, 0.9, 1.2, 0.4, 4
    terms, basis = spin_boson_model(eps, delta, omega, g, nbas)
    got = model_dense_matrix(terms, basis)
    np.testing.assert_allclose(decode_dense(qubit_encode(terms, basis)), got,
                               atol=1e-12)
    ident = np.eye(nbas)
    n_op = np.diag(np.arange(float(nbas)))
    shift = lowering(nbas) + lowering(nbas).conj().T
    want = (eps / 2.0 * np.kron(SIGMA_Z, ident)
            + delta * np.kron(SIGMA_X, ident)
            + omega * np.kron(np.eye(2), n_op)
            + g * np.kron(SIGMA_Z, shift))
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(got, got.conj().T, atol=1e-12)


# ---------------------------------------------------------------------------
# Qubit encodings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("nbas", [3, 4])
def test_encoding_reproduces_level_matrix(encoding, nbas):
    terms, basis = anharmonic_test_model(nbas)
    enc = qubit_encode(terms, basis, encoding)
    level = model_dense_matrix(terms, basis)
    np.testing.assert_allclose(decode_dense(enc), level, atol=1e-10)


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_encoded_expectations_match_level_space(encoding):
    rng = np.random.default_rng(3)
    terms, basis = anharmonic_test_model(3)
    enc = qubit_encode(terms, basis, encoding)
    level = model_dense_matrix(terms, basis)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v /= np.linalg.norm(v)
    psi = encode_state(enc, v)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    h_dense = enc.qubit_terms.to_dense_matrix()
    got = (psi.conj() @ h_dense @ psi).real + enc.constant
    want = (v.conj() @ level @ v).real
    assert abs(got - want) < 1e-10


def test_register_widths():
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, 8)
    assert qubit_encode(terms, basis, "gray").n_qubits == 4
    assert qubit_encode(terms, basis, "binary").n_qubits == 4
    assert qubit_encode(terms, basis, "unary").n_qubits == 9
    terms5, basis5 = spin_boson_model(0.0, 1.0, 1.0, 0.5, 5)
    assert qubit_encode(terms5, basis5, "gray").n_qubits == 4  # padded to 8


def test_encoding_validation():
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, 17)
    with pytest.raises(SizeLimit):
        qubit_encode(terms, basis, "unary")
    with pytest.raises(InvalidParams):
        qubit_encode(terms, basis, "onehot")
    with pytest.raises(InvalidParams):
        qubit_encode(terms, [BasisHalfSpin("spin"), BasisHalfSpin("spin")])
    with pytest.raises(InvalidParams):
        qubit_encode([SymbolicTerm((("x", "ghost"),), 1.0)],
                     [BasisHalfSpin("spin")])


# ---------------------------------------------------------------------------
# Variational ansatz and equation of motion
# ---------------------------------------------------------------------------

def jacobian(circuit, theta):
    """The dynamics' state and Jacobian sweep, compiled here."""
    return dynamics._state_and_jacobian(circuit, theta,
                                        gates._compile(circuit, None))


def test_vha_zero_angles_give_initial_state():
    terms, basis = spin_boson_model(0.2, 1.0, 1.0, 0.5, 4)
    enc = qubit_encode(terms, basis)
    ansatz = build_vha(enc, n_layers=2, initial_state="100")
    psi = ansatz_state(ansatz, np.zeros(ansatz.n_params))
    want = np.zeros(8, dtype=complex)
    want[0b100] = 1.0
    np.testing.assert_allclose(psi, want, atol=0)
    assert ansatz.n_params == 2 * len(enc.qubit_terms.terms)


def test_vha_validation():
    terms, basis = spin_boson_model(0.2, 1.0, 1.0, 0.5, 4)
    enc = qubit_encode(terms, basis)
    with pytest.raises(InvalidParams):
        build_vha(enc, n_layers=0, initial_state=0)
    with pytest.raises(InvalidParams):
        build_vha(enc, n_layers=1, initial_state="01")  # wrong width
    with pytest.raises(InvalidParams):
        build_vha(enc, n_layers=1, initial_state=np.ones(4))
    ansatz = build_vha(enc, n_layers=1, initial_state=0)
    with pytest.raises(InvalidParams):
        ansatz_state(ansatz, np.zeros(ansatz.n_params + 1))


@pytest.mark.parametrize("start, error", [
    (-1, InvalidParams),               # not basis state 7
    (8, InvalidParams),
    (99, InvalidParams),               # not an IndexError
    (np.int64(8), InvalidParams),
    (np.zeros(8), ZeroState),          # not a NaN state
    (np.full(8, np.nan), InvalidParams),
    (np.r_[1.0, np.inf, np.zeros(6)], InvalidParams),
])
def test_vha_start_state_is_checked(start, error):
    terms, basis = spin_boson_model(0.2, 1.0, 1.0, 0.5, 4)
    enc = qubit_encode(terms, basis)
    assert enc.n_qubits == 3
    with pytest.raises(error):
        build_vha(enc, n_layers=1, initial_state=start)
    with pytest.raises(error):
        Circuit(3, [], initial=start)


def test_vha_is_one_pauli_rotation_per_string_and_layer():
    terms, basis = spin_boson_model(0.2, 1.0, 1.0, 0.5, 4)
    enc = qubit_encode(terms, basis)
    start = np.arange(8.0) + 1j
    circuit = build_vha(enc, n_layers=2, initial_state=start)
    keys = sorted(enc.qubit_terms.terms)
    assert [(g.kind, g.param_slot, tuple(zip(g.qubits, g.pauli)))
            for g in circuit.gates] == [
        ("PAULI_ROT", k, keys[k % len(keys)]) for k in range(2 * len(keys))]
    np.testing.assert_array_equal(circuit.initial,
                                  start / np.linalg.norm(start))


def test_vha_jacobian_matches_finite_difference():
    terms, basis = spin_boson_model(0.3, 0.8, 1.0, 0.4, 4)
    enc = qubit_encode(terms, basis)
    ansatz = build_vha(enc, n_layers=2, initial_state=1)
    rng = np.random.default_rng(5)
    theta = rng.uniform(-0.5, 0.5, size=ansatz.n_params)
    jac = jacobian(ansatz, theta)[1]
    h = 1e-6
    for k in range(ansatz.n_params):
        shift = np.zeros(ansatz.n_params)
        shift[k] = h
        want = (ansatz_state(ansatz, theta + shift)
                - ansatz_state(ansatz, theta - shift)) / (2 * h)
        np.testing.assert_allclose(jac[:, k], want, atol=1e-8)


def spin_boson_vha(encoding, nbas):
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, nbas)
    enc = qubit_encode(terms, basis, encoding)
    psi0 = encode_state(enc, np.kron([1.0, 0.0], coherent_state(0.0, nbas)))
    return build_vha(enc, n_layers=3, initial_state=psi0)


def marcus_vha():
    terms, basis, initial = marcus_model(-0.1, -1.0, 0.5, 1.0, 8)
    enc = qubit_encode(terms, basis, "gray")
    return build_vha(enc, n_layers=3, initial_state=encode_state(enc, initial))


def random_string_vha():
    """Y-heavy strings on three qubits, two layers of them, with a hand-made
    head: a repeated string and a commuting partner on the same flip mask
    (one run), then an anticommuting string on that mask (a new run)."""
    rng = np.random.default_rng(17)
    pool = [tuple((q, ch) for q, ch in enumerate(letters) if ch != "I")
            for letters in itertools.product("IXYZ", repeat=3)][1:]
    head = [((0, "X"), (1, "Y")), ((0, "X"), (1, "Y")),
            ((0, "Y"), (1, "X")), ((0, "Y"), (1, "Y"), (2, "Z"))]
    paulis = 2 * (head + [pool[i] for i in rng.choice(len(pool), size=12)])
    phi = rng.normal(size=8) + 1j * rng.normal(size=8)
    return Circuit(3, [
        Gate("PAULI_ROT", tuple(q for q, _ in term), param_slot=k,
             pauli="".join(ch for _, ch in term))
        for k, term in enumerate(paulis)], len(paulis), phi)


VHA_CASES = {
    "spin-boson-gray": lambda: spin_boson_vha("gray", 8),
    "spin-boson-binary": lambda: spin_boson_vha("binary", 8),
    "spin-boson-unary": lambda: spin_boson_vha("unary", 6),
    "marcus-gray": marcus_vha,
    "random-strings": random_string_vha,
}


@pytest.mark.parametrize("case", sorted(VHA_CASES))
def test_run_sweep_matches_per_rotation_oracle(case):
    ansatz = VHA_CASES[case]()
    rng = np.random.default_rng(23)
    for scale in (0.3, 3.0):
        theta = rng.uniform(-scale, scale, size=ansatz.n_params)
        want_psi, want_jac = vha_state_and_jacobian(ansatz, theta)
        psi, jac = jacobian(ansatz, theta)
        np.testing.assert_allclose(psi, want_psi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(jac, want_jac, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ansatz_state(ansatz, theta), want_psi,
                                   rtol=0, atol=1e-12)
    # the rotations really fuse: fewer runs than parameters
    assert len(gates._compile(ansatz, None).starts) - 1 < ansatz.n_params


def test_runs_break_on_anticommuting_strings():
    runs = gates._compile(random_string_vha(), None)
    # head: X0 Y1, X0 Y1, Y0 X1 fuse; Y0 Y1 Z2 anticommutes with X0 Y1
    assert list(runs.starts[:2]) == [0, 3]
    np.testing.assert_array_equal(runs.signs[:, :3] ** 2, 1.0)
    np.testing.assert_array_equal(runs.signs[:, 1], 1.0)


def count_sweeps(monkeypatch) -> list:
    """Record every pass the dynamics module makes over a circuit: "jacobian"
    for a state and Jacobian sweep, "state" for a state-only pass, and
    "compile" for a compilation."""
    calls = []
    for name, kind in (("_state_and_jacobian", "jacobian"),
                       ("simulate_state", "state"), ("_compile", "compile")):
        def counting(*args, _original=getattr(dynamics, name), _kind=kind):
            calls.append(_kind)
            return _original(*args)

        monkeypatch.setattr(dynamics, name, counting)
    return calls


@pytest.mark.parametrize("integrator, per_step", [("rk4", 4), ("euler", 1)])
def test_time_evolve_reuses_derivative_states(monkeypatch, integrator,
                                              per_step):
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, 4)
    enc = qubit_encode(terms, basis)
    ansatz = build_vha(enc, n_layers=3, initial_state=0)
    sz = spin_z_observable(basis).to_dense_matrix()
    n_steps = 6
    calls = count_sweeps(monkeypatch)
    traj = time_evolve(enc, ansatz, np.zeros(ansatz.n_params),
                       t_final=n_steps * 0.05, tau=0.05,
                       integrator=integrator, observables={"sz": sz})
    assert calls.count("jacobian") == per_step * n_steps
    assert calls.count("state") == 1 and calls[-1] == "state"
    assert calls.count("compile") == 1
    h_dense = enc.qubit_terms.to_dense_matrix()
    assert len(traj.times) == n_steps + 1
    for i, theta in enumerate(traj.thetas):
        psi = ansatz_state(ansatz, theta)
        assert abs((psi.conj() @ sz @ psi).real
                   - traj.observable("sz")[i]) <= 1e-14
        assert abs((psi.conj() @ h_dense @ psi).real + enc.constant
                   - traj.energies[i]) <= 1e-14


@pytest.mark.parametrize("kwargs, error", [
    ({"tau": math.nan}, InvalidParams),
    ({"tau": math.inf}, InvalidParams),
    ({"tau": 0.0}, InvalidParams),
    ({"tau": -0.1}, InvalidParams),
    ({"t_final": math.nan}, InvalidParams),
    ({"t_final": math.inf}, InvalidParams),
    ({"t_final": -1.0}, InvalidParams),
    ({"epsilon_reg": 0.0}, InvalidParams),
    ({"epsilon_reg": -1.0}, InvalidParams),
    ({"epsilon_reg": math.nan}, InvalidParams),
    ({"epsilon_reg": math.inf}, InvalidParams),
    ({"tau": 1e-300}, SizeLimit),
    ({"t_final": 1e300, "tau": 1e-300}, SizeLimit),
])
def test_time_evolve_rejects_bad_steps_before_work(monkeypatch, kwargs,
                                                   error):
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, 4)
    enc = qubit_encode(terms, basis)
    ansatz = build_vha(enc, n_layers=1, initial_state=0)
    args = {"t_final": 1.0, "tau": 0.1, **kwargs}
    calls = count_sweeps(monkeypatch)
    with pytest.raises(error):
        time_evolve(enc, ansatz, np.zeros(ansatz.n_params), **args)
    assert calls == []


def test_time_evolve_zero_duration_records_one_point(monkeypatch):
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, 4)
    enc = qubit_encode(terms, basis)
    ansatz = build_vha(enc, n_layers=1, initial_state=0)
    calls = count_sweeps(monkeypatch)
    traj = time_evolve(enc, ansatz, np.zeros(ansatz.n_params), t_final=0.0,
                       tau=0.1)
    assert calls == ["compile", "state"]
    assert traj.times.tolist() == [0.0]


def test_eom_assembly_and_regularized_solve():
    rng = np.random.default_rng(7)
    terms, basis = spin_boson_model(0.3, 0.8, 1.0, 0.4, 4)
    enc = qubit_encode(terms, basis)
    ansatz = build_vha(enc, n_layers=1, initial_state=1)
    theta = rng.uniform(-0.5, 0.5, size=ansatz.n_params)
    psi = ansatz_state(ansatz, theta)
    jac = jacobian(ansatz, theta)[1]
    h_dense = enc.qubit_terms.to_dense_matrix()
    sys = assemble_eom(jac, psi, h_dense)
    assert np.shares_memory(sys.w, jac)  # the sweep's rows, not a copy
    np.testing.assert_allclose(sys.M, sys.M.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(sys.M)) > -1e-12  # positive semidefinite
    np.testing.assert_allclose(sys.M, (jac.conj().T @ jac).real, atol=1e-12)
    np.testing.assert_allclose(sys.V, (jac.conj().T @ (h_dense @ psi)).imag,
                               atol=1e-12)

    # on a well-conditioned synthetic system the softened inverse is exact:
    # M = a a^T + 5 I from the factor [a, sqrt(5) I], solved on M's side
    a = rng.normal(size=(5, 5))
    w = np.hstack([a, math.sqrt(5.0) * np.eye(5)])
    b = rng.normal(size=10)
    m, v = a @ a.T + 5.0 * np.eye(5), w @ b
    sys2 = type(sys)(w=w, b=b, epsilon_reg=1e-8)
    np.testing.assert_allclose(sys2.M, m, atol=1e-12)
    np.testing.assert_allclose(solve_thetadot(sys2), np.linalg.solve(m, v),
                               atol=1e-7)
    # more parameters than factor columns: the Gram side gives the
    # least-norm solution of the singular M theta_dot = V
    w = rng.normal(size=(8, 5))
    sys3 = type(sys)(w=w, b=b[:5], epsilon_reg=1e-8)
    want = np.linalg.lstsq(w.T, b[:5], rcond=None)[0]
    np.testing.assert_allclose(solve_thetadot(sys3), want, atol=1e-7)
    np.testing.assert_allclose(sys3.M @ want, sys3.V, atol=1e-10)


def eom_case(terms, basis, initial):
    """The command line's default VHA (gray code, three layers) and its
    dense Hamiltonian."""
    enc = qubit_encode(terms, basis, "gray")
    ansatz = build_vha(enc, n_layers=3, initial_state=encode_state(enc,
                                                                    initial))
    return ansatz, enc.qubit_terms.to_dense_matrix()


def spin_boson_eom(nbas):
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, nbas)
    return eom_case(terms, basis,
                    np.kron([1.0, 0.0], coherent_state(0.0, nbas)))


EOM_CASES = {
    # n_params against 2 dim: 48 > 32 and 111 > 64 diagonalize w^T w,
    # Marcus's 168 < 256 diagonalizes M
    "spin-boson-gray-8": (lambda: spin_boson_eom(8), True),
    "spin-boson-gray-16": (lambda: spin_boson_eom(16), True),
    "marcus-gray": (lambda: eom_case(*marcus_model(-0.1, -1.0, 0.5, 1.0, 8)),
                    False),
}


def eom_points(ansatz):
    rng = np.random.default_rng(29)
    yield np.zeros(ansatz.n_params)
    for scale in (0.3, 3.0):
        yield rng.uniform(-scale, scale, size=ansatz.n_params)


@pytest.mark.parametrize("case", sorted(EOM_CASES))
def test_solve_thetadot_matches_m_side_oracle(case):
    build, gram_side = EOM_CASES[case]
    ansatz, h_dense = build()
    assert (ansatz.n_params > 2 << ansatz.n_qubits) == gram_side
    for theta in eom_points(ansatz):
        psi, jac = jacobian(ansatz, theta)
        got = solve_thetadot(assemble_eom(jac, psi, h_dense, 1e-5))
        want = mclachlan_thetadot(jac, psi, h_dense, 1e-5)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        assert np.max(np.abs(jac @ (got - want))) <= 1e-11


@pytest.mark.parametrize("case", [k for k, (_, gram) in EOM_CASES.items()
                                  if gram])
def test_solve_thetadot_has_no_null_space_component(case):
    """theta_dot = w f(w^T w) b lies in the span of w's columns.  M's
    side has no such structure: there the rounding in M's zero eigenvalues,
    divided by eps, leaves a null(J) part (1.7e-9 relative for Marcus at
    theta = 0, as in the oracle)."""
    ansatz, h_dense = EOM_CASES[case][0]()
    for theta in eom_points(ansatz):
        psi, jac = jacobian(ansatz, theta)
        sys = assemble_eom(jac, psi, h_dense)
        got = solve_thetadot(sys)
        # null(J) for real theta_dot is null(w^T): the left singular
        # vectors of w past its numerical rank
        u, sv, _ = np.linalg.svd(sys.w)
        null = u[:, int(np.sum(sv > 1e-10 * sv[0])):]
        # 1e-12: the M-side solve leaves 1.7e-10 to 7.2e-10 here
        assert np.linalg.norm(null.T @ got) <= 1e-12 * np.linalg.norm(got)


def test_trajectory_matches_m_side_oracle(monkeypatch):
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, 8)
    ansatz = spin_boson_eom(8)[0]
    enc = qubit_encode(terms, basis, "gray")
    args = (enc, ansatz, np.zeros(ansatz.n_params), 50 * 0.02, 0.02)
    obs = {"sz": spin_z_observable(basis)}
    new = time_evolve(*args, observables=obs)
    monkeypatch.setattr(dynamics, "assemble_eom",
                        lambda jac, psi, h, eps: (jac, psi, h, eps))
    monkeypatch.setattr(dynamics, "solve_thetadot",
                        lambda sys: mclachlan_thetadot(*sys))
    old = time_evolve(*args, observables=obs)
    assert new.times.size == 51
    assert np.max(np.abs(new.observable("sz") - old.observable("sz"))) <= 1e-9


def test_time_evolve_validation():
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, 4)
    enc = qubit_encode(terms, basis)
    ansatz = build_vha(enc, n_layers=1, initial_state=0)
    theta0 = np.zeros(ansatz.n_params)
    with pytest.raises(InvalidParams):
        time_evolve(enc, ansatz, theta0, t_final=1.0, tau=0.0)
    with pytest.raises(InvalidParams):
        time_evolve(enc, ansatz, theta0, t_final=1.0, tau=0.1,
                    integrator="leapfrog")
    with pytest.raises(InvalidParams):
        time_evolve(enc, ansatz, np.zeros(2), t_final=1.0, tau=0.1)


def refused_variant(circuit, variant):
    """The VHA with a gate the Jacobian sweep cannot hold a column for."""
    g = list(circuit.gates)
    if variant == "x":
        g.insert(0, Gate("X", (0,)))
    elif variant == "cnot":
        g.append(Gate("CNOT", (0, 1)))
    elif variant == "shared-slot":  # a second layer on the first's slots
        g += circuit.gates
    else:
        g[2] = dataclasses.replace(g[2], param_slot=None, angle=0.3)
    return Circuit(circuit.n_qubits, g, circuit.n_params, circuit.initial)


@pytest.mark.parametrize("variant", ["x", "cnot", "shared-slot",
                                     "fixed-angle"])
def test_time_evolve_refuses_circuits_it_cannot_differentiate(variant):
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, 4)
    enc = qubit_encode(terms, basis)
    circuit = refused_variant(build_vha(enc, n_layers=1, initial_state=0),
                              variant)
    with pytest.raises(InvalidParams, match="one rotation on slot k"):
        time_evolve(enc, circuit, np.zeros(circuit.n_params), t_final=0.1,
                    tau=0.05)


def spin_z_observable(basis, encoding="gray"):
    obs_terms = [SymbolicTerm((("sigma_z", "spin"),), 1.0)]
    return qubit_encode(obs_terms, basis, encoding).qubit_terms


def test_variational_evolution_tracks_exact_dynamics():
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, 8)
    enc = qubit_encode(terms, basis)
    sz = spin_z_observable(basis)
    ansatz = build_vha(enc, n_layers=3, initial_state=0)
    traj = time_evolve(enc, ansatz, np.zeros(ansatz.n_params), t_final=2.0,
                       tau=0.02, observables={"sz": sz})
    # exact reference on the same encoded register
    h_dense = enc.qubit_terms.to_dense_matrix()
    states = exact_propagate(h_dense, ansatz.initial, traj.times)
    sz_dense = sz.to_dense_matrix()
    exact_sz = np.einsum("ti,ij,tj->t", states.conj(), sz_dense, states).real
    assert np.max(np.abs(traj.observable("sz") - exact_sz)) < 5e-3
    # energy is a constant of motion for both routes
    assert np.ptp(traj.energies) < 1e-4
    assert abs(traj.energies[0]
               - ((ansatz.initial.conj() @ h_dense @ ansatz.initial).real
                  + enc.constant)) < 1e-12


def test_euler_converges_to_rk4():
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, 4)
    enc = qubit_encode(terms, basis)
    sz = spin_z_observable(basis)
    ansatz = build_vha(enc, n_layers=2, initial_state=0)
    theta0 = np.zeros(ansatz.n_params)
    fine = time_evolve(enc, ansatz, theta0, t_final=1.0, tau=0.005,
                       integrator="euler", observables={"sz": sz})
    ref = time_evolve(enc, ansatz, theta0, t_final=1.0, tau=0.02,
                      integrator="rk4", observables={"sz": sz})
    assert abs(fine.observable("sz")[-1] - ref.observable("sz")[-1]) < 5e-3


def test_trajectory_csv_layout():
    terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, 4)
    enc = qubit_encode(terms, basis)
    ansatz = build_vha(enc, n_layers=1, initial_state=0)
    traj = time_evolve(enc, ansatz, np.zeros(ansatz.n_params), t_final=0.1,
                       tau=0.05, observables={"sz": spin_z_observable(basis)})
    lines = trajectory_to_csv(traj).strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t" and header[-1] == "energy"
    assert "obs_sz" in header
    assert len(lines) == 1 + 3  # header + t=0, 0.05, 0.1


# ---------------------------------------------------------------------------
# Exact propagation
# ---------------------------------------------------------------------------

def test_exact_propagate_matches_expm():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2.0
    psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi0 /= np.linalg.norm(psi0)
    t_grid = np.array([0.0, 0.3, 1.7])
    states = exact_propagate(h, psi0, t_grid)
    for t, psi in zip(t_grid, states):
        want = expm(-1j * t * h) @ psi0
        np.testing.assert_allclose(psi, want, atol=1e-12)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Physical models and rate analysis
# ---------------------------------------------------------------------------

def test_coherent_state_statistics():
    alpha, nbas = 0.5, 20
    amps = coherent_state(alpha, nbas)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
    explicit = np.array([alpha ** n / math.sqrt(math.factorial(n))
                         for n in range(nbas)])
    explicit /= np.linalg.norm(explicit)
    np.testing.assert_allclose(amps, explicit, atol=1e-12)
    mean_n = float(np.sum(np.arange(nbas) * amps ** 2))
    assert abs(mean_n - alpha ** 2) < 1e-10


def test_marcus_model_structure():
    v, dg, omega, g, nbas = 0.1, -1.0, 0.5, 1.0, 8
    terms, basis, initial = marcus_model(v, dg, omega, g, nbas)
    assert [b.dof for b in basis] == ["charge", "boson0", "boson1"]
    assert abs(np.linalg.norm(initial) - 1.0) < 1e-12
    want = np.kron(np.kron([1.0, 0.0], coherent_state(-g, nbas)),
                   coherent_state(0.0, nbas))
    np.testing.assert_allclose(initial, want, atol=1e-12)


def test_marcus_initial_state_sits_on_relaxed_donor_surface():
    """With no coupling and no bias the initial state is the ground state of
    the donor surface, with energy -g^2 omega."""
    omega, g, nbas = 0.5, 1.0, 12
    terms, basis, initial = marcus_model(0.0, 0.0, omega, g, nbas)
    h = model_dense_matrix(terms, basis)
    e = (initial.conj() @ h @ initial).real
    assert abs(e - (-(g ** 2) * omega)) < 1e-8
    # eigenstate up to basis truncation: tiny energy variance
    var = (initial.conj() @ h @ h @ initial).real - e ** 2
    assert abs(var) < 1e-6


def test_marcus_rate_theory():
    v, lam, beta = 0.1, 1.0, 5.0
    peak = marcus_rate_theory(v, lam, -lam, beta)
    assert abs(peak - v * v * math.sqrt(math.pi * beta / lam)) < 1e-14
    grid = np.arange(0.0, -2.01, -0.25)
    rates = [marcus_rate_theory(v, lam, dg, beta) for dg in grid]
    assert grid[int(np.argmax(rates))] == -lam  # barrierless peak
    with pytest.raises(InvalidParams):
        marcus_rate_theory(v, 0.0, -1.0, beta)
    with pytest.raises(InvalidParams):
        marcus_rate_theory(v, lam, -1.0, 0.0)


def test_rate_fit():
    times = np.linspace(0.0, 10.0, 101)
    values = 1.0 - 0.031 * times
    assert abs(rate_fit(times, values) - 0.031) < 1e-12
    assert abs(rate_fit(times, values, t_window=(0.0, 10.0)) - 0.031) < 1e-12
    with pytest.raises(FitError):
        rate_fit([0.0, 5.0, 9.0], [1.0, 0.9, 0.8], t_window=(2.0, 4.0))
    with pytest.raises(FitError):
        rate_fit([3.0, 3.0, 3.0], [1.0, 0.9, 0.8])
