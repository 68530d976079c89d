"""Independent dense-matrix constructions used as test oracles.

Everything here is built from first principles with explicit index loops and
Kronecker products -- deliberately NOT sharing code paths with the package --
so agreement between the two is evidence of correctness rather than
self-consistency.

Index convention (matches the package's statevector embedding): a state index
carries one bit per spin orbital, with spin orbital ``s`` stored at bit ``s``
(so qubit ``q`` of an ``n``-qubit register corresponds to bit ``n - 1 - q``).
"""

import dataclasses

import numpy as np

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_ladder(n_so: int, index: int, dagger: bool) -> np.ndarray:
    """Fermionic creation/annihilation operator on the full Fock space with
    the ascending-creation-order sign convention (phase counts occupied
    lower-index spin orbitals)."""
    dim = 1 << n_so
    mat = np.zeros((dim, dim))
    lower = (1 << index) - 1
    for mask in range(dim):
        occupied = (mask >> index) & 1
        phase = -1.0 if bin(mask & lower).count("1") % 2 else 1.0
        if dagger and not occupied:
            mat[mask | (1 << index), mask] = phase
        elif not dagger and occupied:
            mat[mask ^ (1 << index), mask] = phase
    return mat


def dense_fermion_operator(op) -> np.ndarray:
    """Dense matrix of a FermionOperator via explicit ladder products."""
    n_so = op.n_spin_orbitals
    dim = 1 << n_so
    total = np.zeros((dim, dim), dtype=complex)
    for term, coeff in op.terms.items():
        acc = np.eye(dim, dtype=complex)
        for index, dagger in term:
            acc = acc @ dense_ladder(n_so, index, dagger)
        total += coeff * acc
    return total


def dense_pauli(n_qubits: int, term) -> np.ndarray:
    """Kronecker-product matrix of a Pauli term; qubit 0 is the leftmost
    (most significant) factor."""
    letters = ["I"] * n_qubits
    for q, letter in term:
        letters[q] = letter
    mat = np.eye(1, dtype=complex)
    for letter in letters:
        mat = np.kron(mat, PAULI_1Q[letter])
    return mat


def dense_qubit_operator(op) -> np.ndarray:
    total = np.zeros((1 << op.n_qubits,) * 2, dtype=complex)
    for term, coeff in op.terms.items():
        total += coeff * dense_pauli(op.n_qubits, term)
    return total


def embed_unitary(u: np.ndarray, qubits, n_qubits: int) -> np.ndarray:
    """Lift a k-qubit unitary onto ``n_qubits`` by explicit index
    arithmetic (qubit 0 = most significant index bit)."""
    k = len(qubits)
    dim = 1 << n_qubits
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        sub_col = 0
        for q in qubits:
            sub_col = (sub_col << 1) | bits[q]
        for sub_row in range(1 << k):
            amp = u[sub_row, sub_col]
            if amp == 0:
                continue
            new_bits = list(bits)
            for i, q in enumerate(qubits):
                new_bits[q] = (sub_row >> (k - 1 - i)) & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


def number_conserving_hamiltonian_matrix(s) -> np.ndarray:
    """Dense Fock-space Hamiltonian straight from the integral definition:
    sum_pq h_pq a+_p a_q + 1/2 sum g_pqrs a+_p a+_r a_s a_q + e_core,
    with spatial integrals expanded over both spins (beta 0..N-1,
    alpha N..2N-1)."""
    n = s.n_orb
    n_so = 2 * n
    dim = 1 << n_so
    total = np.eye(dim, dtype=complex) * s.e_core

    def so(p, spin):
        return p + spin * n

    create = {i: dense_ladder(n_so, i, True) for i in range(n_so)}
    destroy = {i: dense_ladder(n_so, i, False) for i in range(n_so)}
    for p in range(n):
        for q in range(n):
            if s.int1e[p, q] == 0.0:
                continue
            for spin in (0, 1):
                total += s.int1e[p, q] * (create[so(p, spin)]
                                          @ destroy[so(q, spin)])
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for t in range(n):
                    g = s.int2e[p, q, r, t]
                    if g == 0.0:
                        continue
                    for sp in (0, 1):
                        for sr in (0, 1):
                            total += 0.5 * g * (
                                create[so(p, sp)] @ create[so(r, sr)]
                                @ destroy[so(t, sr)] @ destroy[so(q, sp)]
                            )
    return total


def sparse_ladder_product(n_so: int, term) -> "scipy.sparse.csr_matrix":
    """Sparse Fock-space matrix of a product of ladder operators, same
    convention as :func:`dense_ladder` but built column-by-column with bit
    arithmetic so 12-qubit registers stay cheap.  ``term`` is a sequence of
    ``(index, dagger)`` pairs, leftmost factor acting last."""
    import scipy.sparse

    dim = 1 << n_so
    cols = np.arange(dim, dtype=np.int64)
    rows = np.arange(dim, dtype=np.int64)
    data = np.ones(dim)
    for index, dagger in reversed(tuple(term)):
        bit = 1 << index
        occupied = (rows & bit) != 0
        keep = ~occupied if dagger else occupied
        rows, cols, data = rows[keep], cols[keep], data[keep]
        parity = np.bitwise_count(rows & np.int64(bit - 1)) & 1
        data = data * (1.0 - 2.0 * parity)
        rows = (rows | bit) if dagger else (rows ^ bit)
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def sparse_excitation_generator(n_so: int, ex) -> "scipy.sparse.csr_matrix":
    """Anti-Hermitian generator T - T^dagger of an excitation tuple on the
    full Fock space: T = a+_p a_q for pairs, a+_p a+_q a_r a_s for
    quadruples."""
    half = len(ex) // 2
    term = tuple((i, True) for i in ex[:half]) + \
        tuple((i, False) for i in ex[half:])
    t = sparse_ladder_product(n_so, term)
    return (t - t.T).tocsr()


def spin_traced_rdms(n_orb: int, statevector) -> tuple:
    """Spin-traced one- and two-body density matrices of a real statevector
    straight from ladder products: rdm1[p,q] = sum_s <a+_ps a_qs> and
    rdm2[p,q,r,t] = sum_{s,u} <a+_ps a+_ru a_tu a_qs> (chemists' order),
    with beta spin-orbitals 0..N-1 and alpha N..2N-1."""
    n_so = 2 * n_orb
    psi = np.real(np.asarray(statevector))
    spins = (0, n_orb)
    rdm1 = np.zeros((n_orb, n_orb))
    rdm2 = np.zeros((n_orb,) * 4)
    for p in range(n_orb):
        for q in range(n_orb):
            for sp in spins:
                op = sparse_ladder_product(n_so, ((p + sp, True),
                                                  (q + sp, False)))
                rdm1[p, q] += psi @ (op @ psi)
            for r in range(n_orb):
                for t in range(n_orb):
                    for sp in spins:
                        for su in spins:
                            op = sparse_ladder_product(
                                n_so, ((p + sp, True), (r + su, True),
                                       (t + su, False), (q + sp, False)))
                            rdm2[p, q, r, t] += psi @ (op @ psi)
    return rdm1, rdm2


def sparse_number_conserving_hamiltonian(s) -> "scipy.sparse.csr_matrix":
    """Sparse Fock-space Hamiltonian with the terms and loops of
    :func:`number_conserving_hamiltonian_matrix`, each term a
    :func:`sparse_ladder_product`, so 12-qubit registers stay cheap."""
    import scipy.sparse

    n = s.n_orb
    n_so = 2 * n
    dim = 1 << n_so
    pieces = [scipy.sparse.identity(dim, format="coo") * s.e_core]

    def add(coeff, term):
        pieces.append(coeff * sparse_ladder_product(n_so, term).tocoo())

    def so(p, spin):
        return p + spin * n

    for p in range(n):
        for q in range(n):
            if s.int1e[p, q] == 0.0:
                continue
            for spin in (0, 1):
                add(s.int1e[p, q], ((so(p, spin), True), (so(q, spin), False)))
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for t in range(n):
                    g = s.int2e[p, q, r, t]
                    if g == 0.0:
                        continue
                    for sp in (0, 1):
                        for sr in (0, 1):
                            add(0.5 * g, ((so(p, sp), True), (so(r, sr), True),
                                          (so(t, sr), False),
                                          (so(q, sp), False)))
    rows = np.concatenate([m.row for m in pieces])
    cols = np.concatenate([m.col for m in pieces])
    data = np.concatenate([m.data for m in pieces])
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim))



def _dense_gates(c, noise):
    """Per gate, as full-register matrices: the gate's slot and angle, its
    unitary (X, CNOT) or the Pauli matrix P of its rotation
    exp(-i theta P / 2), and the Kraus operators of the channel bound to its
    kind (empty without noise)."""
    n = c.n_qubits
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    channels = {} if noise is None else noise.channels
    out = []
    for g in c.gates:
        if g.kind == "X":
            mat = dense_pauli(n, ((g.qubits[0], "X"),))
        elif g.kind == "CNOT":
            mat = embed_unitary(cnot, g.qubits, n)
        else:
            letters = "Y" if g.kind == "RY" else g.pauli
            mat = dense_pauli(n, tuple(zip(g.qubits, letters)))
        kraus = [embed_unitary(k, g.qubits, n)
                 for k in channels.get(g.kind, [])]
        out.append((g, mat, kraus))
    return out


def _dense_energy(gates, params, h_dense) -> float:
    dim = h_dense.shape[0]
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for g, mat, kraus in gates:
        if g.kind in ("RY", "PAULI_ROT"):
            theta = params[g.param_slot] if g.param_slot is not None \
                else g.angle
            u = np.cos(theta / 2) * np.eye(dim) - 1j * np.sin(theta / 2) * mat
        else:
            u = mat
        rho = u @ rho @ u.conj().T
        if kraus:
            rho = sum(k @ rho @ k.conj().T for k in kraus)
    return float(np.trace(h_dense @ rho).real)


def dense_circuit_energy(c, params, h, noise=None) -> float:
    """Tr(H rho) for |0><0| run through the circuit as full-register
    matrices, each gate followed by its channel."""
    return _dense_energy(_dense_gates(c, noise), params,
                         dense_qubit_operator(h))


def parameter_shift_gradient(c, params, h, noise=None) -> np.ndarray:
    """dE/dtheta_j = [E(theta_j + pi/2) - E(theta_j - pi/2)] / 2 with the
    energy of :func:`dense_circuit_energy`, two circuit evaluations per
    parameter; exact when each parameter drives one rotation."""
    gates = _dense_gates(c, noise)
    h_dense = dense_qubit_operator(h)
    params = np.asarray(params, dtype=float)
    grad = np.zeros(params.size)
    for j in range(params.size):
        shifted = params.copy()
        shifted[j] = params[j] + np.pi / 2
        e_plus = _dense_energy(gates, shifted, h_dense)
        shifted[j] = params[j] - np.pi / 2
        e_minus = _dense_energy(gates, shifted, h_dense)
        grad[j] = 0.5 * (e_plus - e_minus)
    return grad


def tied_slot_gradient(c, params, h, noise=None) -> np.ndarray:
    """The exact gradient of a circuit whose slots may drive several gates:
    give every parametrised gate its own slot, take
    :func:`parameter_shift_gradient` there, and sum it back per slot."""
    slots = np.array([g.param_slot for g in c.gates
                      if g.param_slot is not None], dtype=int)
    gates, k = [], 0
    for g in c.gates:
        if g.param_slot is not None:
            g = dataclasses.replace(g, param_slot=k)
            k += 1
        gates.append(g)
    untied = dataclasses.replace(c, gates=gates, n_params=k)
    grad = parameter_shift_gradient(untied, np.asarray(params)[slots], h,
                                    noise)
    return np.bincount(slots, weights=grad, minlength=c.n_params)


def vha_state_and_jacobian(ansatz, theta) -> tuple:
    """State and Jacobian of a layered Pauli-rotation ansatz, one parameter
    at a time: the full-register rotation cos(theta_k) - i sin(theta_k) P_k
    moves the state and the columns built so far, then column k is
    -i P_k psi."""
    n, n_terms = ansatz.n_qubits, len(ansatz.paulis)
    mats = [dense_pauli(n, term) for term in ansatz.paulis]
    buf = np.zeros((1 << n, len(theta) + 1), dtype=complex)
    buf[:, 0] = ansatz.phi
    for k, angle in enumerate(theta):
        p = mats[k % n_terms]
        buf[:, :k + 1] = (np.cos(angle) * buf[:, :k + 1]
                          - 1j * np.sin(angle) * (p @ buf[:, :k + 1]))
        buf[:, k + 1] = -1j * (p @ buf[:, 0])
    return buf[:, 0], buf[:, 1:]
