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



def sparse_same_spin_hamiltonian(s) -> "scipy.sparse.csr_matrix":
    """Sparse Fock-space Hamiltonian of one spin sector alone, on ``n_orb``
    spin-orbitals (bit p is orbital p), without e_core: sum_pq h_pq a+_p
    a_q + 1/2 sum g_pqrs a+_p a+_r a_s a_q, each term a
    :func:`sparse_ladder_product`.  A string's bitmask is its index."""
    n = s.n_orb
    total = sparse_ladder_product(n, ()) * 0.0
    for p in range(n):
        for q in range(n):
            if s.int1e[p, q] != 0.0:
                total = total + s.int1e[p, q] * sparse_ladder_product(
                    n, ((p, True), (q, False)))
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for t in range(n):
                    g = s.int2e[p, q, r, t]
                    if g != 0.0:
                        total = total + 0.5 * g * sparse_ladder_product(
                            n, ((p, True), (r, True), (t, False),
                                (q, False)))
    return total.tocsr()


def lowest_even_eigenvalue(h: np.ndarray, n_strings: int,
                           tol: float = 1e-8) -> float:
    """Lowest eigenvalue of the CI-space matrix ``h`` (alpha-string-major,
    ``n_strings`` strings per spin) that has an eigenvector C = C^T, read
    off a full ``eigh``.  H commutes with the alpha <-> beta exchange C ->
    C^T, so an eigenspace holds a symmetric eigenvector exactly when the
    symmetric parts of its orthonormal basis do not vanish."""
    vals, vecs = np.linalg.eigh(h)
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[i] < tol:
            j += 1
        block = vecs[:, i:j].reshape(n_strings, n_strings, j - i)
        if np.linalg.norm(block + block.transpose(1, 0, 2)) > 1.0:
            return float(vals[i])
        i = j
    raise ValueError("no symmetric eigenvector")


def kraus_channel(rho, kraus, qubits, n_qubits: int, adjoint: bool = False):
    """sum_k K rho K^dagger (sum_k K^dagger rho K with ``adjoint``), every
    Kraus operator lifted onto the register by :func:`embed_unitary`."""
    out = np.zeros_like(rho, dtype=complex)
    for k in kraus:
        e = embed_unitary(k, qubits, n_qubits)
        out += e.conj().T @ rho @ e if adjoint else e @ rho @ e.conj().T
    return out


def _dense_gates(c, noise):
    """The circuit as full-register matrices: its start statevector
    (``initial``, or |0...0>), and per gate the gate's slot and angle, its
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
    start = np.eye(1 << n, dtype=complex)[0] if c.initial is None \
        else c.initial
    return start, out


def _dense_energy(dense, params, h_dense) -> float:
    start, gates = dense
    dim = h_dense.shape[0]
    rho = np.outer(start, start.conj())
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
    """Tr(H rho) for the circuit's start state run through the circuit as
    full-register matrices, each gate followed by its channel."""
    return _dense_energy(_dense_gates(c, noise), params,
                         dense_qubit_operator(h))


def parameter_shift_gradient(c, params, h, noise=None) -> np.ndarray:
    """dE/dtheta_j = [E(theta_j + pi/2) - E(theta_j - pi/2)] / 2 with the
    energy of :func:`dense_circuit_energy`, two circuit evaluations per
    parameter; exact when each parameter drives one rotation."""
    dense = _dense_gates(c, noise)
    h_dense = dense_qubit_operator(h)
    params = np.asarray(params, dtype=float)
    grad = np.zeros(params.size)
    for j in range(params.size):
        shifted = params.copy()
        shifted[j] = params[j] + np.pi / 2
        e_plus = _dense_energy(dense, shifted, h_dense)
        shifted[j] = params[j] - np.pi / 2
        e_minus = _dense_energy(dense, shifted, h_dense)
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


def compile_ucc_trotter(problem, params):
    """A UCC problem at fixed parameters as a circuit: X gates prepare the
    reference, then each factor e^{theta G} becomes the Pauli rotations of
    G's Jordan-Wigner image.  Those strings commute, so the circuit prepares
    the determinant engine's state exactly; on h6 the rotations span all 12
    qubits."""
    from vqchem import Circuit, FermionOperator, Gate, jordan_wigner

    s = problem.integrals
    n_qubits = 2 * s.n_orb
    n_occ = s.n_elec // 2
    occupied = list(range(n_occ)) + [s.n_orb + i for i in range(n_occ)]
    gates = [Gate("X", (n_qubits - 1 - so,)) for so in occupied]
    for ex, pid in zip(problem.ex_ops, problem.param_ids):
        half = len(ex) // 2
        g = FermionOperator(n_qubits, {
            tuple((i, True) for i in ex[:half])
            + tuple((i, False) for i in ex[half:]): 1.0})
        generator = jordan_wigner(g - g.hermitian_conjugate())
        for term, coeff in sorted(generator.terms.items()):
            if abs(coeff) < 1e-14:
                continue
            # G = sum_k i beta_k P_k and e^{i theta beta P} is
            # PAULI_ROT(P, -2 theta beta)
            gates.append(Gate(
                "PAULI_ROT", tuple(q for q, _ in term),
                angle=-2.0 * float(params[pid]) * coeff.imag,
                pauli="".join(letter for _, letter in term)))
    return Circuit(n_qubits=n_qubits, gates=gates, n_params=0)


def model_dense_matrix(terms, basis) -> np.ndarray:
    """Level-basis matrix of a symbolic vibronic model: per term, the
    Kronecker product of one factor per degree of freedom in basis order
    (Pauli matrices on spins, truncated oscillator matrices on modes)."""
    from vqchem import BasisHalfSpin, boson_matrix

    spin = {"sigma_x": PAULI_1Q["X"], "sigma_z": PAULI_1Q["Z"]}
    dims = [2 if isinstance(b, BasisHalfSpin) else b.nbas for b in basis]
    where = {b.dof: k for k, b in enumerate(basis)}
    total = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for term in terms:
        mats = [np.eye(d, dtype=complex) for d in dims]
        for sym, dof in term.factors:
            b = basis[where[dof]]
            mats[where[dof]] = (spin[sym] if isinstance(b, BasisHalfSpin)
                                else boson_matrix(sym, b))
        acc = np.array([[term.coefficient]], dtype=complex)
        for m in mats:
            acc = np.kron(acc, m)
        total += acc
    return total


def decode_dense(enc) -> np.ndarray:
    """An encoded Hamiltonian written back in the level basis: the dense
    qubit matrix, plus the constant, between the encodings of the level
    basis vectors."""
    from vqchem import BasisHalfSpin, encode_state

    dim = int(np.prod([2 if isinstance(b, BasisHalfSpin) else b.nbas
                       for b in enc.basis]))
    codes = np.array([encode_state(enc, row) for row in np.eye(dim)]).T
    h = dense_qubit_operator(enc.qubit_terms)
    return codes.conj().T @ h @ codes + enc.constant * np.eye(dim)


def vha_state_and_jacobian(circuit, theta) -> tuple:
    """State and Jacobian of a variational Hamiltonian ansatz at VHA angles
    theta, one gate at a time from the circuit's ``initial`` state: gate k,
    PAULI_ROT(P_k, 2 theta_k) on slot k, is the full-register rotation
    cos(theta_k) - i sin(theta_k) P_k.  It moves the state and the columns
    built so far, then column k is -i P_k psi."""
    n = circuit.n_qubits
    buf = np.zeros((1 << n, len(theta) + 1), dtype=complex)
    buf[:, 0] = circuit.initial
    for k, g in enumerate(circuit.gates):
        assert g.kind == "PAULI_ROT" and g.param_slot == k
        p = dense_pauli(n, tuple(zip(g.qubits, g.pauli)))
        buf[:, :k + 1] = (np.cos(theta[k]) * buf[:, :k + 1]
                          - 1j * np.sin(theta[k]) * (p @ buf[:, :k + 1]))
        buf[:, k + 1] = -1j * (p @ buf[:, 0])
    return buf[:, 0], buf[:, 1:]


def mclachlan_thetadot(jac, psi, h_dense, epsilon_reg) -> np.ndarray:
    """McLachlan's theta_dot solved on M's side: M = Re(J^dagger J) and
    V = Im(J^dagger H psi) from the complex Jacobian, one eigendecomposition
    of the n_params-square M, each eigenvalue softened to lam + eps
    exp(-lam / eps) before it is inverted."""
    m = (jac.conj().T @ jac).real
    v = (jac.conj().T @ (h_dense @ psi)).imag
    lam, vecs = np.linalg.eigh((m + m.T) / 2.0)
    expo = np.clip(-lam / epsilon_reg, None, 700.0)
    lam_reg = lam + epsilon_reg * np.exp(expo)
    return vecs @ ((vecs.T @ v) / lam_reg)


# ---------------------------------------------------------------------------
# Signed rotation tables: the determinant-space UCC kernel before the tables
# dropped their signs, on tables built here from full spin-orbital bitmasks
# ---------------------------------------------------------------------------

def closed_shell_determinants(n_orb: int, n_elec: int) -> np.ndarray:
    """Bitmasks of the closed-shell determinants in CI-vector order: bit
    ``s`` is spin orbital ``s`` (beta ``0..n_orb-1`` below alpha), so the
    ascending masks run over (alpha string, beta string) pairs
    lexicographically."""
    masks = np.arange(1 << 2 * n_orb, dtype=np.int64)
    half = n_elec // 2
    keep = ((np.bitwise_count(masks & ((1 << n_orb) - 1)) == half)
            & (np.bitwise_count(masks >> n_orb) == half))
    return masks[keep]


def signed_excitation_table(dets: np.ndarray, ex):
    """(rows, cols, signs) of g = a+_p ... a_q ... on the determinants
    ``dets`` (a basis closed under g), with the phase convention of
    :func:`dense_ladder`; None when creation and annihilation indices are
    one set (G = g - g^dagger vanishes)."""
    half = len(ex) // 2
    if set(ex[:half]) == set(ex[half:]):
        return None
    cols = np.arange(len(dets))
    rows = dets.copy()
    signs = np.ones(len(dets))
    term = tuple((i, True) for i in ex[:half]) + \
        tuple((i, False) for i in ex[half:])
    for index, dagger in reversed(term):
        bit = 1 << index
        occupied = (rows & bit) != 0
        keep = ~occupied if dagger else occupied
        rows, cols, signs = rows[keep], cols[keep], signs[keep]
        signs = signs * (1.0 - 2.0 * (np.bitwise_count(rows & (bit - 1)) & 1))
        rows = rows ^ bit
    return np.searchsorted(dets, rows), cols, signs


def pair_hop_table(pair_dets: np.ndarray, p: int, q: int):
    """(rows, cols, signs) of the hard-core-boson hop b+_p b_q on the pair
    configurations ``pair_dets`` (bit ``p`` = spatial orbital ``p`` doubly
    occupied); pairs carry no fermionic signs."""
    alive = ((pair_dets >> q) & 1 == 1) & ((pair_dets >> p) & 1 == 0)
    cols = np.flatnonzero(alive)
    rows = np.searchsorted(pair_dets, pair_dets[cols] ^ (1 << p) ^ (1 << q))
    return rows, cols, np.ones(len(cols))


def signed_rotation_table(rows, cols, signs):
    """Both halves of every pair of G = g - g^dagger from the table of g:
    G|c> = s|r> and G|r> = -s|c>, so (G v)[rows] = signs * v[cols]."""
    return (np.concatenate([rows, cols]), np.concatenate([cols, rows]),
            np.concatenate([signs, -signs]))


def _signed_rotate(amps, table, theta) -> None:
    if table is None:
        return
    rows, cols, signs = table
    amps[rows] = (np.cos(theta) * amps[rows]
                  + np.sin(theta) * signs * amps[cols])


def signed_forward(tables, params, ids, start) -> np.ndarray:
    """prod_k e^{theta_k G_k} on a copy of ``start``, first table first."""
    amps = np.array(start, dtype=np.float64)
    for table, pid in zip(tables, ids):
        _signed_rotate(amps, table, params[pid])
    return amps


def signed_sweep(tables, params, ids, start, apply_h):
    """Energy and gradient of ``signed_forward`` by a reverse sweep over
    bra (H psi) and ket (psi), reading 2 <bra| G_k |ket> per factor."""
    ket = signed_forward(tables, params, ids, start)
    bra = apply_h(ket)
    e = float(np.dot(ket, bra))
    grad = np.zeros(len(params))
    for table, pid in zip(reversed(tables), reversed(ids)):
        if table is None:
            continue
        rows, cols, signs = table
        grad[pid] += 2.0 * float(np.dot(bra[rows], signs * ket[cols]))
        _signed_rotate(ket, table, -params[pid])
        _signed_rotate(bra, table, -params[pid])
    return e, grad


# ---------------------------------------------------------------------------
# Pair (seniority-zero) configurations and ADAPT pool gradients
# ---------------------------------------------------------------------------

def pair_configurations(n_orb: int, n_pairs: int) -> np.ndarray:
    """Bitmasks of the configurations of ``n_pairs`` electron pairs in
    ``n_orb`` spatial orbitals (bit ``p`` = orbital ``p`` doubly occupied),
    ascending."""
    return np.array([m for m in range(1 << n_orb)
                     if bin(m).count("1") == n_pairs], dtype=np.int64)


def pair_hamiltonian_matrix(s) -> np.ndarray:
    """Seniority-zero Hamiltonian on :func:`pair_configurations` straight
    from the integrals: a configuration with doubly occupied set O has the
    closed-shell determinant energy e_core + sum_{p in O} 2 h_pp +
    sum_{p, q in O} [2 (pp|qq) - (pq|qp)], and moving the pair on q to an
    empty orbital p has amplitude (pq|qp)."""
    n = s.n_orb
    confs = [int(m) for m in pair_configurations(n, s.n_elec // 2)]
    index = {m: i for i, m in enumerate(confs)}
    mat = np.zeros((len(confs), len(confs)))
    for i, m in enumerate(confs):
        occ = [p for p in range(n) if (m >> p) & 1]
        e = s.e_core
        for p in occ:
            e += 2.0 * s.int1e[p, p]
            for q in occ:
                e += 2.0 * s.int2e[p, p, q, q] - s.int2e[p, q, q, p]
        mat[i, i] = e
        for q in occ:
            for p in range(n):
                if not (m >> p) & 1:
                    hop = index[m ^ (1 << p) ^ (1 << q)]
                    mat[hop, i] += s.int2e[p, q, q, p]
    return mat


def adapt_pool_gradients(space, pool, psi, h_psi) -> np.ndarray:
    """ADAPT pool gradients by one full generator application per member:
    the sum over each group of 2 <H psi| G psi>, with G psi a CI vector from
    ``vqchem.apply_excitation``.  This is the loop ADAPT ran before it read
    the gradients from the rotation tables, kept as their reference."""
    from vqchem import apply_excitation

    return np.array([
        sum(2.0 * float(np.dot(h_psi,
                               apply_excitation(space, psi, ex).amplitudes))
            for ex in group)
        for group in pool.groups
    ])


def scipy_lbfgsb(objective, x0, maxiter: int = 200):
    """scipy's L-BFGS-B on ``objective(x) -> (energy, gradient)`` with the
    options of the package's optimizer driver: history 10, projected
    gradient tolerance 1e-6, relative reduction tolerance 1e-18.  Returns
    scipy's ``OptimizeResult``."""
    from scipy.optimize import minimize

    return minimize(objective, np.array(x0, dtype=float), jac=True,
                    method="L-BFGS-B",
                    options={"maxcor": 10, "maxiter": maxiter, "gtol": 1e-6,
                             "ftol": 1e-18})


def full_davidson(space, s, tol: float = 1e-8, max_iter: int = 200,
                  max_subspace: int = 30):
    """The symmetric Davidson on full-length vectors: lowest eigenpair of H
    among C = C^T, with every vector stored as all ``space.dim`` amplitudes
    and symmetrised as (X + X^T) / 2.  H is applied by the package's
    symmetric sigma, looked up on the module at each call so that a test can
    count the applications.  Returns the energy and the normalised
    vector."""
    from vqchem import civector

    dim = space.dim
    n = space.n_strings_alpha

    def symmetrize(x):
        x = x.reshape(n, n)
        x += x.T
        x *= 0.5
        return x.ravel()

    def orthogonalize(x, basis):
        for _ in range(2):
            x -= (basis @ x) @ basis
        nrm = np.linalg.norm(x)
        if nrm < 1e-12:
            return None
        return x / nrm

    diag = civector.hamiltonian_diagonal(space, s)
    basis = np.empty((max_subspace, dim))
    sigmas = np.empty((max_subspace, dim))
    small = np.empty((max_subspace, max_subspace))
    start = np.zeros(dim)
    start[int(np.argmin(diag))] = 1.0
    start = symmetrize(start)
    basis[0] = start / np.linalg.norm(start)
    k = 0
    for _ in range(max_iter):
        sigmas[k] = civector._sigma(space, s, basis[k], symmetric=True)
        small[k, :k + 1] = small[:k + 1, k] = sigmas[:k + 1] @ basis[k]
        k += 1
        vals, vecs = np.linalg.eigh(small[:k, :k])
        theta = float(vals[0])
        coeff = vecs[:, 0]
        ritz = coeff @ basis[:k]
        h_ritz = coeff @ sigmas[:k]
        residual = h_ritz - theta * ritz
        if np.linalg.norm(residual) < tol:
            return theta, ritz / np.linalg.norm(ritz)
        if k == max_subspace:
            nrm = np.linalg.norm(ritz)
            basis[0] = ritz / nrm
            sigmas[0] = h_ritz / nrm
            small[0, 0] = float(np.dot(basis[0], sigmas[0]))
            k = 1
        denom = diag - theta
        denom[np.abs(denom) < 1e-8] = 1e-8
        residual /= denom
        new = orthogonalize(symmetrize(residual), basis[:k])
        if new is None:
            rng = np.random.default_rng(k)
            new = orthogonalize(symmetrize(rng.standard_normal(dim)),
                                basis[:k])
        basis[k] = new
    raise RuntimeError(f"no convergence to {tol} in {max_iter} steps")


# ---------------------------------------------------------------------------
# Letter-table Pauli algebra: the package's former fermion maps and product,
# kept as the reference for the bit-mask implementation.  Summation order is
# part of the reference: each fermion term's strings are collected after
# every factor, then the terms are added in order.
# ---------------------------------------------------------------------------

# Single-qubit products: (left, right) -> (phase, result letter).
PAULI_PRODUCT = {
    ("X", "X"): (1, "I"), ("Y", "Y"): (1, "I"), ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}


def pauli_term_product(ta, tb):
    """(phase, term) of the product of two sorted Pauli terms, one letter
    at a time."""
    letters = dict(ta)
    phase = 1.0
    for q, lb in tb:
        la = letters.get(q)
        if la is None:
            letters[q] = lb
        else:
            ph, res = PAULI_PRODUCT.get((la, lb), (1, "I"))
            phase *= ph
            if res == "I":
                del letters[q]
            else:
                letters[q] = res
    return phase, tuple(sorted(letters.items()))


def term_dict_product(a: dict, b: dict) -> dict:
    """Product of two Pauli sums given as term dicts, terms collected."""
    out = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            phase, term = pauli_term_product(ta, tb)
            out[term] = out.get(term, 0.0) + ca * cb * phase
    return out


def letter_product(a, b):
    """``a * b`` for two QubitOperators by the letter table."""
    from vqchem import QubitOperator

    return QubitOperator(a.n_qubits, term_dict_product(a.terms, b.terms))


def reverse_qubit_labels(op):
    from vqchem import QubitOperator

    n = op.n_qubits
    out = {}
    for term, c in op.terms.items():
        new = tuple(sorted((n - 1 - q, letter) for q, letter in term))
        out[new] = out.get(new, 0.0) + c
    return QubitOperator(n, out)


def jw_ladder(n: int, index: int, dagger: bool):
    """JW image of one ladder operator in orbital-indexed qubit labels."""
    from vqchem import QubitOperator

    z_tail = tuple((l, "Z") for l in range(index))
    sign = -1j if dagger else 1j
    return QubitOperator(n, {
        z_tail + ((index, "X"),): 0.5,
        z_tail + ((index, "Y"),): sign * 0.5,
    })


def parity_ladder(n: int, index: int, dagger: bool):
    """Parity-basis image of one ladder operator, orbital-indexed labels."""
    from vqchem import QubitOperator

    x_tail = tuple((l, "X") for l in range(index + 1, n))
    sign = -1j if dagger else 1j
    if index == 0:
        local = {((0, "X"),) + x_tail: 0.5, ((0, "Y"),) + x_tail: sign * 0.5}
    else:
        local = {
            ((index - 1, "Z"), (index, "X")) + x_tail: 0.5,
            ((index, "Y"),) + x_tail: sign * 0.5,
        }
    return QubitOperator(n, local)


def _letter_map(op, ladder):
    """Sum over the terms of ``op`` of the product of the ladder images of
    their factors (orbital-indexed labels), small coefficients dropped."""
    from vqchem import QubitOperator

    n = op.n_spin_orbitals
    images = {f: ladder(n, *f).terms for f in {f for t in op.terms for f in t}}
    out = {}
    for term, coeff in op.terms.items():
        acc = {(): coeff}
        for factor in term:
            acc = term_dict_product(acc, images[factor])
        for key, c in acc.items():
            out[key] = out.get(key, 0.0) + c
    return QubitOperator(n, out).simplify()


def letter_jordan_wigner(op):
    return reverse_qubit_labels(_letter_map(op, jw_ladder)).simplify()


def letter_parity_transform(op, n_elec: int, reduce_two_qubits: bool = False):
    """Parity map and two-qubit reduction, letter by letter.  Raises
    ``UnsupportedReduction`` with the package's messages."""
    from vqchem import QubitOperator, UnsupportedReduction

    n = op.n_spin_orbitals
    out = _letter_map(op, parity_ladder)
    if not reduce_two_qubits:
        return reverse_qubit_labels(out).simplify()
    if n_elec % 2 != 0:
        raise UnsupportedReduction("two-qubit reduction needs even n_elec")
    if n % 2 != 0:
        raise UnsupportedReduction("two-qubit reduction needs an even number "
                                   "of spin-orbitals")
    if n < 4:
        raise UnsupportedReduction("two-qubit reduction needs >= 4 spin-orbitals")
    q_beta, q_total = n // 2 - 1, n - 1
    z_beta = -1.0 if (n_elec // 2) % 2 else 1.0
    z_total = -1.0 if n_elec % 2 else 1.0
    reduced = {}
    for term, c in out.terms.items():
        letters = dict(term)
        for q, eig in ((q_beta, z_beta), (q_total, z_total)):
            letter = letters.pop(q, None)
            if letter == "Z":
                c = c * eig
            elif letter is not None:
                raise UnsupportedReduction(
                    "operator does not conserve the parities required for "
                    f"two-qubit reduction (letter {letter} on qubit {q})"
                )
        new = tuple(sorted(
            (q if q < q_beta else q - 1, letter)
            for q, letter in letters.items()
        ))
        reduced[new] = reduced.get(new, 0.0) + c
    return reverse_qubit_labels(QubitOperator(n - 2, reduced)).simplify()


def letter_pauli_action(n: int, term):
    """P|i> = phase_i |target_i> over all 2^n basis states i, one letter of
    the string ``term`` at a time (qubit 0 is the most significant bit)."""
    idx = np.arange(1 << n)
    target = idx.copy()
    phase = np.ones(1 << n, dtype=complex)
    for q, letter in term:
        pos = n - 1 - q
        bit = (idx >> pos) & 1
        if letter == "X":
            target ^= 1 << pos
        elif letter == "Y":
            target ^= 1 << pos
            phase = phase * (1.0j * (1.0 - 2.0 * bit))
        else:  # Z
            phase = phase * (1.0 - 2.0 * bit)
    return target, phase


def pauli_action_sparse_matrix(op):
    """The compiled matrix of ``op`` assembled from one letter-by-letter
    action per term: terms that flip the same qubits are summed in term
    order, flip patterns in order of first appearance."""
    from scipy.sparse import csr_matrix

    dim = 1 << op.n_qubits
    cols = np.arange(dim)
    values = {}
    for term, c in op.terms.items():
        target, phase = letter_pauli_action(op.n_qubits, term)
        flip = int(target[0])  # target_i = i XOR flip
        values[flip] = values.get(flip, 0.0) + c * phase
    flips = np.fromiter(values, dtype=np.int64, count=len(values))
    matrix = csr_matrix(
        (np.array(list(values.values()), dtype=complex).ravel(),
         ((cols[None, :] ^ flips[:, None]).ravel(),
          np.tile(cols, len(values)))),
        shape=(dim, dim),
    )
    matrix.eliminate_zeros()
    return matrix
