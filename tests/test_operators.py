import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqchem import (
    FermionOperator,
    InvalidOperator,
    QubitOperator,
    SizeLimit,
    UnsupportedReduction,
    build_fermion_hamiltonian,
    build_hubbard,
    civector_to_statevector,
    hf_vector,
    jordan_wigner,
    make_ci_space,
    parity_transform,
)
from vqchem import operators
from vqchem.dynamics import qubit_encode, spin_boson_model
from vqchem.gates import expectation
from oracles import (
    add_adjoint,
    dense_fermion_operator,
    dense_qubit_operator,
    jw_ladder,
    letter_jordan_wigner,
    letter_parity_transform,
    letter_pauli_action,
    letter_product,
    parity_ladder,
    pauli_action_sparse_matrix,
    reverse_qubit_labels,
)


def random_fermion_operator(rng, n_so, n_terms=4, max_len=3,
                             hermitian=False):
    """Random terms, coefficients of a repeated term summed; with
    ``hermitian`` the operator plus its adjoint."""
    terms = {}
    for _ in range(n_terms):
        length = int(rng.integers(1, max_len + 1))
        term = tuple(
            (int(rng.integers(0, n_so)), bool(rng.integers(0, 2)))
            for _ in range(length)
        )
        coeff = complex(rng.normal(), rng.normal())
        terms[term] = terms.get(term, 0.0) + coeff
    op = FermionOperator(n_so, terms)
    return add_adjoint(op) if hermitian else op


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_fermion_operator_index_validation():
    with pytest.raises(InvalidOperator):
        FermionOperator(2, {((2, True),): 1.0})
    with pytest.raises(InvalidOperator):
        FermionOperator(0, {})


def test_operator_size_mismatch_raises():
    a = QubitOperator(2, {((0, "X"),): 1.0})
    b = QubitOperator(4, {((0, "X"),): 1.0})
    with pytest.raises(InvalidOperator):
        a + b
    with pytest.raises(InvalidOperator):
        a * b


# ---------------------------------------------------------------------------
# Jordan-Wigner mapping
# ---------------------------------------------------------------------------

def test_jordan_wigner_matches_dense_ladders():
    rng = np.random.default_rng(3)
    for n_so in (2, 3, 5):
        op = random_fermion_operator(rng, n_so, n_terms=5)
        image = jordan_wigner(op)
        np.testing.assert_allclose(
            dense_qubit_operator(image),
            dense_fermion_operator(op),
            atol=1e-12,
        )


@settings(max_examples=60, deadline=None)
@given(
    n_orb=st.integers(min_value=1, max_value=5),
    i=st.integers(min_value=0, max_value=9),
    j=st.integers(min_value=0, max_value=9),
    dag_i=st.booleans(),
    dag_j=st.booleans(),
)
def test_jw_preserves_anticommutation(n_orb, i, j, dag_i, dag_j):
    """{a_i, a_j} = 0, {a_i, a_j^dag} = delta_ij on up to 5 orbitals."""
    n_so = 2 * n_orb
    i, j = i % n_so, j % n_so
    a = dense_qubit_operator(
        jordan_wigner(FermionOperator(n_so, {((i, dag_i),): 1.0})))
    b = dense_qubit_operator(
        jordan_wigner(FermionOperator(n_so, {((j, dag_j),): 1.0})))
    anti = a @ b + b @ a
    if i == j and dag_i != dag_j:
        expected = np.eye(1 << n_so)
    else:
        expected = np.zeros((1 << n_so, 1 << n_so))
    np.testing.assert_allclose(anti, expected, atol=1e-12)


def test_jw_number_operator_is_diagonal_projector():
    n_so = 4
    for p in range(n_so):
        num = jordan_wigner(FermionOperator(
            n_so, {((p, True), (p, False)): 1.0}))
        dense = dense_qubit_operator(num)
        expected = np.diag([
            1.0 if (idx >> p) & 1 else 0.0 for idx in range(1 << n_so)
        ])
        np.testing.assert_allclose(dense, expected, atol=1e-12)


def test_h2_jw_pinned_coefficients(h2):
    op = jordan_wigner(build_fermion_hamiltonian(h2))
    coeffs = {term: complex(c) for term, c in op.terms.items()}
    identity = coeffs[()]
    xxxx = coeffs[((0, "X"), (1, "X"), (2, "X"), (3, "X"))]
    assert abs(identity - (-0.09835117053027564)) < 1e-9
    assert abs(xxxx - 0.04531660419443148) < 1e-9


# ---------------------------------------------------------------------------
# Parity mapping and two-qubit reduction
# ---------------------------------------------------------------------------

def test_parity_vs_jw_spectral_equivalence():
    rng = np.random.default_rng(23)
    for n_so in (2, 4, 6):
        op = random_fermion_operator(rng, n_so, n_terms=4, hermitian=True)
        jw = dense_qubit_operator(jordan_wigner(op))
        par = dense_qubit_operator(parity_transform(op, n_elec=2))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(jw), np.linalg.eigvalsh(par), atol=1e-9)


def test_maps_match_operator_sum_reference(h4):
    """The maps equal the operator-sum accumulation of the letter-table
    ladder images (each term's product of QubitOperators, the terms added
    in order) in keys, key order and coefficients (to 1e-15)."""

    def operator_sum(op, ladder):
        n = op.n_spin_orbitals
        out = QubitOperator(n, {})
        for term, coeff in op.terms.items():
            acc = QubitOperator.identity(n, coeff)
            for idx, dag in term:
                acc = acc * ladder(n, idx, dag)
            out = out + acc
        return reverse_qubit_labels(out.simplify()).simplify()

    h_fermion = build_fermion_hamiltonian(h4)
    for got, ladder in ((jordan_wigner(h_fermion), jw_ladder),
                        (parity_transform(h_fermion, h4.n_elec),
                         parity_ladder)):
        want = operator_sum(h_fermion, ladder)
        assert list(got.terms) == list(want.terms)
        assert max(abs(got.terms[k] - want.terms[k]) for k in want.terms) \
            <= 1e-15


def assert_same_operator(got, want):
    """Same qubit count, same keys in the same order, and coefficients
    equal in their real and imaginary parts."""
    assert got.n_qubits == want.n_qubits
    assert list(got.terms) == list(want.terms)
    for key, c in want.terms.items():
        g, w = complex(got.terms[key]), complex(c)
        assert (g.real, g.imag) == (w.real, w.imag), key


def assert_maps_match_letter_oracle(op, n_elec):
    """JW, parity and reduced parity equal the letter-table maps exactly;
    a refused reduction is refused with the oracle's message."""
    assert_same_operator(jordan_wigner(op), letter_jordan_wigner(op))
    for reduce in (False, True):
        try:
            want = letter_parity_transform(op, n_elec, reduce)
        except UnsupportedReduction as exc:
            with pytest.raises(UnsupportedReduction) as got:
                parity_transform(op, n_elec, reduce)
            assert str(got.value) == str(exc)
            continue
        assert_same_operator(parity_transform(op, n_elec, reduce), want)


_coeffs = st.one_of(
    st.floats(-10.0, 10.0),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                       allow_infinity=False),
)


@st.composite
def fermion_operators(draw, max_n_so=12):
    """Random operators with terms of length 0-4, some vanishing (a repeated
    factor such as a_p^ a_p^).  In paired mode every factor comes in a pair
    from one spin sector, which conserves both parities the two-qubit
    reduction freezes."""
    paired = draw(st.booleans())
    n_so = draw(st.integers(1, max_n_so))
    if paired:  # mostly a size the reduction accepts
        n_so = max(4, n_so - n_so % 2)
    half = n_so // 2
    index = st.integers(0, n_so - 1)
    terms = {}
    for _ in range(draw(st.integers(0, 3)) + draw(st.integers(0, 6))):
        term = []
        if paired:
            for _ in range(draw(st.integers(0, 2))):
                lo, hi = draw(st.sampled_from([(0, half), (half, n_so)]))
                if lo == hi:
                    continue
                pair = draw(st.lists(st.tuples(st.integers(lo, hi - 1),
                                               st.booleans()),
                                     min_size=2, max_size=2))
                if draw(st.integers(0, 3)) == 0:
                    pair[1] = pair[0]
                term += pair
            term = draw(st.permutations(term))
        else:
            term = draw(st.lists(st.tuples(index, st.booleans()),
                                 max_size=4))
            if term and draw(st.integers(0, 3)) == 0:
                term.append(term[-1])
                term = term[-4:]
        terms[tuple(term)] = draw(_coeffs)
    return FermionOperator(n_so, terms)


@settings(max_examples=150, deadline=None)
@given(op=fermion_operators(),
       n_elec=st.one_of(st.integers(0, 6).map(lambda k: 2 * k),
                        st.integers(0, 12)))
def test_maps_match_letter_oracle_on_random_operators(op, n_elec):
    assert_maps_match_letter_oracle(op, n_elec)


@pytest.mark.parametrize("case", ["h2", "h4", "h6", "hubbard"])
def test_maps_match_letter_oracle_on_bundled_hamiltonians(case, request):
    s = (build_hubbard(4, 1.0, 4.0) if case == "hubbard"
         else request.getfixturevalue(case))
    assert_maps_match_letter_oracle(build_fermion_hamiltonian(s), s.n_elec)


@st.composite
def qubit_operator_pairs(draw):
    n = draw(st.integers(1, 12))
    ops = []
    for _ in range(2):
        terms = {}
        for _ in range(draw(st.integers(0, 6))):
            letters = draw(st.lists(st.sampled_from("IXYZ"), min_size=n,
                                    max_size=n))
            key = tuple((q, ch) for q, ch in enumerate(letters) if ch != "I")
            terms[key] = draw(_coeffs)
        ops.append(QubitOperator(n, terms))
    return ops


@settings(max_examples=150, deadline=None)
@given(pair=qubit_operator_pairs())
def test_product_matches_letter_oracle(pair):
    a, b = pair
    assert_same_operator(a * b, letter_product(a, b))


def test_masks_refuse_more_than_64_qubits():
    op = FermionOperator(65, {((64, True), (0, False)): 1.0})
    with pytest.raises(SizeLimit):
        jordan_wigner(op)
    with pytest.raises(SizeLimit):
        parity_transform(op, n_elec=2)
    with pytest.raises(SizeLimit):
        QubitOperator(65, {((64, "X"),): 1.0})


@pytest.mark.parametrize("n_so", [40, 64])
def test_wide_operators_map_like_the_letter_oracle(n_so):
    """Masks wider than 32 bits, up to the top bit of 64."""
    rng = np.random.default_rng(n_so)
    half = n_so // 2
    terms = {}
    for _ in range(12):
        lo, hi = (0, half) if rng.integers(2) else (half, n_so)
        p, q, r, s = (int(i) for i in rng.integers(lo, hi, 4))
        terms[((p, True), (q, False))] = complex(rng.normal(), rng.normal())
        terms[((p, True), (r, True), (s, False), (q, False))] = rng.normal()
    terms[((n_so - 1, True), (0, True), (n_so - 1, False))] = 0.5
    op = FermionOperator(n_so, terms)
    assert_maps_match_letter_oracle(op, 6)
    assert_maps_match_letter_oracle(add_adjoint(op), 6)
    a = jordan_wigner(op)
    assert_same_operator(a * a, letter_product(a, a))


def test_parity_masks_of_an_odd_operator_stay_on_n_bits():
    """The prefix parity of an odd-weight x runs past bit n - 1; the masks
    the image keeps (``x``, ``z``) are those of its terms."""
    op = FermionOperator(5, {((j, dag),): 1.0 for j in range(5)
                             for dag in (False, True)})
    got = parity_transform(op, 0)
    fresh = QubitOperator(5, got.terms)
    for kept, again in ((got.x, fresh.x), (got.z, fresh.z)):
        np.testing.assert_array_equal(kept, again)


def test_parity_reduction_keeps_ground_sector(h2):
    h_fermion = build_fermion_hamiltonian(h2)
    full = parity_transform(h_fermion, h2.n_elec)
    reduced = parity_transform(h_fermion, h2.n_elec, reduce_two_qubits=True)
    assert reduced.n_qubits == full.n_qubits - 2
    e_red = np.linalg.eigvalsh(dense_qubit_operator(reduced))[0]
    assert abs(e_red - (-1.1372744055294384)) < 1e-9
    # every reduced eigenvalue appears in the full spectrum
    spec_full = np.linalg.eigvalsh(dense_qubit_operator(full))
    for e in np.linalg.eigvalsh(dense_qubit_operator(reduced)):
        assert np.min(np.abs(spec_full - e)) < 1e-9


def test_parity_reduction_rejects_bad_inputs():
    op = add_adjoint(FermionOperator(4, {((0, True), (1, False)): 1.0}))
    with pytest.raises(UnsupportedReduction):
        parity_transform(op, n_elec=1, reduce_two_qubits=True)
    nonconserving = add_adjoint(FermionOperator(4, {((0, True),): 1.0}))
    with pytest.raises(UnsupportedReduction):
        parity_transform(nonconserving, n_elec=2, reduce_two_qubits=True)


# ---------------------------------------------------------------------------
# Reference bitstrings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_orb,n_elec", [(2, 2), (4, 4), (4, 2), (3, 2)])
def test_hartree_fock_bitstring_matches_embedding(n_orb, n_elec):
    """The HF determinant (the lowest n_elec/2 orbitals of each spin, beta
    spin-orbitals 0..N-1 and alpha N..2N-1) embeds at its bitstring, qubit 0
    first."""
    occupied = {*range(n_elec // 2), *range(n_orb, n_orb + n_elec // 2)}
    bits = "".join("1" if 2 * n_orb - 1 - q in occupied else "0"
                   for q in range(2 * n_orb))
    assert len(bits) == 2 * n_orb
    assert bits.count("1") == n_elec
    space = make_ci_space(n_orb, n_elec)
    psi = civector_to_statevector(space, hf_vector(space).amplitudes)
    assert abs(psi[int(bits, 2)] - 1.0) < 1e-12


def test_hartree_fock_bitstring_h4_value():
    space = make_ci_space(4, 4)
    psi = civector_to_statevector(space, hf_vector(space))
    assert np.flatnonzero(psi).tolist() == [int("00110011", 2)]


# ---------------------------------------------------------------------------
# Qubit operator plumbing
# ---------------------------------------------------------------------------

def test_qubit_operator_validation():
    with pytest.raises(InvalidOperator):
        QubitOperator(2, {((2, "X"),): 1.0})
    with pytest.raises(InvalidOperator):
        QubitOperator(2, {((0, "Q"),): 1.0})


def test_qubit_operator_sum_reuses_normal_terms(monkeypatch):
    """Sums, differences, scalar multiples, simplify and products build on
    the operands' masks: no term is turned into masks again."""
    a = QubitOperator(4, {((0, "X"),): 1.0, ((1, "Z"), (2, "Y")): 0.5j,
                          (): -2.0, ((3, "X"),): 1e-14})
    b = QubitOperator(4, {((3, "Z"),): 0.25, ((0, "Y"), (1, "X")): 1.5,
                          ((2, "Z"),): -1.0})
    calls = []
    masks = operators.pauli_masks
    monkeypatch.setattr(operators, "pauli_masks",
                        lambda n, term: calls.append(term) or masks(n, term))
    total = a + b
    assert list(total.terms) == list(a.terms) + list(b.terms)
    assert total.terms == {**a.terms, **b.terms}
    scaled, diff, small, product = 2.0 * a, a - b, a.simplify(), a * b
    assert calls == []
    assert_same_operator(product, letter_product(a, b))
    assert scaled.terms == {t: 2.0 * c for t, c in a.terms.items()}
    assert diff.terms == {**a.terms, **{t: -c for t, c in b.terms.items()}}
    assert list(small.terms) == list(a.terms)[:3]


def test_qubit_operator_terms_are_a_read_only_view():
    """``terms`` cannot be written, so it cannot fall out of step with the
    strings the operator computes with: after any arithmetic the printed
    form, the expectation value and the dense matrix all follow it."""
    op = QubitOperator(2, {((0, "Z"),): 1.0, ((0, "X"), (1, "Y")): 0.5})
    psi = np.array([0.6, 0.0, 0.0, 0.8j])
    expectation(psi, op)  # builds the flip groups
    with pytest.raises(TypeError):
        op.terms[((0, "Z"),)] = 5.0
    with pytest.raises(TypeError):
        del op.terms[((0, "Z"),)]
    other = QubitOperator(2, {((0, "Z"),): -0.25, ((1, "X"),): 2.0j})
    for got in (op, op + other, op - other, 3.0 * op, op * other,
                (op - op).simplify(), other * other):
        assert got.format_text() == "\n".join(
            f"{operators._format_coeff(c)} "
            f"{' '.join(f'{ch}{q}' for q, ch in t)}".rstrip()
            for t, c in got.terms.items())
        dense = dense_qubit_operator(got)
        np.testing.assert_allclose(got.to_dense_matrix(), dense, atol=1e-15)
        if np.allclose(dense, dense.conj().T):
            assert abs(expectation(psi, got)
                       - np.vdot(psi, dense @ psi).real) < 1e-14


def test_qubit_operator_product_matches_dense():
    rng = np.random.default_rng(5)
    n = 3
    letters = "IXYZ"

    def random_op():
        terms = {}
        for _ in range(4):
            term = tuple(
                (q, letters[rng.integers(1, 4)])
                for q in sorted(rng.choice(n, rng.integers(1, n + 1),
                                           replace=False))
            )
            terms[term] = complex(rng.normal(), rng.normal())
        return QubitOperator(n, terms)

    for _ in range(5):
        a, b = random_op(), random_op()
        np.testing.assert_allclose(
            dense_qubit_operator((a * b).simplify()),
            dense_qubit_operator(a) @ dense_qubit_operator(b),
            atol=1e-12,
        )


# ---------------------------------------------------------------------------
# Compiled Pauli-sum matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["h2", "h4"])
@pytest.mark.parametrize("transform", ["jw", "parity", "parity-reduced"])
def test_dense_matrix_matches_oracle_on_molecular_images(case, transform,
                                                         request):
    s = request.getfixturevalue(case)
    h_fermion = build_fermion_hamiltonian(s)
    if transform == "jw":
        h = jordan_wigner(h_fermion)
    else:
        h = parity_transform(h_fermion, s.n_elec,
                             reduce_two_qubits=transform == "parity-reduced")
    np.testing.assert_allclose(h.to_dense_matrix(), dense_qubit_operator(h),
                               rtol=0, atol=1e-12)


_pauli_strings = st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    strings=st.lists(_pauli_strings, min_size=1, max_size=6),
    coeffs=st.lists(st.complex_numbers(max_magnitude=2.0,
                                       allow_nan=False, allow_infinity=False),
                    min_size=8, max_size=8),
)
def test_dense_matrix_matches_oracle_on_random_sums(strings, coeffs):
    n = max(len(letters) for letters in strings)
    terms = {(): coeffs[0]}
    for k, letters in enumerate(strings):
        term = tuple((q, ch) for q, ch in enumerate(letters) if ch != "I")
        # swapping X and Y keeps the flip pattern but changes the phases
        twin = tuple((q, {"X": "Y", "Y": "X"}.get(ch, ch)) for q, ch in term)
        terms[term] = terms.get(term, 0.0) + coeffs[k + 1]
        terms[twin] = terms.get(twin, 0.0) + coeffs[7 - k]
    op = QubitOperator(n, terms)
    np.testing.assert_allclose(op.to_dense_matrix(), dense_qubit_operator(op),
                               rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text("IXYZ", min_size=1, max_size=7), min_size=1,
                max_size=6),
       st.floats(-4.0, 4.0), st.integers(0, 2**32 - 1))
def test_pauli_flip_matches_letter_action(strings, angle, seed):
    """A Pauli string compiled to a one-member run acts as
    P x = i flips * x[target], and its rotation exp(-i angle P), a
    PAULI_ROT by 2 angle, as the run's gather step; both equal
    the scatter of the letter-by-letter action bit for bit, on statevectors,
    on (2^n, m) row matrices and on transposed views."""
    from vqchem.gates import _step
    from vqchem.operators import _fuse_runs, pauli_masks

    n = max(map(len, strings))
    rng = np.random.default_rng(seed)
    dim = 1 << n
    inputs = (rng.normal(size=dim) + 1j * rng.normal(size=dim),
              rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3)),
              (rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim))).T)
    for letters in strings:
        term = tuple((q, ch) for q, ch in enumerate(letters) if ch != "I")
        target, phase = letter_pauli_action(n, term)
        runs = _fuse_runs(n, [(*pauli_masks(n, term), 0, 0.0, False)])
        (step,) = runs.steps
        cos, flip = runs.rotations([2.0 * angle])
        for x in inputs:
            want = np.empty_like(x)
            want[target] = phase * x if x.ndim == 1 else phase[:, None] * x
            column = (slice(None),) + (None,) * (x.ndim - 1)
            got = 1j * runs.flips[0][column] * x[step[0]]
            assert got.shape == x.shape
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                _step(x, step, cos, flip),
                np.cos(angle) * x - 1.0j * np.sin(angle) * want)


@pytest.mark.parametrize("case", ["h4-parity-reduced", "h6-jw", "spin-boson"])
def test_sparse_matrix_matches_pauli_action_assembly(case, request):
    """The mask-compiled flip groups act as the sparse sum, per flip pattern
    in term order, of one letter-by-letter action per term."""
    if case == "spin-boson":
        terms, basis = spin_boson_model(0.0, 1.0, 1.0, 0.5, 8)
        op = qubit_encode(terms, basis).qubit_terms
    else:
        s = request.getfixturevalue(case.split("-")[0])
        h = build_fermion_hamiltonian(s)
        op = (jordan_wigner(h) if case == "h6-jw" else
              parity_transform(h, s.n_elec, reduce_two_qubits=True))
    _check_flip_groups(op, 83)


def _check_flip_groups(op, seed):
    """The compiled flip groups against the letter-by-letter assembly: H x,
    <psi|H|psi>, Tr(rho H), the dense matrix and the diagonal."""
    from vqchem.operators import apply_operator

    want = pauli_action_sparse_matrix(op)
    rng = np.random.default_rng(seed)
    dim = 1 << op.n_qubits
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    np.testing.assert_allclose(apply_operator(op, psi), want @ psi,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(op.diagonal(), want.diagonal(),
                               rtol=0, atol=1e-12)
    if op.n_qubits > 10:  # a dense matrix or rho would take >= 268 MB
        return psi, None
    np.testing.assert_allclose(op.to_dense_matrix(), want.toarray(),
                               rtol=0, atol=1e-12)
    vecs = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    rho = vecs @ vecs.conj().T
    rho /= np.trace(rho).real
    return psi, rho


@pytest.mark.parametrize("case", ["h2", "h4", "h6"])
@pytest.mark.parametrize("transform", ["jw", "parity", "parity-reduced"])
def test_flip_groups_match_pauli_action_assembly(case, transform, request):
    from vqchem.gates import expectation
    from vqchem.operators import _flip_groups

    s = request.getfixturevalue(case)
    h = build_fermion_hamiltonian(s)
    op = (jordan_wigner(h) if transform == "jw" else parity_transform(
        h, s.n_elec, reduce_two_qubits=transform == "parity-reduced"))
    assert _flip_groups(op)[1].dtype == np.float64  # every value is real
    psi, rho = _check_flip_groups(op, 89)
    want = pauli_action_sparse_matrix(op)
    assert abs(expectation(psi, op) - np.vdot(psi, want @ psi).real) <= 1e-12
    if rho is not None:
        trace = want.multiply(rho.T).sum()
        assert abs(expectation(rho, op) - trace.real) <= 1e-12


def test_complex_flip_groups_refuse_a_real_energy():
    """A non-Hermitian operator with complex coefficients keeps complex
    values, matches the assembly, and its expectation raises."""
    from vqchem.gates import expectation
    from vqchem.operators import _flip_groups

    op = QubitOperator(3, {((0, "X"), (1, "Y")): 0.5 + 0.3j,
                           ((0, "Y"), (1, "X")): -0.2,
                           ((2, "Z"),): 1j, (): 0.25})
    assert _flip_groups(op)[1].dtype == np.complex128
    psi, rho = _check_flip_groups(op, 97)
    for state in (psi, rho):
        with pytest.raises(InvalidOperator, match="imaginary part"):
            expectation(state, op)
