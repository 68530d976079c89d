import dataclasses
import gc
import hashlib
import itertools
import struct
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from vqchem import (
    CISpace,
    CIVector,
    InvalidExcitation,
    InvalidParamMap,
    InvalidParams,
    ParseError,
    SizeLimit,
    UCCProblem,
    UnsupportedOpenShell,
    ZeroState,
    apply_excitation,
    apply_hamiltonian,
    ci_space_dim,
    civector_at,
    civector_to_statevector,
    energy,
    energy_and_gradient,
    fci_ground_state,
    hamiltonian_diagonal,
    hf_energy,
    hf_vector,
    load_civector,
    make_ci_space,
    make_uccsd_problem,
    save_civector,
    ucc_state,
)
from vqchem.ansatz import generate_uccsd
from vqchem.civector import _excitation_tables, _same_spin, _sigma, _sigma_plan
from vqchem.integrals import IntegralSet, build_hubbard
from oracles import (
    closed_shell_determinants,
    dense_ladder,
    signed_excitation_table,
    signed_forward,
    signed_rotation_table,
    signed_sweep,
    spin_traced_rdms,
)
from helpers import chain_fcidump, run_capped
from test_integrals import random_integral_set

PINNED_DIMS = {
    (2, 2): 4,
    (4, 2): 16,
    (4, 4): 36,
    (8, 4): 784,
    (8, 8): 4900,
    (16, 8): 3312400,
    (48, 4): 1272384,
}


def dense_generator(n_so, ex):
    """Fock-space matrix of G = g - g^dagger for an excitation tuple."""
    half = len(ex) // 2
    g = np.eye(1 << n_so)
    for p in ex[:half]:
        g = g @ dense_ladder(n_so, p, dagger=True)
    for q in ex[half:]:
        g = g @ dense_ladder(n_so, q, dagger=False)
    return g - g.conj().T


def embedding_matrix(space):
    cols = [
        civector_to_statevector(space, np.eye(space.dim)[j])
        for j in range(space.dim)
    ]
    return np.array(cols).T


def random_excitation(rng, n_orb):
    """Random spin-sector-conserving single or double excitation tuple."""
    n_so = 2 * n_orb
    while True:
        if rng.random() < 0.5:
            p, q = rng.choice(n_so, size=2, replace=True)
            ex = (int(p), int(q))
        else:
            p = rng.choice(n_so, size=2, replace=False)
            q = rng.choice(n_so, size=2, replace=False)
            ex = (int(p[0]), int(p[1]), int(q[0]), int(q[1]))
        half = len(ex) // 2
        ok = all(
            sum(1 for i in ex[:half] if (i >= n_orb) == sector)
            == sum(1 for i in ex[half:] if (i >= n_orb) == sector)
            for sector in (0, 1)
        )
        if ok:
            return ex


# ---------------------------------------------------------------------------
# Space construction
# ---------------------------------------------------------------------------

def test_space_dimensions_pinned():
    for (n_orb, n_elec), dim in PINNED_DIMS.items():
        assert ci_space_dim(n_orb, n_elec) == dim
        assert make_ci_space(n_orb, n_elec).dim == dim


def test_space_validation():
    with pytest.raises(UnsupportedOpenShell):
        make_ci_space(4, 3)
    with pytest.raises(UnsupportedOpenShell):
        make_ci_space(2, 6)


def test_space_past_64_orbitals_is_a_size_limit():
    """CI strings are 64-bit masks: 70 orbitals are refused before a string
    is built, not as an OverflowError while building them."""
    with pytest.raises(SizeLimit, match="70 orbitals"):
        make_ci_space(70, 2)


def test_hf_vector_is_first_determinant():
    space = make_ci_space(4, 4)
    v = hf_vector(space)
    assert v.amplitudes[0] == 1.0 and np.count_nonzero(v.amplitudes) == 1
    sv = civector_to_statevector(space, v)
    hf_index = int("00110011", 2)  # both spins of orbitals 0 and 1
    assert sv[hf_index] == 1.0 and np.count_nonzero(sv) == 1


# ---------------------------------------------------------------------------
# Hamiltonian action
# ---------------------------------------------------------------------------

def test_hf_energy_two_routes(h2, h4):
    for s in (h2, h4):
        space = make_ci_space(s.n_orb, s.n_elec)
        assert abs(energy(space, hf_vector(space), s) - hf_energy(s)) < 1e-10
        assert abs(hamiltonian_diagonal(space, s)[0] - hf_energy(s)) < 1e-10


def test_hamiltonian_diagonal_matches_apply(h4):
    space = make_ci_space(4, 4)
    diag = hamiltonian_diagonal(space, h4)
    for j in range(space.dim):
        e_j = np.eye(space.dim)[j]
        hj = apply_hamiltonian(space, e_j, h4).amplitudes
        assert abs(diag[j] - hj[j]) < 1e-10


@pytest.mark.parametrize("case", ["h2", "random"])
def test_apply_hamiltonian_matches_fock_space_oracle(case, h2):
    from oracles import number_conserving_hamiltonian_matrix

    rng = np.random.default_rng(5)
    s = h2 if case == "h2" else random_integral_set(rng, 3, 2)
    space = make_ci_space(s.n_orb, s.n_elec)
    emb = embedding_matrix(space)
    h_projected = emb.conj().T @ number_conserving_hamiltonian_matrix(s) @ emb
    h_applied = np.array([
        apply_hamiltonian(space, np.eye(space.dim)[j], s).amplitudes
        for j in range(space.dim)
    ]).T
    np.testing.assert_allclose(h_applied, np.real(h_projected), atol=1e-10)


SIGMA_CASES = {  # integral sets beyond the hydrogen-chain fixtures
    "random3": lambda: random_integral_set(np.random.default_rng(7), 3, 2),
    "random5": lambda: random_integral_set(np.random.default_rng(7), 5, 4),
    "hubbard4": lambda: build_hubbard(4, 1.0, 4.0),  # sparse (pq|rs)
    "hubbard6": lambda: build_hubbard(6, 1.0, 4.0),
    "random7": lambda: random_integral_set(np.random.default_rng(73), 7, 4),
}


def sigma_case(name, request):
    if name in SIGMA_CASES:
        return SIGMA_CASES[name]()
    return request.getfixturevalue(name)


def sigma_columns(space, s, **kwargs):
    return np.array([_sigma(space, s, col, **kwargs)
                     for col in np.eye(space.dim)]).T


@pytest.mark.parametrize("case", ["h2", "random3", "hubbard4"])
def test_sigma_matches_fock_space_oracle(case, request):
    from oracles import number_conserving_hamiltonian_matrix

    s = sigma_case(case, request)
    space = make_ci_space(s.n_orb, s.n_elec)
    emb = embedding_matrix(space)
    h_projected = emb.conj().T @ number_conserving_hamiltonian_matrix(s) @ emb
    np.testing.assert_allclose(sigma_columns(space, s), np.real(h_projected),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["h4", "h6", "random5", "hubbard6"])
def test_sigma_matches_sparse_hamiltonian(case, request):
    from oracles import sparse_number_conserving_hamiltonian

    s = sigma_case(case, request)
    space = make_ci_space(s.n_orb, s.n_elec)
    emb = embedding_matrix(space)
    h_projected = emb.conj().T @ (sparse_number_conserving_hamiltonian(s)
                                  @ emb)
    h_sigma = sigma_columns(space, s)
    np.testing.assert_allclose(h_sigma, np.real(h_projected), rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(np.diag(h_sigma),
                               hamiltonian_diagonal(space, s),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["h6", "hubbard6", "random7"])
def test_sigma_blocked_matches_unblocked(case, request):
    # 20 strings (h6, hubbard6) and 21 (random7): blocks of 3, 4 and 7 leave
    # a ragged last block on at least one of them
    s = sigma_case(case, request)
    space = make_ci_space(s.n_orb, s.n_elec)
    v = np.random.default_rng(59).normal(size=space.dim)
    v /= np.linalg.norm(v)
    na = space.n_strings_alpha
    whole = _sigma(space, s, v, block=na)
    plan = _sigma_plan(space)
    for block in (1, 3, 4, 7, na + 5, None):
        np.testing.assert_allclose(_sigma(space, s, v, block=block), whole,
                                   rtol=0, atol=1e-13)
    assert _sigma_plan(space) is plan


@pytest.mark.parametrize("n_orb, n_elec", [
    (4, 4), (6, 6), (7, 4), (5, 0), (4, 8), (8, 8),
])
def test_live_pairs_are_the_nonzero_links(n_orb, n_elec):
    """Each string has n_occ (1 + n_vir) live pairs, and the per-string
    tables list exactly the nonzero entries of the link table, built here
    string by string: E+_pq |J> for the pairs p >= q of np.tril_indices."""
    space = CISpace(n_orb, n_elec)
    plan = _sigma_plan(space)
    strings = [int(j) for j in space.alpha_strings]
    n, n_occ = len(strings), n_elec // 2
    sign = np.zeros((n, n_orb * (n_orb + 1) // 2))
    target = np.tile(np.arange(n)[:, None], (1, sign.shape[1]))
    for row, j in enumerate(strings):
        for pq, (p, q) in enumerate(zip(*np.tril_indices(n_orb))):
            occ_p, occ_q = j >> p & 1, j >> q & 1
            if p == q:
                sign[row, pq] = occ_p
            elif occ_p != occ_q:
                between = (j >> (q + 1)) & ((1 << (p - q - 1)) - 1)
                sign[row, pq] = (-1.0) ** bin(between).count("1")
                target[row, pq] = strings.index(j ^ (1 << p | 1 << q))
    assert plan.pair.shape == (n, n_occ * (1 + n_orb - n_occ))
    assert np.count_nonzero(sign) == plan.pair.size
    rows = np.arange(n)[:, None]
    assert np.all(np.diff(plan.pair, axis=1) > 0)
    np.testing.assert_array_equal(plan.live_sign, sign[rows, plan.pair])
    np.testing.assert_array_equal(plan.live_target, target[rows, plan.pair])
    np.testing.assert_array_equal(plan.flat,
                                  plan.pair * n + plan.live_target)


@pytest.mark.parametrize("case", ["h4", "h6", "hubbard4", "random7"])
def test_same_spin_hamiltonian_matches_alpha_sector_oracle(case, request):
    from oracles import sparse_same_spin_hamiltonian

    s = sigma_case(case, request)
    space = CISpace(s.n_orb, s.n_elec)
    strings = space.alpha_strings.astype(np.intp)
    want = sparse_same_spin_hamiltonian(s)[strings][:, strings].toarray()
    h_t, _ = _same_spin(space, s)
    np.testing.assert_allclose(h_t.T, want, rtol=0, atol=1e-12)
    assert _same_spin(space, s)[0] is h_t  # cached per integrals


def test_warm_sigma_allocates_less_than_one_block(h8):
    # H8 fits in one block: D alone is 8 * n_pair * dim bytes (1.4 MB).
    s = h8
    space = make_ci_space(8, 8)
    v = np.random.default_rng(67).normal(size=space.dim)
    _sigma(space, s, v)  # compiles the plan and sizes the workspace
    tracemalloc.start()
    try:
        _sigma(space, s, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_pair = 8 * 9 // 2
    assert peak < 8 * n_pair * space.dim


def test_concurrent_sigmas_match_serial(h4, h6):
    # more threads than cores, on two spaces and four block sizes, so the
    # workspaces differ in size and the plans compile concurrently
    rng = np.random.default_rng(71)
    cases = [(h4, None), (h6, None), (h6, 3), (h4, 1), (h6, 7)]
    vectors = [rng.normal(size=ci_space_dim(s.n_orb, s.n_elec))
               for s, _ in cases]
    expected = [_sigma(CISpace(s.n_orb, s.n_elec), s, v, block=block)
                for (s, block), v in zip(cases, vectors)]
    spaces = {n: CISpace(n, n) for n in (4, 6)}
    results = [[] for _ in cases]

    def work(i):
        s, block = cases[i]
        for _ in range(20):
            results[i].append(_sigma(spaces[s.n_orb], s, vectors[i],
                                     block=block))

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert len(got) == 20
        assert all(np.array_equal(g, want) for g in got)


def test_sigma_applies_core_energy_on_h10():
    # H10 (dim 63,504) with zero integrals: H is e_core times the identity
    big = make_ci_space(10, 10)
    s = IntegralSet(10, 10, np.zeros((10, 10)), np.zeros((10,) * 4), 0.5)
    v = np.random.default_rng(61).normal(size=big.dim)
    np.testing.assert_allclose(apply_hamiltonian(big, v, s).amplitudes,
                               0.5 * v, rtol=0, atol=1e-15)


def test_space_cache_holds_no_hamiltonian_terms(h6):
    space = CISpace(6, 6)
    energy_and_gradient(space, [(3, 0), (9, 10, 6, 7)], [0.1, 0.2], [0, 1],
                        h6)
    fci_ground_state(space, h6)
    keys = list(space._action_cache)
    assert ("G", (3, 0)) in keys and ("G", (9, 10, 6, 7)) in keys
    # "occ", the string occupations the FCI diagonal reads, is no term of H
    assert all(key in ("link", "occ", "same-spin") or key[0] == "G"
               for key in keys)
    # the same-spin Hamiltonian lives only as long as its integrals
    other = dataclasses.replace(h6, e_core=h6.e_core + 1.0)
    fci_ground_state(space, other)
    table = space._action_cache["same-spin"]
    assert isinstance(table, weakref.WeakKeyDictionary) and len(table) == 2
    del other
    gc.collect()
    assert list(table.keys()) == [h6]


# ---------------------------------------------------------------------------
# Excitation generators and exponential factors
# ---------------------------------------------------------------------------

def test_apply_excitation_matches_dense_generator():
    rng = np.random.default_rng(23)
    space = make_ci_space(4, 4)
    emb = embedding_matrix(space)
    for _ in range(12):
        ex = random_excitation(rng, 4)
        v = rng.normal(size=space.dim)
        got = apply_excitation(space, v, ex).amplitudes
        want = emb.conj().T @ dense_generator(8, ex) @ (emb @ v)
        np.testing.assert_allclose(got, np.real(want), atol=1e-10)


def test_ucc_factor_matches_dense_expm():
    rng = np.random.default_rng(29)
    space = make_ci_space(4, 4)
    emb = embedding_matrix(space)
    for _ in range(8):
        ex = random_excitation(rng, 4)
        theta = float(rng.uniform(-2.0, 2.0))
        v = rng.normal(size=space.dim)
        v /= np.linalg.norm(v)
        got = ucc_state(space, [ex], [theta], [0], initial=v).amplitudes
        want = emb.conj().T @ expm(theta * dense_generator(8, ex)) @ (emb @ v)
        np.testing.assert_allclose(got, np.real(want), atol=1e-10)


def test_generator_cubed_is_minus_generator():
    rng = np.random.default_rng(31)
    space = make_ci_space(4, 4)
    for _ in range(12):
        ex = random_excitation(rng, 4)
        v = rng.normal(size=space.dim)
        g1 = apply_excitation(space, v, ex).amplitudes
        g3 = apply_excitation(
            space, apply_excitation(space, g1, ex), ex).amplitudes
        np.testing.assert_allclose(g3, -g1, atol=1e-10)


def test_ucc_state_matches_fock_space_expm(h4):
    from oracles import sparse_excitation_generator
    from vqchem import make_uccsd_problem

    problem = make_uccsd_problem(h4)
    space = make_ci_space(4, 4)
    rng = np.random.default_rng(47)
    params = rng.uniform(-0.5, 0.5, size=problem.n_params)
    want = civector_to_statevector(space, hf_vector(space))
    for ex, pid in zip(problem.ex_ops, problem.param_ids):
        gen = sparse_excitation_generator(8, ex).toarray()
        want = expm(params[pid] * gen) @ want
    got = ucc_state(space, problem.ex_ops, params, problem.param_ids)
    np.testing.assert_allclose(civector_to_statevector(space, got), want,
                               atol=1e-12)


def test_ucc_factor_is_invertible():
    rng = np.random.default_rng(37)
    space = make_ci_space(4, 4)
    v = rng.normal(size=space.dim)
    ex = (2, 6, 0, 4)
    w = ucc_state(space, [ex], [0.7], [0], initial=v)
    back = ucc_state(space, [ex], [-0.7], [0], initial=w).amplitudes
    np.testing.assert_allclose(back, v, atol=1e-12)


def test_excitation_validation():
    space = make_ci_space(2, 2)
    with pytest.raises(InvalidExcitation):
        apply_excitation(space, hf_vector(space), (0,))
    with pytest.raises(InvalidExcitation):
        apply_excitation(space, hf_vector(space), (0, 4))
    with pytest.raises(InvalidExcitation):
        apply_excitation(space, hf_vector(space), (0, 2))  # beta -> alpha
    with pytest.raises(InvalidExcitation):
        apply_excitation(space, hf_vector(space), (1, 1, 0, 2))


# sha256 over every spin-orbital single and double on h4 (n_orb = 4, four
# electrons), repeated and spin-changing indices included: per excitation its
# repr, then "T" and the table's int64 bytes, "N" for no table, or "E" and
# the InvalidExcitation message.  Taken before the table builder and its
# check became one function; tables are artifacts of the engine, so a
# rewritten builder must reproduce them and their errors exactly.
_H4_TABLES_DIGEST = (
    "1118de168bfa21fecd8f63e2db8f9686cb3575181b174cf9cefb56a8d84bc94b")


def test_excitation_tables_match_pinned_digest():
    space = make_ci_space(4, 4)
    digest = hashlib.sha256()
    for k in (1, 2):
        for cre in itertools.product(range(8), repeat=k):
            for ann in itertools.product(range(8), repeat=k):
                ex = cre + ann
                digest.update(repr(ex).encode())
                try:
                    table = _excitation_tables(space, [ex])[0]
                except InvalidExcitation as exc:
                    digest.update(b"E" + str(exc).encode())
                    continue
                digest.update(b"N" if table is None
                              else b"T" + table.astype(np.int64).tobytes())
    assert digest.hexdigest() == _H4_TABLES_DIGEST


# ---------------------------------------------------------------------------
# Product states, energies, gradients
# ---------------------------------------------------------------------------

def test_invalid_excitation_raises_on_every_call(h4):
    space = make_ci_space(4, 4)
    good, bad = [(2, 0), (2, 6, 0, 4)], [(2, 0), (2, 4)]
    energy_and_gradient(space, good, [0.1, 0.2], [0, 1], h4)
    for _ in range(2):
        with pytest.raises(InvalidExcitation):
            energy_and_gradient(space, bad, [0.1, 0.2], [0, 1], h4)
        with pytest.raises(InvalidExcitation):
            ucc_state(space, bad, [0.1, 0.2], [0, 1])
    energy_and_gradient(space, good, [0.1, 0.2], [0, 1], h4)


def test_param_map_validation():
    space = make_ci_space(2, 2)
    with pytest.raises(InvalidParamMap):
        ucc_state(space, [(1, 0)], [0.1], [0, 1])
    with pytest.raises(InvalidParamMap):
        ucc_state(space, [(1, 0)], [0.1], [3])


def test_ucc_state_applies_first_entry_first():
    space = make_ci_space(4, 4)
    ex1, ex2 = (2, 0), (3, 7, 0, 4)
    v = ucc_state(space, [ex1, ex2], [0.3, -0.5], [0, 1])
    step = ucc_state(space, [ex1], [0.3], [0])
    step = ucc_state(space, [ex2], [-0.5], [0], initial=step)
    np.testing.assert_allclose(v.amplitudes, step.amplitudes, atol=1e-12)
    assert abs(np.linalg.norm(v.amplitudes) - 1.0) < 1e-12


def finite_difference_gradient(space, ex_ops, params, param_ids, s, h=1e-5):
    grad = np.zeros(len(params))
    for k in range(len(params)):
        shift = np.zeros(len(params))
        shift[k] = h
        e_plus = energy(space, ucc_state(space, ex_ops, params + shift,
                                         param_ids), s)
        e_minus = energy(space, ucc_state(space, ex_ops, params - shift,
                                          param_ids), s)
        grad[k] = (e_plus - e_minus) / (2 * h)
    return grad


def test_energy_and_gradient_matches_finite_difference(h4):
    space = make_ci_space(4, 4)
    ex_ops = [(2, 0), (6, 4), (3, 1), (2, 6, 0, 4), (3, 6, 1, 4),
              (2, 7, 0, 5), (3, 7, 0, 4)]
    param_ids = [0, 0, 1, 2, 3, 4, 5]  # first two share one parameter
    rng = np.random.default_rng(41)
    for _ in range(4):
        params = rng.uniform(-0.4, 0.4, size=6)
        e, grad = energy_and_gradient(space, ex_ops, params, param_ids, h4)
        e_direct = energy(space, ucc_state(space, ex_ops, params, param_ids),
                          h4)
        assert abs(e - e_direct) < 1e-12
        fd = finite_difference_gradient(space, ex_ops, params, param_ids, h4)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_shared_parameter_gradient_is_sum_of_parts(h4):
    space = make_ci_space(4, 4)
    ex_ops = [(2, 6, 0, 4), (3, 7, 1, 5)]
    theta = 0.17
    _, shared = energy_and_gradient(space, ex_ops, [theta], [0, 0], h4)
    _, split = energy_and_gradient(space, ex_ops, [theta, theta], [0, 1], h4)
    assert abs(shared[0] - split.sum()) < 1e-12


@pytest.mark.parametrize("n", [8, 10])
def test_rotation_kernel_matches_signed_table_oracle(n, h8):
    # UCCSD shares one parameter between spin mirrors; the oracle tables are
    # built from spin-orbital bitmasks and hold both signed halves per pair
    ex_ops, param_ids = generate_uccsd(n, n)
    space = make_ci_space(n, n)
    s = h8 if n == 8 else random_integral_set(np.random.default_rng(67),
                                                n, n)
    dets = closed_shell_determinants(n, n)
    tables = []
    for ex in ex_ops:
        g = signed_excitation_table(dets, ex)
        tables.append(None if g is None else signed_rotation_table(*g))
    rng = np.random.default_rng(71 + n)
    params = rng.uniform(-0.6, 0.6, size=max(param_ids) + 1)
    start = hf_vector(space).amplitudes
    want_state = signed_forward(tables, params, param_ids, start)
    want_e, want_grad = signed_sweep(
        tables, params, param_ids, start,
        lambda v: apply_hamiltonian(space, v, s).amplitudes)
    got_state = ucc_state(space, ex_ops, params, param_ids).amplitudes
    got_e, got_grad = energy_and_gradient(space, ex_ops, params, param_ids, s)
    np.testing.assert_allclose(got_state, want_state, rtol=0, atol=1e-12)
    assert abs(got_e - want_e) <= 1e-12 * max(1.0, abs(want_e))
    np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)


def test_rotation_tables_hold_16_bytes_per_pair(h8):
    # one (r, c) intp pair per determinant pair, no signs, no second half
    space = CISpace(8, 8)
    problem = make_uccsd_problem(h8)
    energy_and_gradient(space, problem.ex_ops, problem.init_guess,
                        problem.param_ids, h8)
    tables = [space._action_cache["G", ex] for ex in problem.ex_ops]
    for table in tables:
        assert isinstance(table, np.ndarray) and table.dtype == np.intp
        assert table.ndim == 2 and table.shape[0] == 2
        assert table.nbytes == 16 * table.shape[1]
        assert np.unique(table).size == table.size  # disjoint pairs
    pairs = sum(table.shape[1] for table in tables)
    total = sum(value.nbytes for key, value in space._action_cache.items()
                if key not in ("link", "same-spin"))
    assert total == 16 * pairs


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_params_are_refused(bad, h4):
    space = make_ci_space(4, 4)
    ex_ops, param_ids = [(2, 0), (2, 6, 0, 4)], [0, 1]
    with pytest.raises(InvalidParams):
        energy_and_gradient(space, ex_ops, [0.1, bad], param_ids, h4)
    with pytest.raises(InvalidParams):
        ucc_state(space, ex_ops, [bad, 0.1], param_ids)
    problem = make_uccsd_problem(h4)
    params = problem.init_guess.copy()
    params[-1] = bad
    with pytest.raises(InvalidParams):
        civector_at(problem, params)
    with pytest.raises(InvalidParams):
        UCCProblem(h4, problem.ex_ops, problem.param_ids, params)


def test_initial_vector_of_another_space_is_refused():
    # (4, 2) and (4, 6) both have 16 determinants, on different strings
    space, other = make_ci_space(4, 2), make_ci_space(4, 6)
    assert space.dim == other.dim
    s = random_integral_set(np.random.default_rng(73), 4, 2)
    args = ([(1, 0)], [0.3], [0])
    with pytest.raises(InvalidParams, match="belongs to"):
        ucc_state(space, *args, initial=hf_vector(other))
    with pytest.raises(InvalidParams, match="belongs to"):
        energy_and_gradient(space, *args, s, initial=hf_vector(other))
    # an equal space built separately is the same space
    same = hf_vector(CISpace(4, 2))
    np.testing.assert_array_equal(
        ucc_state(space, *args, initial=same).amplitudes,
        ucc_state(space, *args).amplitudes)


def test_initial_array_of_wrong_length_is_refused(h4):
    space = make_ci_space(4, 4)
    args = ([(2, 0)], [0.3], [0])
    short = np.zeros(space.dim - 1)
    short[0] = 1.0
    with pytest.raises(InvalidParams, match="amplitude length"):
        ucc_state(space, *args, initial=short)
    with pytest.raises(InvalidParams, match="amplitude length"):
        energy_and_gradient(space, *args, h4, initial=short)


# ---------------------------------------------------------------------------
# Reduced density matrices
# ---------------------------------------------------------------------------

def energy_from_rdms(s, rdm1, rdm2):
    return (np.einsum("pq,pq->", s.int1e, rdm1)
            + 0.5 * np.einsum("pqrs,pqrs->", s.int2e, rdm2)
            + s.e_core)


@pytest.mark.parametrize("which", ["fci_h2", "fci_h4", "ucc_h4"])
def test_rdm_energy_reconstruction(which, h2, h4):
    if which == "fci_h2":
        s = h2
        space = make_ci_space(2, 2)
        _, v = fci_ground_state(space, s)
    elif which == "fci_h4":
        s = h4
        space = make_ci_space(4, 4)
        _, v = fci_ground_state(space, s)
    else:
        s = h4
        space = make_ci_space(4, 4)
        v = ucc_state(space, [(2, 6, 0, 4), (3, 7, 1, 5), (2, 0)],
                      [0.1, -0.2, 0.05], [0, 1, 2])
    rdm1, rdm2 = spin_traced_rdms(space.n_orb,
                                  civector_to_statevector(space, v))
    assert abs(energy_from_rdms(s, rdm1, rdm2) - energy(space, v, s)) < 1e-10
    assert abs(np.trace(rdm1) - s.n_elec) < 1e-10
    np.testing.assert_allclose(rdm1, rdm1.T, atol=1e-12)
    # chemist-order pair-exchange symmetry and partial trace
    np.testing.assert_allclose(rdm2, rdm2.transpose(2, 3, 0, 1), atol=1e-12)
    np.testing.assert_allclose(
        np.einsum("pqrr->pq", rdm2), (s.n_elec - 1) * rdm1, atol=1e-10)


@pytest.mark.parametrize("which", ["fci_h4", "random5"])
def test_rdms_match_fock_space_oracle(which, h4):
    """The FCI eigenvalue is the energy of its own eigenvector's density
    matrices, read off the Fock space by ladder products."""
    if which == "fci_h4":
        s = h4
        space = make_ci_space(4, 4)
    else:
        s = random_integral_set(np.random.default_rng(11), 5, 4)
        space = make_ci_space(5, 4)
    e, v = fci_ground_state(space, s)
    rdm1, rdm2 = spin_traced_rdms(space.n_orb,
                                  civector_to_statevector(space, v))
    assert abs(energy_from_rdms(s, rdm1, rdm2) - e) < 1e-10
    assert abs(np.trace(rdm1) - s.n_elec) < 1e-10


# ---------------------------------------------------------------------------
# Ground-state solver
# ---------------------------------------------------------------------------

def test_fci_h2_pinned(h2):
    space = make_ci_space(2, 2)
    e, v = fci_ground_state(space, h2)
    assert abs(e - (-1.1372744055294606)) < 1e-9
    amps = v.amplitudes * np.sign(v.amplitudes[0])
    np.testing.assert_allclose(
        amps, [0.99362381, 0.0, 0.0, -0.11274632], atol=1e-6)


def test_fci_iterative_matches_dense_diagonalization():
    rng = np.random.default_rng(43)
    s = random_integral_set(rng, 7, 4)
    space = make_ci_space(7, 4)
    assert space.dim == 441
    e, v = fci_ground_state(space, s)
    h_dense = np.array([
        apply_hamiltonian(space, np.eye(space.dim)[j], s).amplitudes
        for j in range(space.dim)
    ]).T
    vals, vecs = np.linalg.eigh(h_dense)
    assert abs(e - vals[0]) < 1e-8
    assert abs(abs(np.dot(v.amplitudes, vecs[:, 0])) - 1.0) < 1e-8


def hubbard_ring(n_sites):
    """Periodic Hubbard ring, t = 1, U = 4, with 4 electrons: its M_s = 0
    ground state is a triplet."""
    s = build_hubbard(n_sites, 1.0, 4.0, periodic=True)
    return IntegralSet(n_sites, 4, s.int1e, s.int2e, 0.0)


@pytest.mark.parametrize("case", ["h2", "h4", "h6", "random5", "ring6"])
def test_small_fci_matches_the_lowest_even_eigenvalue(case, request):
    # 4 to 400 determinants: the Davidson basis can span much of the space
    from oracles import (lowest_even_eigenvalue,
                         sparse_number_conserving_hamiltonian)

    s = hubbard_ring(6) if case == "ring6" else sigma_case(case, request)
    space = make_ci_space(s.n_orb, s.n_elec)
    dets = closed_shell_determinants(s.n_orb, s.n_elec)
    h = sparse_number_conserving_hamiltonian(s)[dets][:, dets].toarray()
    e, _ = fci_ground_state(space, s)
    assert abs(e - lowest_even_eigenvalue(h, space.n_strings_alpha)) <= 1e-10


@pytest.mark.parametrize("n_sites, dim, e_even, e_global", [
    (6, 225, -4.42014294995394, -4.69835519094898),
    (8, 784, -5.730548524687951, -5.951702657355233),
])
def test_fci_returns_lowest_even_root(n_sites, dim, e_even, e_global):
    from oracles import (lowest_even_eigenvalue,
                         sparse_number_conserving_hamiltonian)

    s = hubbard_ring(n_sites)
    space = make_ci_space(n_sites, 4)
    assert space.dim == dim
    dets = closed_shell_determinants(n_sites, 4)
    h = sparse_number_conserving_hamiltonian(s)[dets][:, dets].toarray()
    assert abs(np.linalg.eigvalsh(h)[0] - e_global) < 1e-10
    assert abs(lowest_even_eigenvalue(h, space.n_strings_alpha)
               - e_even) < 1e-10
    e, v = fci_ground_state(space, s)
    assert abs(e - e_even) < 1e-10
    c = v.amplitudes.reshape(space.n_strings_alpha, -1)
    np.testing.assert_allclose(c, c.T, rtol=0, atol=1e-12)
    assert abs(np.linalg.norm(v.amplitudes) - 1.0) < 1e-12
    assert abs(energy(space, v, s) - e_even) < 1e-10


@pytest.fixture(scope="module")
def h10_fcidump(tmp_path_factory):
    return chain_fcidump(tmp_path_factory.mktemp("h10"), 10)


@pytest.fixture(scope="module")
def h10(h10_fcidump):
    from vqchem import load_fcidump

    return load_fcidump(h10_fcidump)


def symmetric_vector(space, seed):
    c = np.random.default_rng(seed).normal(size=(space.n_strings_alpha,) * 2)
    return (c + c.T).ravel()


@pytest.mark.parametrize("case", ["h4", "random7", "h8", "h10"])
def test_symmetric_sigma_matches_general_sigma(case, request):
    if case == "random7":  # 21 strings: blocks of 4 and 6 leave a ragged end
        s = random_integral_set(np.random.default_rng(73), 7, 4)
    else:
        s = request.getfixturevalue(case)
    space = CISpace(s.n_orb, s.n_elec)
    v = symmetric_vector(space, 79)
    general = _sigma(space, s, v)
    scale = np.abs(general).max()
    na = space.n_strings_alpha
    for block in (None, 1, 3, 4, na + 5):
        got = _sigma(space, s, v, block=block, symmetric=True)
        assert np.abs(got - general).max() <= 1e-12 * scale, block
    assert list(space._action_cache) == ["link", "same-spin"]


def test_symmetric_sigma_applies_core_energy_on_h10():
    big = make_ci_space(10, 10)
    s = IntegralSet(10, 10, np.zeros((10, 10)), np.zeros((10,) * 4), 0.5)
    v = symmetric_vector(big, 83)
    np.testing.assert_allclose(_sigma(big, s, v, symmetric=True), 0.5 * v,
                               rtol=0, atol=1e-15)


def counting_sigma(monkeypatch):
    """Record the vectors every H application in civector receives."""
    from vqchem import civector

    inputs = []
    sigma = civector._sigma

    def counted(space, s, amps, **kwargs):
        inputs.append(np.array(amps))
        return sigma(space, s, amps, **kwargs)

    monkeypatch.setattr(civector, "_sigma", counted)
    return inputs


@pytest.mark.parametrize("case, e_pinned, max_sigmas", [
    ("h4", -2.167560544134052, 10),
    ("h6", -3.204411879484098, 14),
    ("h8", -4.243391012647704, 17),
    ("h10", -5.283552451823887, 19),
])
def test_fci_energies_and_h_applications_pinned(case, e_pinned, max_sigmas,
                                                request, monkeypatch):
    s = request.getfixturevalue(case)
    inputs = counting_sigma(monkeypatch)
    e, _ = fci_ground_state(make_ci_space(s.n_orb, s.n_elec), s)
    assert abs(e - e_pinned) < 1e-10
    assert len(inputs) <= max_sigmas


def test_davidson_restart_keeps_the_ritz_image(h8, monkeypatch):
    from vqchem.civector import _davidson_ground_state

    space = make_ci_space(8, 8)
    inputs = counting_sigma(monkeypatch)
    e, v = _davidson_ground_state(space, h8, max_subspace=4)
    assert abs(e - -4.243391012647704) < 1e-10
    assert len(inputs) > 4  # it restarted
    # every H application is spent on a vector outside the span of the
    # earlier ones: a restart does not apply H to its Ritz vector again
    for k in range(1, len(inputs)):
        earlier = np.array(inputs[:k]).T
        coeff = np.linalg.lstsq(earlier, inputs[k], rcond=None)[0]
        assert np.linalg.norm(inputs[k] - earlier @ coeff) > 1e-6


@pytest.mark.parametrize("case, dim", [
    ("random7", 441), ("h8", 4900), ("h10", 63504),
])
def test_packed_davidson_matches_the_full_vector_oracle(case, dim, request,
                                                        monkeypatch):
    from oracles import full_davidson
    from vqchem.civector import _davidson_ground_state

    if case == "random7":
        s = random_integral_set(np.random.default_rng(73), 7, 4)
    else:
        s = request.getfixturevalue(case)
    space = make_ci_space(s.n_orb, s.n_elec)
    assert space.dim == dim
    inputs = counting_sigma(monkeypatch)
    e_full, v_full = full_davidson(space, s)
    n_full = len(inputs)
    e, v = _davidson_ground_state(space, s)
    assert abs(e - e_full) <= 1e-12
    assert abs(np.dot(v, v_full)) >= 1 - 1e-12
    assert len(inputs) == 2 * n_full


def test_packed_triangle_is_an_orthonormal_basis_of_symmetric_vectors():
    from vqchem.civector import _Triangle

    n = 6
    tri = _Triangle(n)
    assert tri.size == n * (n + 1) // 2
    basis = np.array([tri.unpack(e) for e in np.eye(tri.size)])
    np.testing.assert_allclose(basis @ basis.T, np.eye(tri.size), rtol=0,
                               atol=1e-15)
    # pack is U^T: it reads the coordinates of (Z + Z^T) / 2 off any Z
    z = np.random.default_rng(3).normal(size=(n, n))
    sym = ((z + z.T) / 2).ravel()
    np.testing.assert_allclose(tri.pack(z.ravel()), basis @ sym, rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(tri.unpack(tri.pack(sym)), sym, rtol=0,
                               atol=1e-15)


def test_fci_size_limit():
    space = make_ci_space(16, 8)
    s = IntegralSet(16, 8, np.zeros((16, 16)), np.zeros((16,) * 4), 0.0)
    with pytest.raises(SizeLimit):
        fci_ground_state(space, s)


_CAPPED_FCI = """
import resource, sys
cap = int(sys.argv[3]) << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from vqchem.cli import main
sys.exit(main(["fci", "--fcidump", sys.argv[1], "--output", sys.argv[2]]))
"""


def test_fci_h10_fits_1500_mb_address_space(tmp_path):
    # A sparse build of H10 needed about 3.3 GB and died with SIGSEGV under
    # this cap.  The direct-CI sigma with the packed Davidson peaks at about
    # 79 MB of RSS (88 MB with full-length Davidson vectors).
    import json

    fcidump = chain_fcidump(tmp_path, 10)
    out = tmp_path / "fci.json"
    run = run_capped(_CAPPED_FCI, str(fcidump), str(out), "1500")
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(out.read_text())
    assert result["dim"] == 63504
    assert abs(result["fci"] - (-5.283552451823878)) < 1e-8


_TRACED_FCI = """
import sys, tracemalloc
from vqchem import fci_ground_state, load_fcidump, make_ci_space
s = load_fcidump(sys.argv[1])
space = make_ci_space(s.n_orb, s.n_elec)
tracemalloc.start()
fci_ground_state(space, s)
print(tracemalloc.get_traced_memory()[1])
"""


def test_fci_h10_davidson_keeps_packed_vectors(h10_fcidump):
    # The traced peak of a fresh H10 solve, in a new process so that no
    # workspace or plan is warm: 43.7 MB with full-length Davidson vectors,
    # 28.1 MB packed, 15.3 MB of which are the two (30, 31878) arrays.
    run = run_capped(_TRACED_FCI, str(h10_fcidump))
    assert run.returncode == 0, run.stderr[-2000:]
    assert int(run.stdout) < 34e6


_CAPPED_UCC = """
import json, resource, sys
cap = int(sys.argv[2]) << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from pathlib import Path
from vqchem import (energy, energy_and_gradient, hf_energy, make_ci_space,
                    make_uccsd_problem, parse_fcidump, ucc_state)
s = parse_fcidump(Path(sys.argv[1]).read_text())
p = make_uccsd_problem(s)
space = make_ci_space(s.n_orb, s.n_elec)
e, grad = energy_and_gradient(space, p.ex_ops, p.init_guess, p.param_ids, s)
direct = energy(space, ucc_state(space, p.ex_ops, p.init_guess, p.param_ids),
                s)
print(json.dumps({"dim": space.dim, "n_ex": len(p.ex_ops), "e": e,
                  "direct": direct, "hf": hf_energy(s),
                  "grad": grad.tolist()}))
"""


def test_uccsd_h12_energy_and_gradient_fit_2_gb_address_space(tmp_path):
    # H12 UCCSD (954 excitations, dim 853,776) caches 1.1 GB of rotation
    # tables at 16 bytes per determinant pair; at 48 bytes per pair it died
    # with MemoryError under 3 GB.
    import json

    run = run_capped(_CAPPED_UCC, str(chain_fcidump(tmp_path, 12)), "2048")
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["dim"], result["n_ex"]) == (853776, 954)
    assert np.all(np.isfinite(result["grad"])) and np.isfinite(result["e"])
    assert result["e"] <= result["hf"]
    assert abs(result["e"] - result["direct"]) < 1e-10


def test_energy_rejects_zero_vector(h2):
    space = make_ci_space(2, 2)
    with pytest.raises(ZeroState):
        energy(space, np.zeros(space.dim), h2)


# ---------------------------------------------------------------------------
# Statevector embedding and serialization
# ---------------------------------------------------------------------------

def test_statevector_round_trip():
    """Determinant (ia, ib) lands at index alpha << n_orb | beta with its
    amplitude and sign, and nothing lands anywhere else."""
    rng = np.random.default_rng(47)
    space = make_ci_space(3, 2)
    v = CIVector(space, rng.normal(size=space.dim))
    sv = civector_to_statevector(space, v)
    index = [(int(a) << 3) | int(b) for a in space.alpha_strings
             for b in space.beta_strings]
    np.testing.assert_array_equal(sv[index], v.amplitudes)
    sv[index] = 0.0
    assert not np.any(sv)


def test_statevector_size_limit():
    space = make_ci_space(13, 2)
    with pytest.raises(SizeLimit):
        civector_to_statevector(space, hf_vector(space))


def test_load_rejects_malformed_state_files(tmp_path):
    space = make_ci_space(4, 4)
    path = tmp_path / "state.civec"
    save_civector(path, hf_vector(space))
    good = path.read_bytes()
    bad = {
        "short header": good[:7],
        "truncated payload": good[:-8],
        "extra payload": good + bytes(8),
        "negative count": struct.pack("<3i", 4, -1, -1) + good[12:],
        "too many electrons": struct.pack("<3i", 4, 5, 5) + good[12:],
        "open shell": struct.pack("<3i", 4, 2, 1) + good[12:],
    }
    for case, raw in bad.items():
        path.write_bytes(raw)
        with pytest.raises(ParseError):
            load_civector(path)
        with pytest.raises(ParseError):
            load_civector(path, space)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(53)
    space = make_ci_space(4, 4)
    v = CIVector(space, rng.normal(size=space.dim))
    path = tmp_path / "state.civec"
    save_civector(path, v)
    w = load_civector(path)
    assert (w.space.n_orb, w.space.n_elec) == (4, 4)
    np.testing.assert_allclose(w.amplitudes, v.amplitudes, atol=0)
    with pytest.raises(InvalidParams, match="different space"):
        load_civector(path, make_ci_space(4, 2))
