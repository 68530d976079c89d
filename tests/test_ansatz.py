import dataclasses
import gc

import numpy as np
import pytest

from vqchem import (
    CISpace,
    InvalidExcitation,
    InvalidParamMap,
    InvalidParams,
    ParseError,
    UCCProblem,
    adapt_vqe,
    apply_hamiltonian,
    build_operator_pool,
    build_puccd_hamiltonian,
    civector_at,
    civector_to_statevector,
    doci_ground_state,
    energy,
    fci_ground_state,
    hamiltonian_diagonal,
    hf_energy,
    load_ansatz,
    make_ci_space,
    make_kupccgsd_problem,
    make_puccd_problem,
    make_uccsd_problem,
    paired_energy_and_gradient,
    problem_energy_and_gradient,
    save_ansatz,
    ucc_state,
)
from vqchem.ansatz import _pool_gradients
from vqchem import civector
from vqchem.civector import _pair_hop_table, _pair_sigma
from oracles import (
    adapt_pool_gradients,
    pair_configurations,
    pair_hamiltonian_matrix,
    pair_hop_table,
    signed_rotation_table,
    signed_sweep,
)
from helpers import run_capped

H4_DOCI_GROUND = -2.1487401214614756


# ---------------------------------------------------------------------------
# Excitation enumeration and MP2 start
# ---------------------------------------------------------------------------

def test_uccsd_h2_enumeration(h2):
    p = make_uccsd_problem(h2)
    assert p.ex_ops == [(3, 2), (1, 0), (1, 3, 2, 0)]
    assert p.param_ids == [0, 0, 1]
    assert p.init_guess[0] == 0.0
    assert abs(p.init_guess[1] - (-0.072608)) < 1e-4


def test_uccsd_counts(h4, h6):
    raw = make_uccsd_problem(h4, screen_eps=0.0, sort=False)
    assert (len(raw.ex_ops), raw.n_params) == (26, 15)
    screened = make_uccsd_problem(h4)
    assert (len(screened.ex_ops), screened.n_params) == (18, 11)
    screened6 = make_uccsd_problem(h6)
    assert (len(screened6.ex_ops), screened6.n_params) == (69, 39)


def test_uccsd_structure(h4):
    p = make_uccsd_problem(h4)
    sizes = [len(ex) for ex in p.ex_ops]
    first_double = sizes.index(4)
    assert all(k == 2 for k in sizes[:first_double])
    assert all(k == 4 for k in sizes[first_double:])
    # singles are unamplified, doubles sorted by descending magnitude
    singles_pids = {pid for ex, pid in zip(p.ex_ops, p.param_ids)
                    if len(ex) == 2}
    assert all(p.init_guess[pid] == 0.0 for pid in singles_pids)
    doubles_pids = [pid for ex, pid in zip(p.ex_ops, p.param_ids)
                    if len(ex) == 4]
    mags = [abs(p.init_guess[pid]) for pid in dict.fromkeys(doubles_pids)]
    assert mags == sorted(mags, reverse=True)
    assert all(m >= 1e-8 for m in mags)


def test_screening_preserves_optimum(h4):
    space = make_ci_space(4, 4)
    full = make_uccsd_problem(h4, screen_eps=0.0)
    cut = make_uccsd_problem(h4)
    from vqchem.vqe import kernel
    e_full = kernel(full).e
    e_cut = kernel(cut).e
    assert abs(e_full - e_cut) < 1e-6


def test_kupccgsd_problem(h4):
    p = make_kupccgsd_problem(h4, k=2, seed=3)
    assert (len(p.ex_ops), p.n_params) == (36, 24)
    assert np.max(np.abs(p.init_guess)) <= 1e-2
    q = make_kupccgsd_problem(h4, k=2, seed=3)
    np.testing.assert_array_equal(p.init_guess, q.init_guess)
    r = make_kupccgsd_problem(h4, k=2, seed=4)
    assert not np.array_equal(p.init_guess, r.init_guess)
    with pytest.raises(ValueError):
        make_kupccgsd_problem(h4, k=0)


def test_puccd_problem(h4):
    p = make_puccd_problem(h4)
    assert p.hard_core_boson and p.n_qubits == 4
    assert (len(p.ex_ops), p.n_params) == (4, 4)
    for ex in p.ex_ops:
        a, a2, i, i2 = ex
        assert a == a2 + 4 and i2 == i + 4  # both spins move together


def test_problem_validation(h2):
    with pytest.raises(InvalidParamMap):
        UCCProblem(h2, [(1, 0), (3, 2)], [0, 2], np.zeros(2))
    with pytest.raises(InvalidParamMap):
        UCCProblem(h2, [(1, 0)], [0, 1], np.zeros(2))
    with pytest.raises(InvalidExcitation):
        UCCProblem(h2, [(1, 0)], [0], np.zeros(1), hard_core_boson=True)


# ---------------------------------------------------------------------------
# Pair-restricted engine
# ---------------------------------------------------------------------------

def test_paired_hamiltonian_three_routes(h4):
    """Pair-space matrix, qubit operator, and fermionic expansion agree."""
    mat = pair_hamiltonian_matrix(h4)
    np.testing.assert_allclose(mat, mat.T, atol=1e-12)

    # route 2: dense matrix of the qubit operator, restricted to the
    # pair-occupation basis states (configuration mask == vector index)
    dense = build_puccd_hamiltonian(h4).to_dense_matrix()
    idx = pair_configurations(4, 2)
    np.testing.assert_allclose(mat, np.real(dense[np.ix_(idx, idx)]),
                               atol=1e-10)

    # route 3: expectation through the full determinant space
    p = make_puccd_problem(h4)
    rng = np.random.default_rng(7)
    space = make_ci_space(4, 4)
    for _ in range(3):
        params = rng.uniform(-0.3, 0.3, size=p.n_params)
        e_paired, _ = paired_energy_and_gradient(
            space, p.ex_ops, params, p.param_ids, h4)
        v = ucc_state(space, p.ex_ops, params, p.param_ids)
        assert abs(e_paired - energy(space, v, h4)) < 1e-10


def test_paired_gradient_matches_finite_difference(h4):
    space = make_ci_space(4, 4)
    p = make_puccd_problem(h4)
    rng = np.random.default_rng(11)
    params = rng.uniform(-0.3, 0.3, size=p.n_params)
    _, grad = paired_energy_and_gradient(space, p.ex_ops, params,
                                         p.param_ids, h4)
    h = 1e-5
    for k in range(p.n_params):
        shift = np.zeros(p.n_params)
        shift[k] = h
        e_p, _ = paired_energy_and_gradient(space, p.ex_ops, params + shift,
                                            p.param_ids, h4)
        e_m, _ = paired_energy_and_gradient(space, p.ex_ops, params - shift,
                                            p.param_ids, h4)
        assert abs(grad[k] - (e_p - e_m) / (2 * h)) < 1e-8


def test_paired_sweep_matches_signed_table_oracle(h4):
    # the pUCCD engine against the signed two-half tables, with one
    # parameter shared by two pair hops
    space = make_ci_space(4, 4)
    p = make_puccd_problem(h4)
    pair_dets = pair_configurations(4, 2)
    tables = [signed_rotation_table(*pair_hop_table(pair_dets, a, i))
              for _, a, i, _ in p.ex_ops]
    param_ids = [0, 1, 0, 2]
    start = np.eye(len(pair_dets))[0]
    rng = np.random.default_rng(79)
    for _ in range(3):
        params = rng.uniform(-0.8, 0.8, size=3)
        want_e, want_grad = signed_sweep(
            tables, params, param_ids, start, pair_hamiltonian_matrix(h4).dot)
        got_e, got_grad = paired_energy_and_gradient(
            space, p.ex_ops, params, param_ids, h4)
        assert abs(got_e - want_e) <= 1e-12
        np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["h4", "h6", "h8"])
def test_puccd_matches_pair_hamiltonian_oracle(case, request):
    # hop tables, energy and gradient on the CI space's alpha strings
    # against the loop-built pair Hamiltonian and hop tables
    s = request.getfixturevalue(case)
    n = s.n_orb
    space = make_ci_space(n, s.n_elec)
    pair_dets = pair_configurations(n, s.n_elec // 2)
    np.testing.assert_array_equal(space.alpha_strings, pair_dets)
    for p in range(n):
        for q in range(n):
            if p != q:
                rows, cols, _ = pair_hop_table(pair_dets, p, q)
                np.testing.assert_array_equal(_pair_hop_table(space, p, q),
                                              [rows, cols])
    problem = make_puccd_problem(s)
    tables = [signed_rotation_table(*pair_hop_table(pair_dets, a, i))
              for _, a, i, _ in problem.ex_ops]
    start = np.eye(len(pair_dets))[0]
    mat = pair_hamiltonian_matrix(s)
    rng = np.random.default_rng(89)
    for _ in range(3):
        params = rng.uniform(-0.8, 0.8, size=problem.n_params)
        want_e, want_grad = signed_sweep(tables, params, problem.param_ids,
                                         start, mat.dot)
        got_e, got_grad = paired_energy_and_gradient(
            space, problem.ex_ops, params, problem.param_ids, s)
        assert abs(got_e - want_e) <= 1e-12
        np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["h4", "h6", "h8"])
def test_pair_hamiltonian_apply_matches_oracle(case, request):
    s = request.getfixturevalue(case)
    space = make_ci_space(s.n_orb, s.n_elec)
    mat = pair_hamiltonian_matrix(s)
    rng = np.random.default_rng(97)
    for _ in range(3):
        c = rng.normal(size=space.n_strings_alpha)
        np.testing.assert_allclose(_pair_sigma(space, s, c), mat @ c,
                                   rtol=0, atol=1e-12 * np.abs(mat).max())
    # the diagonal is the (J, J) diagonal of the determinant space
    diag = hamiltonian_diagonal(space, s).reshape(space.n_strings_alpha, -1)
    np.testing.assert_allclose(np.diag(mat), np.diag(diag), rtol=0,
                               atol=1e-12)


@pytest.mark.parametrize("case", ["h4", "h6", "h8"])
def test_cached_pair_diagonal_is_bit_identical(case, request):
    """The cached diagonal gives the sigma that recomputing it on every
    apply gave, to the last bit, cold and warm, and its table holds one
    entry per integrals."""
    s = request.getfixturevalue(case)
    space = CISpace(s.n_orb, s.n_elec)
    c = np.random.default_rng(101).normal(size=space.n_strings_alpha)
    e_same, occ, j_mat = civector._string_energies(space, s)
    diag = 2.0 * e_same + np.einsum("ip,ip->i", occ @ j_mat, occ) + s.e_core
    want = diag * c
    for p in range(s.n_orb):
        for q in range(p):
            rows, cols = _pair_hop_table(space, p, q)
            k = s.int2e[p, q, q, p]
            np.add.at(want, rows, k * c[cols])
            np.add.at(want, cols, k * c[rows])
    for _ in range(2):
        np.testing.assert_array_equal(_pair_sigma(space, s, c), want)
    table = space._action_cache["pair-diag"]
    assert list(table.keys()) == [s]
    np.testing.assert_array_equal(table[s], diag)
    other = dataclasses.replace(s, e_core=s.e_core + 1.0)
    np.testing.assert_allclose(_pair_sigma(space, other, c), want + c,
                               rtol=0, atol=1e-12)
    assert len(table) == 2
    del other
    gc.collect()
    assert list(table.keys()) == [s]


def test_reversed_pair_hop_is_a_view():
    space = make_ci_space(6, 6)
    for p, q in [(1, 0), (4, 2), (5, 0)]:
        table = _pair_hop_table(space, p, q)
        back = _pair_hop_table(space, q, p)
        assert np.shares_memory(table, back)
        np.testing.assert_array_equal(back, table[::-1])


def test_puccd_builds_no_link_plan(h6):
    # a fresh space: the shared one may hold a link plan from other tests
    space = CISpace(h6.n_orb, h6.n_elec)
    problem = make_puccd_problem(h6)
    paired_energy_and_gradient(space, problem.ex_ops, problem.init_guess,
                               problem.param_ids, h6)
    assert "link" not in space._action_cache
    assert set(space._action_cache) == {"occ", "pair-diag"} | {
        ("hop", p, q) for p in range(h6.n_orb) for q in range(p)}


_TRACED_PUCCD = """
import sys, tracemalloc
from vqchem import (load_fcidump, make_ci_space, make_puccd_problem,
                    paired_energy_and_gradient)
s = load_fcidump(sys.argv[1])
p = make_puccd_problem(s)
space = make_ci_space(s.n_orb, s.n_elec)
tracemalloc.start()
paired_energy_and_gradient(space, p.ex_ops, p.init_guess, p.param_ids, s)
print(tracemalloc.get_traced_memory()[1])
"""


def test_puccd_h16_energy_and_gradient_peak(h16_fcidump):
    # One cold energy+gradient on 12,870 pair configurations, traced in a
    # fresh process: 53.2 MB when the hops came from the determinant link
    # plan, 9.3 MB with one hop table per orbital pair (6.6 MB of tables).
    run = run_capped(_TRACED_PUCCD, str(h16_fcidump))
    assert run.returncode == 0, run.stderr[-2000:]
    assert int(run.stdout) < 16e6


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_puccd_non_finite_params_are_refused(bad, h4):
    space = make_ci_space(4, 4)
    p = make_puccd_problem(h4)
    params = p.init_guess.copy()
    params[0] = bad
    with pytest.raises(InvalidParams):
        paired_energy_and_gradient(space, p.ex_ops, params, p.param_ids, h4)
    with pytest.raises(InvalidParams):
        civector_at(p, params)
    with pytest.raises(InvalidParams):
        UCCProblem(h4, p.ex_ops, p.param_ids, params, hard_core_boson=True)


def test_paired_engine_matches_full_space_engine(h4):
    """Energy and gradient of pUCCD agree between the pair configurations
    and the full determinant space at random parameters."""
    from vqchem import energy_and_gradient

    p = make_puccd_problem(h4)
    space = make_ci_space(4, 4)
    rng = np.random.default_rng(13)
    for _ in range(3):
        params = rng.uniform(-0.8, 0.8, size=p.n_params)
        e_paired, g_paired = paired_energy_and_gradient(
            space, p.ex_ops, params, p.param_ids, h4)
        e_full, g_full = energy_and_gradient(
            space, p.ex_ops, params, p.param_ids, h4)
        assert abs(e_paired - e_full) < 1e-12
        np.testing.assert_allclose(g_paired, g_full, rtol=0, atol=1e-12)


def test_puccd_reaches_pair_restricted_ground_state(h4):
    doci = float(np.linalg.eigvalsh(pair_hamiltonian_matrix(h4))[0])
    assert abs(doci - H4_DOCI_GROUND) < 1e-10
    from vqchem.vqe import kernel
    res = kernel(make_puccd_problem(h4))
    assert res.e >= doci - 1e-10
    assert abs(res.e - doci) < 1e-4
    # pair restriction loses correlation against the full treatment
    e_fci, _ = fci_ground_state(make_ci_space(4, 4), h4)
    assert doci > e_fci


@pytest.mark.parametrize("case", ["h4", "h6", "h8"])
def test_doci_matches_the_pair_hamiltonian_oracle(case, request):
    s = request.getfixturevalue(case)
    space = make_ci_space(s.n_orb, s.n_elec)
    mat = pair_hamiltonian_matrix(s)
    e, c = doci_ground_state(space, s)
    assert abs(e - np.linalg.eigvalsh(mat)[0]) <= 1e-10
    if case == "h4":
        assert abs(e - H4_DOCI_GROUND) <= 1e-10
    assert abs(np.linalg.norm(c) - 1.0) < 1e-12
    assert np.linalg.norm(mat @ c - e * c) < 1e-7


@pytest.mark.parametrize("case", ["h2", "h4", "h6", "h8"])
def test_puccd_doci_fci_ordering(case, request):
    from vqchem.vqe import kernel

    s = request.getfixturevalue(case)
    space = make_ci_space(s.n_orb, s.n_elec)
    e_puccd = kernel(make_puccd_problem(s)).e
    e_doci, _ = doci_ground_state(space, s)
    e_fci, _ = fci_ground_state(space, s)
    assert e_puccd >= e_doci - 1e-10
    assert e_doci >= e_fci - 1e-10


def test_problem_statevector_matches_civector(h4):
    p = make_uccsd_problem(h4)
    v = civector_at(p, p.init_guess)
    sv = civector_to_statevector(v.space, v)
    assert abs(np.linalg.norm(sv) - 1.0) < 1e-12
    nz = np.nonzero(sv)[0]
    assert len(nz) == np.count_nonzero(v.amplitudes)


def test_problem_dispatch_matches_engines(h4):
    for p in (make_uccsd_problem(h4), make_puccd_problem(h4)):
        e, grad = problem_energy_and_gradient(p, p.init_guess)
        assert np.isfinite(e) and grad.shape == (p.n_params,)
        assert e < hf_energy(h4) + 1e-10


# ---------------------------------------------------------------------------
# Adaptive ansatz growth
# ---------------------------------------------------------------------------

def test_operator_pool_structure():
    pool = build_operator_pool(4, 4)
    assert len(pool.groups) == 15
    for group in pool.groups:
        assert len(group) in (1, 2)
        assert len({len(ex) for ex in group}) == 1  # no mixed-rank groups


def test_adapt_vqe_h2(h2):
    pool = build_operator_pool(2, 2)
    grown = adapt_vqe(h2, pool, epsilon=1e-4)
    trajectory = grown.trajectory
    e_fci, _ = fci_ground_state(make_ci_space(2, 2), h2)
    assert abs(trajectory[0] - hf_energy(h2)) < 1e-10
    assert abs(trajectory[-1] - e_fci) < 1e-8
    assert all(b <= a + 1e-10 for a, b in zip(trajectory, trajectory[1:]))
    # one double excitation is enough; mean-field singles never get picked
    assert grown.problem.ex_ops == [(1, 3, 2, 0)]
    assert grown.converged and grown.gradient_norm < 1e-4
    assert grown.optimizer_converged == [True]


def test_adapt_vqe_reports_a_stop_at_max_iter(h4):
    pool = build_operator_pool(4, 4)
    grown = adapt_vqe(h4, pool, epsilon=1e-3, max_iter=1)
    assert len(grown.trajectory) == 2 and len(grown.optimizer_converged) == 1
    assert not grown.converged and grown.gradient_norm >= 1e-3
    # the norm is that of the final state, not of the reference
    space = make_ci_space(4, 4)
    psi = ucc_state(space, grown.problem.ex_ops, grown.problem.init_guess,
                    grown.problem.param_ids).amplitudes
    h_psi = apply_hamiltonian(space, psi, h4).amplitudes
    assert abs(grown.gradient_norm - np.linalg.norm(
        adapt_pool_gradients(space, pool, psi, h_psi))) < 1e-12


@pytest.mark.parametrize("case", ["h4", "h6"])
def test_pool_gradients_match_generator_loop(case, request):
    s = request.getfixturevalue(case)
    space = make_ci_space(s.n_orb, s.n_elec)
    pool = build_operator_pool(s.n_orb, s.n_elec)
    rng = np.random.default_rng(101)
    for _ in range(3):
        psi = rng.normal(size=space.dim)
        psi /= np.linalg.norm(psi)
        h_psi = apply_hamiltonian(space, psi, s).amplitudes
        np.testing.assert_allclose(
            _pool_gradients(space, pool, psi, h_psi),
            adapt_pool_gradients(space, pool, psi, h_psi), rtol=0, atol=1e-12)


def test_adapt_vqe_h6_group_order(h6):
    # the order in which ADAPT picked the pool groups of h6 when every pool
    # gradient was a full generator application
    pool = build_operator_pool(6, 6)
    grown = adapt_vqe(h6, pool, epsilon=1e-3)
    first = {}
    for ex, pid in zip(grown.problem.ex_ops, grown.problem.param_ids):
        first.setdefault(pid, ex)
    picked = [next(k for k, group in enumerate(pool.groups)
                   if first[pid] in group)
              for pid in range(grown.problem.n_params)]
    assert picked == [
        37, 17, 48, 22, 39, 60, 13, 43, 26, 58, 30, 41, 33, 51, 28, 9, 11,
        53, 32, 18, 35, 44, 62, 20, 54, 24, 56, 46, 50, 15, 3, 7, 1, 5]
    assert grown.converged


def test_adapt_vqe_validation(h2):
    pool = build_operator_pool(2, 2)
    with pytest.raises(ValueError):
        adapt_vqe(h2, pool, epsilon=0.0)


# ---------------------------------------------------------------------------
# Ansatz file round trip
# ---------------------------------------------------------------------------

def test_ansatz_round_trip(tmp_path, h4):
    p = make_uccsd_problem(h4)
    path = tmp_path / "ansatz.txt"
    save_ansatz(path, p)
    q = load_ansatz(path, h4)
    assert q.ex_ops == p.ex_ops
    assert q.param_ids == p.param_ids
    np.testing.assert_allclose(q.init_guess, p.init_guess, atol=0)


def test_ansatz_parse_errors(tmp_path, h2):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 (1,0)\n")
    with pytest.raises(ParseError, match="line 1"):
        load_ansatz(bad, h2)
    bad.write_text("0 (1,0) 0.1\n0 (3,2) 0.2\n")
    with pytest.raises(ParseError, match="line 2"):
        load_ansatz(bad, h2)
    bad.write_text("x (1,0) 0.1\n")
    with pytest.raises(ParseError):
        load_ansatz(bad, h2)
