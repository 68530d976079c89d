import itertools
import sys

import numpy as np
import pytest

from vqchem import (
    IntegralSet,
    InvalidExcitation,
    InvalidParams,
    SizeLimit,
    UCCProblem,
    adapt_vqe,
    apply_excitation,
    build_fermion_hamiltonian,
    build_hubbard,
    build_operator_pool,
    build_ry_ansatz,
    civector_at,
    civector_to_statevector,
    expectation,
    fci_ground_state,
    hea_kernel,
    hf_energy,
    hf_vector,
    kernel,
    make_ci_space,
    make_kupccgsd_problem,
    make_puccd_problem,
    make_uccsd_problem,
    mp2,
    parameter_shift_gradient,
    parity_transform,
    print_summary,
    problem_energy_and_gradient,
    result_to_json,
    simulate_state,
)
from vqchem.cli import _hea_init_params, _reference_bitstring
from vqchem.vqe import _GRAD_TOL, _minimize_lbfgs
import oracles

H2_FCI = -1.1372744055294606
H4_FCI = -2.1675605441340577


def test_h2_uccsd_pinned_results(h2):
    problem = make_uccsd_problem(h2)
    result = kernel(problem)
    assert abs(result.e - H2_FCI) < 1e-9
    assert abs(result.x[1] - (-0.112986561)) < 1e-6
    assert abs(problem.init_guess[1] - (-0.072608)) < 1e-4
    assert result.converged
    assert result.nit <= 10 and result.nfev >= result.nit
    assert np.max(np.abs(result.grad_at_opt)) < 1e-6
    v = civector_at(problem, result.x)
    amps = v.amplitudes * np.sign(v.amplitudes[0])
    np.testing.assert_allclose(amps, [0.99362, 0.0, 0.0, -0.11275],
                               atol=1e-4)


def test_h4_uccsd_close_to_fci(h4):
    result = kernel(make_uccsd_problem(h4))
    assert result.converged
    error_mh = (result.e - H4_FCI) * 1000.0
    assert abs(error_mh - 0.01) < 0.02
    assert result.e >= H4_FCI - 1e-10  # variational


@pytest.mark.parametrize("case", ["h4", "h6"])
def test_optimizer_path_does_not_follow_rounding(case, request):
    # the core energy only shifts E; relative changes at the rounding level
    # must leave the optimizer's path, and so its counts, unchanged
    from dataclasses import replace

    from vqchem.vqe import _GRAD_TOL

    s = request.getfixturevalue(case)
    counts = set()
    for scale in (1.0, 1.0 + 1e-15, 1.0 + 4e-15):
        result = kernel(make_uccsd_problem(replace(s, e_core=s.e_core
                                                   * scale)))
        assert result.converged
        assert np.max(np.abs(result.grad_at_opt)) <= _GRAD_TOL
        assert result.nfev <= 2 * result.nit
        counts.add((result.nit, result.nfev))
    assert len(counts) == 1, counts


def test_kupccgsd_h2_reaches_fci(h2):
    result = kernel(make_kupccgsd_problem(h2, k=1, seed=0))
    assert abs(result.e - H2_FCI) < 1e-7


def test_kernel_on_empty_parameter_vector(h2):
    from vqchem import UCCProblem
    problem = UCCProblem(h2, [], [], np.zeros(0))
    assert problem.n_params == 0
    result = kernel(problem)
    assert abs(result.e - hf_energy(h2)) < 1e-10
    assert result.nit == 0 and result.converged


def test_energy_and_state_accessors(h2):
    problem = make_uccsd_problem(h2)
    result = kernel(problem)
    e, _ = problem_energy_and_gradient(problem, result.x)
    assert abs(e - result.e) < 1e-12
    v = civector_at(problem, result.x)
    sv = civector_to_statevector(v.space, v)
    assert abs(np.linalg.norm(sv) - 1.0) < 1e-12
    with pytest.raises(InvalidParams):
        civector_at(problem, [0.1])


def test_civector_at_refuses_an_oversized_space_before_building_it(
        monkeypatch):
    from vqchem import vqe

    s = IntegralSet(16, 8, np.zeros((16, 16)), np.zeros((16,) * 4), 0.0)
    problem = UCCProblem(s, [(8, 0)], [0], [0.1])
    monkeypatch.setattr(vqe, "make_ci_space",
                        lambda *args: pytest.fail("the space was built"))
    with pytest.raises(SizeLimit):
        civector_at(problem, [0.1])


@pytest.mark.parametrize("solve", [
    lambda s: kernel(make_kupccgsd_problem(s)),
    lambda s: adapt_vqe(s, build_operator_pool(s.n_orb, s.n_elec), 1e-3),
], ids=["kernel", "adapt_vqe"])
def test_oversized_space_is_refused_before_any_rotation_table(
        monkeypatch, solve):
    """A 14-site chain has 3,432 strings per spin but 11,778,624
    determinants, past the limit on a full determinant vector."""
    from vqchem import civector

    monkeypatch.setattr(civector, "_excitation_table",
                        lambda *args: pytest.fail("a table was built"))
    with pytest.raises(SizeLimit, match="CI dimension 11778624"):
        solve(build_hubbard(14, 1.0, 4.0))


def test_deterministic_reruns(h4):
    problem = make_uccsd_problem(h4)
    a = kernel(problem)
    b = kernel(problem)
    assert a.e == b.e
    np.testing.assert_array_equal(a.x, b.x)
    assert (a.nit, a.nfev, a.njev) == (b.nit, b.nfev, b.njev)


def test_summary_report(h2, capsys):
    problem = make_uccsd_problem(h2)
    result = kernel(problem)
    e_fci = fci_ground_state(make_ci_space(2, 2), h2)[0]
    report = print_summary(problem, result, fci_reference=e_fci)
    out = capsys.readouterr().out
    assert "Ansatz" in out and "Energy" in out and "Excitations" in out
    assert report.ansatz["n_qubits"] == 4
    assert report.ansatz["n_params"] == 2
    assert report.ansatz["initial_condition"] == "MP2"
    assert abs(report.energies["HF"]["energy"] - hf_energy(h2)) < 1e-12
    e_mp2 = hf_energy(h2) + mp2(h2).e_corr
    assert abs(report.energies["MP2"]["energy"] - e_mp2) < 1e-12
    assert abs(report.energies["FCI"]["error_mH"]) < 1e-9
    assert abs(report.energies["UCCSD"]["corr_pct"] - 100.0) < 1e-4
    assert report.energies["CCSD"] is None
    # the double excitation reaches the doubly-excited closed-shell state:
    # both spins of orbital 1 occupied = spin-orbitals 1 and 3 = index 1010
    rows = {tuple(r["excitation"]): r for r in report.excitations}
    assert rows[(1, 3, 2, 0)]["configuration"] == "1010"
    assert abs(rows[(1, 3, 2, 0)]["parameter"] - (-0.112986561)) < 1e-6


def test_summary_without_fci_reference_shows_dashes(h2, capsys):
    # print_summary solves no FCI: without a reference the FCI row and
    # every error and correlation percentage are dashes
    problem = make_uccsd_problem(h2)
    report = print_summary(problem, kernel(problem))
    rows = {line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["HF"], ["UCCSD"], ["FCI"])}
    assert report.energies["FCI"] is None
    assert report.energies["UCCSD"]["error_mH"] is None
    assert report.energies["UCCSD"]["corr_pct"] is None
    assert rows["FCI"] == ["-", "-", "-"]
    assert rows["HF"][1:] == rows["UCCSD"][1:] == ["-", "-"]
    assert float(rows["HF"][0]) == pytest.approx(hf_energy(h2), abs=1e-9)


def _reached(space, ex):
    """(alpha, beta) strings of the determinant G = g - g-dagger reaches
    from the reference, or None when G kills it."""
    w = apply_excitation(space, hf_vector(space), ex).amplitudes
    if not np.any(w):
        return None
    ia, ib = divmod(int(np.argmax(np.abs(w))), space.n_strings_beta)
    return int(space.alpha_strings[ia]), int(space.beta_strings[ib])


@pytest.mark.parametrize("case", ["h2", "h4"])
def test_configuration_bitstring_matches_apply_excitation(case, request):
    """Every spin-conserving single and double, excitations and
    de-excitations alike, and every pair hop in the pair space."""
    from vqchem.vqe import _configuration_bitstring

    s = request.getfixturevalue(case)
    n = s.n_orb
    space = make_ci_space(n, s.n_elec)
    full = make_uccsd_problem(s)
    for k in (1, 2):
        for cre in itertools.permutations(range(2 * n), k):
            for ann in itertools.combinations(range(2 * n), k):
                if sum(i >= n for i in cre) != sum(i >= n for i in ann):
                    continue
                hit = _reached(space, cre + ann)
                want = ("-" * 2 * n if hit is None
                        else format(hit[0] << n | hit[1], f"0{2 * n}b"))
                assert _configuration_bitstring(full, cre + ann) == want
    paired = make_puccd_problem(s)
    for p, q in itertools.permutations(range(n), 2):
        ex = (p + n, p, q, q + n)
        hit = _reached(space, ex)
        want = "-" * n if hit is None else format(hit[1], f"0{n}b")
        assert _configuration_bitstring(paired, ex) == want


def test_result_json_payload(h2):
    problem = make_uccsd_problem(h2)
    result = kernel(problem)
    e_fci, _ = fci_ground_state(make_ci_space(2, 2), h2)
    payload = result_to_json(problem, result, fci=e_fci)
    assert set(payload) == {"energies", "params", "ex_ops", "param_ids",
                            "nit", "converged"}
    assert abs(payload["energies"]["ucc"] - H2_FCI) < 1e-9
    assert abs(payload["energies"]["fci"] - H2_FCI) < 1e-9
    assert payload["converged"] is True
    assert payload["ex_ops"] == [[3, 2], [1, 0], [1, 3, 2, 0]]


def test_maxiter_is_respected(h4):
    problem = make_uccsd_problem(h4)
    result = kernel(problem, maxiter=1)
    assert result.nit <= 1
    assert not result.converged


# ---------------------------------------------------------------------------
# The numpy L-BFGS driver
# ---------------------------------------------------------------------------

def rosenbrock(x):
    r = x[1:] - x[:-1] ** 2
    grad = np.zeros_like(x)
    grad[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
    grad[1:] += 200.0 * r
    return float(np.sum(100.0 * r ** 2 + (1.0 - x[:-1]) ** 2)), grad


@pytest.mark.parametrize("case", ["h4", "h6", "h8", "hea-h4"])
def test_driver_takes_scipy_lbfgsb_path(case, request):
    """Same iterations and evaluations as scipy's L-BFGS-B on the UCCSD
    problems, driven without curvature, and on the ideal two-layer HEA of
    bundled h4."""
    if case == "hea-h4":
        s = request.getfixturevalue("h4")
        h = parity_transform(build_fermion_hamiltonian(s), s.n_elec,
                             reduce_two_qubits=True)
        c = build_ry_ansatz(h.n_qubits, 2)
        x0 = _hea_init_params(c, _reference_bitstring(h))
        result = hea_kernel(c, x0, h)

        def objective(x):
            return (expectation(simulate_state(c, x), h),
                    parameter_shift_gradient(c, x, h))
    else:
        problem = make_uccsd_problem(request.getfixturevalue(case))
        x0 = problem.init_guess

        def objective(x):
            return problem_energy_and_gradient(problem, x)
        result = _minimize_lbfgs(objective, x0)
    want = oracles.scipy_lbfgsb(objective, x0)
    assert result.converged and want.success
    assert (result.nit, result.nfev) == (want.nit, want.nfev)
    assert abs(result.e - want.fun) < 1e-10


def test_driver_converges_on_rosenbrock():
    result = _minimize_lbfgs(rosenbrock, np.zeros(10))
    assert result.converged
    assert np.max(np.abs(result.grad_at_opt)) <= _GRAD_TOL
    assert np.max(np.abs(result.x - 1.0)) < 1e-5
    assert result.e < 1e-10


def test_driver_start_at_optimum():
    result = _minimize_lbfgs(rosenbrock, np.ones(10))
    assert (result.nit, result.nfev) == (0, 1)
    assert result.converged and result.e == 0.0


def test_driver_iteration_limit():
    result = _minimize_lbfgs(rosenbrock, np.zeros(10), maxiter=3)
    assert result.nit == 3
    assert not result.converged
    assert "iteration limit" in result.message


def test_driver_restarts_then_stops_at_the_lowest_point(monkeypatch):
    """The gradient is that of E plus a fixed offset, so near the minimum
    the searches fail: once along the quasi-Newton direction, then along
    steepest descent with the history cleared.  The lowest point evaluated
    is returned, with the gradient the objective gave there."""
    import vqchem.vqe as vqe

    offset = np.array([1.0, 0.0, 0.0, 0.0])
    seen = []

    def objective(x):
        e = 0.5 * x @ x + 0.25 * (x @ x) ** 2
        seen.append((e, x.copy()))
        return e, x * (1.0 + x @ x) + offset

    searches = []
    search = vqe._wolfe_search

    def recorded(objective, x, e0, g0, d, step):
        out = search(objective, x, e0, g0, d, step)
        searches.append((np.array_equal(d, -g0), step, out[0] is None))
        return out

    monkeypatch.setattr(vqe, "_wolfe_search", recorded)
    result = _minimize_lbfgs(objective, np.array([3.0, 0.5, -1.0, 2.0]))
    assert searches[-2:] == [(False, 1.0, True), (True, 1.0, True)]
    assert not any(failed for _, _, failed in searches[:-2])
    assert result.nfev == len(seen)
    e_min, x_min = min(seen, key=lambda p: p[0])
    assert result.e == e_min and np.array_equal(result.x, x_min)
    assert np.array_equal(result.grad_at_opt, objective(x_min)[1])
    assert not result.converged
    assert "line search failed" in result.message


# ---------------------------------------------------------------------------
# Curvature preconditioning of kernel
# ---------------------------------------------------------------------------

def _one_parameter_per_excitation(problem):
    n = len(problem.ex_ops)
    return UCCProblem(problem.integrals, problem.ex_ops, list(range(n)),
                      np.zeros(n), problem.hard_core_boson)


@pytest.mark.parametrize("case, make", [("h4", make_uccsd_problem),
                                        ("h6", make_uccsd_problem),
                                        ("h6", make_puccd_problem)])
def test_curvature_is_the_energy_of_the_reached_configuration(case, make,
                                                              request):
    """With one parameter per excitation, theta_p = pi/2 turns the reference
    into the configuration D_p, so kappa_p = 2 (E(pi/2 e_p) - E(0)) with E
    from the sigma (or pair sigma) of the engine."""
    from vqchem.ansatz import _problem_curvature

    problem = _one_parameter_per_excitation(
        make(request.getfixturevalue(case)))
    kappa = _problem_curvature(problem)
    assert kappa is not None and kappa.size == problem.n_params
    e0, _ = problem_energy_and_gradient(problem, problem.init_guess)
    for p in range(problem.n_params):
        theta = np.zeros(problem.n_params)
        theta[p] = np.pi / 2
        e, _ = problem_energy_and_gradient(problem, theta)
        assert abs(kappa[p] - 2.0 * (e - e0)) <= 1e-12


@pytest.mark.parametrize("case, make", [("h6", make_uccsd_problem),
                                        ("h8", make_uccsd_problem),
                                        ("h8", make_puccd_problem)])
def test_curvature_halves_the_evaluations(case, make, request):
    problem = make(request.getfixturevalue(case))
    result = kernel(problem)
    plain = _minimize_lbfgs(
        lambda x: problem_energy_and_gradient(problem, x), problem.init_guess)
    assert result.converged and plain.converged
    assert abs(result.e - plain.e) <= 1e-10
    assert 2 * result.nfev <= plain.nfev


def test_kupccgsd_runs_without_curvature(h4):
    """Generalized singles between occupied orbitals annihilate the
    reference, so their parameters have no curvature and kernel takes the
    unpreconditioned path."""
    from vqchem.ansatz import _problem_curvature

    problem = make_kupccgsd_problem(h4, k=1, seed=0)
    space = make_ci_space(h4.n_orb, h4.n_elec)
    assert not any(apply_excitation(space, hf_vector(space), ex)
                   .amplitudes.any() for ex in problem.ex_ops[:2])
    assert _problem_curvature(problem) is None
    result = kernel(problem)
    plain = _minimize_lbfgs(
        lambda x: problem_energy_and_gradient(problem, x), problem.init_guess)
    assert (result.nit, result.nfev, result.e) == (plain.nit, plain.nfev,
                                                   plain.e)


@pytest.mark.parametrize("case", ["h4", "h6", "h8"])
def test_curvature_reads_no_rotation_table(case, monkeypatch, request):
    """The curvature reads the diagonal at the reached configuration, so
    it returns the same bytes (or None) with every table builder refused."""
    from vqchem import ansatz, civector
    from vqchem.ansatz import _problem_curvature

    s = request.getfixturevalue(case)
    problems = [make_uccsd_problem(s), make_puccd_problem(s),
                make_kupccgsd_problem(s, k=1, seed=0)]
    want = [_problem_curvature(p) for p in problems]

    def no_table(*args, **kwargs):
        raise AssertionError("a rotation table was read")

    for module in (ansatz, civector):
        monkeypatch.setattr(module, "_excitation_tables", no_table)
        monkeypatch.setattr(module, "_pair_hop_table", no_table)
    for problem, kappa in zip(problems, want):
        got = _problem_curvature(problem)
        assert (got is None) == (kappa is None)
        if kappa is not None:
            assert got.tobytes() == kappa.tobytes()


def test_kernel_refuses_an_invalid_excitation_the_curvature_cannot_place(h4):
    """The spin-changing double reaches an alpha string with three
    electrons, past the space's last string: the curvature reads no table,
    so the engine's first evaluation refuses it."""
    problem = UCCProblem(h4, [(7, 6, 0, 1)], [0], [0.1])
    with pytest.raises(InvalidExcitation, match="particle count"):
        kernel(problem)


def test_pair_hop_on_no_configuration_has_no_curvature():
    """With no electrons the one pair configuration is empty, so the hop's
    table has no pairs: it adds no curvature and kernel runs as without."""
    s = IntegralSet(2, 0, np.diag([0.0, 1.0]), np.zeros((2,) * 4), 0.0)
    problem = UCCProblem(s, [(3, 1, 0, 2)], [0], [0.1], hard_core_boson=True)
    result = kernel(problem)
    assert (result.e, result.nit, result.nfev) == (0.0, 0, 1)
    assert result.converged


@pytest.mark.parametrize("make, on_determinants",
                         [(make_uccsd_problem, True),
                          (make_puccd_problem, False)])
def test_kernel_reaches_each_traced_layer_once_per_evaluation(
        make, on_determinants, h4, monkeypatch):
    """``bench/layertrace.py`` wraps a function in every package module
    that binds it, so it counts the calls made through module globals.
    Wrapped the same way, the problem's energy and gradient runs once per
    kernel evaluation, and so do the determinant engine's energy and
    gradient and its H apply; the pair engine calls neither."""
    from vqchem import ansatz, civector

    problem = make(h4)
    calls = {}
    for home, name in ((ansatz, "problem_energy_and_gradient"),
                       (civector, "energy_and_gradient"),
                       (civector, "apply_hamiltonian")):
        original = getattr(home, name)
        calls[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key == "vqchem" or key.startswith("vqchem."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    result = kernel(problem)
    inner = result.nfev if on_determinants else 0
    assert result.nfev > 1
    assert calls == {"problem_energy_and_gradient": result.nfev,
                     "energy_and_gradient": inner, "apply_hamiltonian": inner}
