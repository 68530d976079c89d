"""Ansatz construction: spin-adapted singles/doubles, generalized paired
layers, pair-restricted doubles, MP2-based initialization and screening, and
adaptive ansatz growth.

Excitation tuples use the package-wide spin-orbital convention (beta
0..N-1, alpha N..2N-1), creation indices first.  Parameter sharing follows
exact alpha/beta mirror symmetry: operators that map onto each other under a
global spin flip carry the same parameter, which keeps the optimized state an
eigenstate of total spin at closed shell.

A problem is evaluated by one of two engines, chosen once by
``hard_core_boson`` when it is built (:func:`_engine`, its one reader): the
determinants of the problem's CI space, or the pair configurations, that
space's alpha strings read as doubly occupied orbitals, on which every
excitation is a paired double.  Pair hops carry no fermionic signs, so the
pair engine is exact for seniority-zero states.  An engine holds its space,
the width ``n_qubits`` of a configuration mask (spin orbital k, or spatial
orbital p, at bit k or p), the ``reference`` mask at index 0, the
``strides`` that take a mask's (high, low) strings to its index, and its
energy and gradient and H diagonal; the pair engine also holds its own
ground state, DOCI, which bounds pUCCD from below.
:func:`build_puccd_hamiltonian`, which nothing in the package calls, is the
entry point for circuits on the pairs: it writes the paper's N^2-term pUCCD
Hamiltonian, which the pair engine reads too, as an operator on n_orb
qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .civector import (
    CISpace,
    _check_param_map,
    _excitation_sectors,
    _excitation_tables,
    _generator_gradient,
    _pair_diagonal,
    _pair_hop_table,
    _pair_sigma,
    _sweep,
    apply_hamiltonian,
    doci_ground_state,
    energy_and_gradient,
    hamiltonian_diagonal,
    make_ci_space,
    ucc_state,
)
from .errors import (
    InvalidExcitation,
    InvalidParamMap,
    InvalidParams,
    ParseError,
)
from .integrals import (IntegralSet, MP2Result, hf_energy, mp2,
                        pair_hamiltonian)
from .operators import QubitOperator, _pauli_sum, _sum


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------

@dataclass
class UCCProblem:
    """A concrete variational problem: integrals plus an excitation list with
    its parameter mapping and starting point, and the engine that
    ``hard_core_boson`` chooses when the problem is built (:func:`_engine`)."""

    integrals: IntegralSet
    ex_ops: list
    param_ids: list
    init_guess: np.ndarray
    hard_core_boson: bool = False
    engine: _Determinants = field(init=False, repr=False)

    def __post_init__(self):
        self.ex_ops = [tuple(int(i) for i in ex) for ex in self.ex_ops]
        self.param_ids = [int(i) for i in self.param_ids]
        self.init_guess = np.asarray(self.init_guess, dtype=np.float64).ravel()
        if not np.all(np.isfinite(self.init_guess)):
            raise InvalidParams("init_guess must be finite")
        if len(self.ex_ops) != len(self.param_ids):
            raise InvalidParamMap(
                f"{len(self.ex_ops)} excitations, {len(self.param_ids)} ids"
            )
        if self.param_ids and set(self.param_ids) != set(range(self.n_params)):
            raise InvalidParamMap(
                "param_ids must cover 0..n_params-1 with no gaps"
            )
        self.engine = _engine(self)

    @property
    def n_params(self) -> int:
        return len(self.init_guess)

    @property
    def n_qubits(self) -> int:
        return self.engine.n_qubits


def _paired_orbitals(ex, n_orb: int) -> tuple[int, int]:
    """Decompose a pair excitation (p+N, p, q, q+N) into spatial (p, q)."""
    if len(ex) == 4:
        c0, c1, a0, a1 = ex
        if (c0 == c1 + n_orb and a1 == a0 + n_orb
                and 0 <= c1 < n_orb and 0 <= a0 < n_orb and c1 != a0):
            return c1, a0
    raise InvalidExcitation(
        f"{ex} is not a paired double (p+N, p, q, q+N)"
    )


# ---------------------------------------------------------------------------
# Excitation generators
# ---------------------------------------------------------------------------

def generate_uccsd(n_orb: int, n_elec: int):
    """All spin-adapted singles and doubles from occupied to virtual
    orbitals.  Alpha/beta mirror images share a parameter; doubles follow the
    singles so they act last on the reference."""
    no = n_elec // 2
    occ = range(no)
    virt = range(no, n_orb)
    ex_ops: list = []
    param_ids: list = []
    pid = -1

    for i in occ:
        for a in virt:
            pid += 1
            ex_ops.append((a + n_orb, i + n_orb))
            param_ids.append(pid)
            ex_ops.append((a, i))
            param_ids.append(pid)

    # Mixed-spin doubles: beta (i -> a) together with alpha (j -> b).  The
    # operator obtained by exchanging the two spin labels shares the
    # parameter, so enumerate unordered pairs of (occupied, virtual) moves.
    moves = [(i, a) for i in occ for a in virt]
    for m1 in range(len(moves)):
        i, a = moves[m1]
        for m2 in range(m1, len(moves)):
            j, b = moves[m2]
            pid += 1
            ex_ops.append((a, b + n_orb, j + n_orb, i))
            param_ids.append(pid)
            if m2 != m1:
                ex_ops.append((b, a + n_orb, i + n_orb, j))
                param_ids.append(pid)

    # Same-spin doubles: i<j to a<b within one sector; the two sectors share.
    for i in occ:
        for j in range(i + 1, no):
            for a in virt:
                for b in range(a + 1, n_orb):
                    pid += 1
                    ex_ops.append((a + n_orb, b + n_orb, j + n_orb, i + n_orb))
                    param_ids.append(pid)
                    ex_ops.append((a, b, j, i))
                    param_ids.append(pid)
    return ex_ops, param_ids


def generate_kupccgsd(n_orb: int, n_elec: int, k: int):
    """k layers of generalized singles (all orbital pairs, spin mirrors
    shared) followed by generalized paired doubles (all spatial pairs);
    parameters are independent across layers."""
    if k < 1:
        raise InvalidParams(f"layer count k must be >= 1, got {k}")
    ex_ops: list = []
    param_ids: list = []
    pid = -1
    for _ in range(k):
        for q in range(n_orb):
            for p in range(q + 1, n_orb):
                pid += 1
                ex_ops.append((p + n_orb, q + n_orb))
                param_ids.append(pid)
                ex_ops.append((p, q))
                param_ids.append(pid)
        for q in range(n_orb):
            for p in range(q + 1, n_orb):
                pid += 1
                ex_ops.append((p + n_orb, p, q, q + n_orb))
                param_ids.append(pid)
    return ex_ops, param_ids


def generate_puccd(n_orb: int, n_elec: int):
    """Pair-restricted doubles: both spins of an occupied orbital move
    together to a virtual orbital; every pair gets its own parameter."""
    no = n_elec // 2
    ex_ops = [
        (a + n_orb, a, i, i + n_orb)
        for i in range(no)
        for a in range(no, n_orb)
    ]
    return ex_ops, list(range(len(ex_ops)))


# ---------------------------------------------------------------------------
# MP2 initialization, screening, sorting
# ---------------------------------------------------------------------------

def _double_t2_amplitude(ex, n_orb: int, no: int, t2: np.ndarray) -> float:
    """The MP2 amplitude matching a double-excitation tuple."""
    if (ex[0] < n_orb) != (ex[1] < n_orb):
        # one move per spin sector, beta i->a with alpha j->b: sorted, each
        # half lists its beta index first
        (a, b), (i, j) = ([k % n_orb for k in sorted(half)]
                          for half in (ex[:2], ex[2:]))
        return float(t2[i, j, a - no, b - no])
    # both moves in one sector: antisymmetrized amplitude
    a, b, j, i = (k % n_orb for k in ex)
    return float(t2[i, j, a - no, b - no] - t2[i, j, b - no, a - no])


def _parameter_groups(ex_ops, param_ids) -> list:
    """The excitations on each parameter, in parameter order."""
    groups: dict[int, list] = {}
    for ex, pid in zip(ex_ops, param_ids):
        groups.setdefault(pid, []).append(ex)
    return [groups[pid] for pid in sorted(groups)]


def mp2_initialize(problem: UCCProblem, t2: MP2Result,
                   screen_eps: float = 1e-8, sort: bool = True) -> UCCProblem:
    """Initialize doubles from their MP2 amplitudes (singles start at zero),
    drop doubles whose amplitude is below ``screen_eps``, optionally order
    the surviving doubles by descending amplitude magnitude, and recompact
    the parameter ids."""
    s = problem.integrals
    singles: list[tuple[list, float]] = []
    doubles: list[tuple[list, float]] = []
    for ops in _parameter_groups(problem.ex_ops, problem.param_ids):
        if len(ops[0]) == 2:
            singles.append((ops, 0.0))
            continue
        guess = _double_t2_amplitude(ops[0], s.n_orb, s.n_occ, t2.t2)
        if not abs(guess) < screen_eps:
            doubles.append((ops, guess))
    if sort:
        doubles.sort(key=lambda item: -abs(item[1]))
    kept = singles + doubles
    return replace(problem, ex_ops=[ex for ops, _ in kept for ex in ops],
                   param_ids=[pid for pid, (ops, _) in enumerate(kept)
                              for _ in ops],
                   init_guess=np.array([guess for _, guess in kept]))


def make_uccsd_problem(s: IntegralSet, screen_eps: float = 1e-8,
                       sort: bool = True) -> UCCProblem:
    ex_ops, param_ids = generate_uccsd(s.n_orb, s.n_elec)
    raw = UCCProblem(s, ex_ops, param_ids,
                     np.zeros(max(param_ids) + 1 if param_ids else 0))
    return mp2_initialize(raw, mp2(s), screen_eps=screen_eps, sort=sort)


def make_kupccgsd_problem(s: IntegralSet, k: int = 1,
                          seed: int = 0) -> UCCProblem:
    """Zeros plus small uniform noise (1e-2) as the starting point, to move
    the generalized singles off the mean-field stationary point."""
    ex_ops, param_ids = generate_kupccgsd(s.n_orb, s.n_elec, k)
    n_params = max(param_ids) + 1
    rng = np.random.default_rng(seed)
    init = rng.uniform(-1e-2, 1e-2, size=n_params)
    return UCCProblem(s, ex_ops, param_ids, init)


def make_puccd_problem(s: IntegralSet) -> UCCProblem:
    ex_ops, param_ids = generate_puccd(s.n_orb, s.n_elec)
    raw = UCCProblem(s, ex_ops, param_ids, np.zeros(len(ex_ops)),
                     hard_core_boson=True)
    return mp2_initialize(raw, mp2(s), screen_eps=0.0, sort=False)


# ---------------------------------------------------------------------------
# Engines: the determinants or the pair configurations of the CI space
# ---------------------------------------------------------------------------

def build_puccd_hamiltonian(s: IntegralSet) -> QubitOperator:
    """Pair-space Hamiltonian as an operator over n_orb qubits (qubit q
    hosts spatial orbital n_orb-1-q, mask bit q, |1> = orbital doubly
    occupied): the (h, v, w) of :func:`~vqchem.integrals.pair_hamiltonian`
    with n_p = (1 - Z_p)/2 and b+_p b_q + h.c. = (X_p X_q + Y_p Y_q)/2."""
    n = s.n_orb
    h, v, w = pair_hamiltonian(s)
    one = QubitOperator.identity(n)
    num = [_pauli_sum(n, (0, 0), (0, 1 << p), (0.5, -0.5)) for p in range(n)]
    pieces = [s.e_core * one]
    for p in range(n):  # row p: n_p (h_p + v_pp + sum_q 2 w_pq n_q) + hops
        pot = _sum(n, [(h[p] + v[p, p]) * one]
                   + [(2.0 * w[p, q]) * num[q] for q in range(p)])
        pieces.append(num[p] * pot)
        for q in range(p):
            pq, hop = 1 << p | 1 << q, 0.5 * v[p, q]
            pieces.append(_pauli_sum(n, (pq, pq), (0, pq), (hop, hop)))
    return _sum(n, pieces).simplify()


def paired_energy_and_gradient(space: CISpace, ex_ops, params, param_ids,
                               s: IntegralSet):
    """Energy and gradient of pair excitations ``ex_ops`` on the alpha
    strings of ``space`` as pair configurations, from the lowest one."""
    params, ids = _check_param_map(ex_ops, params, param_ids)
    start = np.eye(1, space.n_strings_alpha)[0]  # the lowest configuration
    tables = [_pair_hop_table(space, *_paired_orbitals(ex, space.n_orb))
              for ex in ex_ops]
    return _sweep(tables, params, ids, start,
                  lambda c: _pair_sigma(space, s, c))


@dataclass(frozen=True)
class _Determinants:
    """The determinant engine, whose fields every engine has (see the
    module docstring); other engines override its methods."""

    space: CISpace
    n_qubits: int
    reference: int
    strides: tuple
    ground_state = None  # its own is FCI's, which every result reports

    def evaluate(self, problem: UCCProblem, params):
        return energy_and_gradient(self.space, problem.ex_ops, params,
                                   problem.param_ids, problem.integrals)

    def diagonal(self, s: IntegralSet) -> np.ndarray:
        return hamiltonian_diagonal(self.space, s)


class _Pairs(_Determinants):
    """The pair engine: a configuration's high string is 0."""

    def evaluate(self, problem: UCCProblem, params):
        return paired_energy_and_gradient(self.space, problem.ex_ops, params,
                                          problem.param_ids, problem.integrals)

    def diagonal(self, s: IntegralSet) -> np.ndarray:
        return _pair_diagonal(self.space, s)

    def ground_state(self, s: IntegralSet):
        return doci_ground_state(self.space, s)


def _engine(problem: UCCProblem) -> _Determinants:
    """The engine ``problem.hard_core_boson`` chooses; the pair engine
    refuses an excitation that is not a paired double."""
    s = problem.integrals
    n, occ = s.n_orb, (1 << s.n_elec // 2) - 1
    space = make_ci_space(n, s.n_elec)
    if not problem.hard_core_boson:
        return _Determinants(space, 2 * n, occ << n | occ,
                             (space.n_strings_beta, 1))
    for ex in problem.ex_ops:
        _paired_orbitals(ex, n)
    return _Pairs(space, n, occ, (0, 1))


def problem_energy_and_gradient(problem: UCCProblem, params):
    """Energy and gradient of ``problem``'s ansatz at ``params``, from its
    reference in its engine: :func:`~vqchem.civector.energy_and_gradient`
    on the determinants, :func:`paired_energy_and_gradient` on the pairs."""
    return problem.engine.evaluate(problem, params)


def _reached_configuration(problem: UCCProblem, ex) -> int | None:
    """The configuration that G = g - g-dagger of ``ex`` rotates the
    reference into, as a mask of the problem's engine.  g acts when its
    annihilators are occupied and its creators are free after them,
    otherwise g-dagger may; None when neither acts, or when creators and
    annihilators are one set (g is Hermitian, so G = 0)."""
    width, ref = problem.n_qubits, problem.engine.reference
    half = len(ex) // 2
    creators, annihilators = (sum({1 << (i % width) for i in part})
                              for part in (ex[:half], ex[half:]))
    if creators != annihilators:
        for src, dst in ((annihilators, creators), (creators, annihilators)):
            if ref & src == src and (ref ^ src) & dst == 0:
                return ref ^ src | dst
    return None


def _problem_curvature(problem: UCCProblem):
    """Each parameter's Epstein-Nesbet curvature at the reference, the
    preconditioner of :func:`vqchem.vqe.kernel`: kappa_p = sum_k 2
    (diag[D_k] - diag[0]) over the excitations k on p, with ``diag`` the
    diagonal of H in the problem's engine, index 0 its reference and D_k
    the :func:`_reached_configuration`, if any.  This is E''(0) of a lone
    factor, e^{theta G}|ref> = cos theta |ref> + sin theta |D>; it leaves
    out the couplings of factors that share a parameter.  None if any
    kappa_p <= 0.  It reads no rotation table."""
    s, engine = problem.integrals, problem.engine
    reached = [(pid, mask)
               for ex, pid in zip(problem.ex_ops, problem.param_ids)
               if (mask := _reached_configuration(problem, ex)) is not None]
    diag = engine.diagonal(s)
    strings = np.array([divmod(mask, 1 << s.n_orb) for _, mask in reached],
                       dtype=np.uint64).reshape(-1, 2)
    at = np.searchsorted(engine.space.alpha_strings, strings) @ engine.strides
    kappa = np.zeros(problem.n_params)
    # clip: an invalid excitation may reach past the space, and the engine
    # refuses it at kernel's first evaluation
    np.add.at(kappa, [pid for pid, _ in reached],
              2.0 * (diag.take(at, mode="clip") - diag[0]))
    return kappa if np.all(kappa > 0.0) else None


# ---------------------------------------------------------------------------
# Operator pool and adaptive ansatz growth
# ---------------------------------------------------------------------------

@dataclass
class OperatorPool:
    """Candidate excitations for adaptive growth, grouped so that every
    group shares one parameter (spin mirrors stay together, which keeps the
    grown state spin-pure)."""

    groups: list

    def __post_init__(self):
        if any(len(g) == 0 for g in self.groups):
            raise InvalidExcitation("operator pool contains an empty group")


def build_operator_pool(n_orb: int, n_elec: int) -> OperatorPool:
    return OperatorPool(_parameter_groups(*generate_uccsd(n_orb, n_elec)))


def _pool_gradients(space: CISpace, pool: OperatorPool, psi: np.ndarray,
                    h_psi: np.ndarray) -> np.ndarray:
    """dE/dtheta of each pool group added to ``psi``: over its members, the
    reverse sweep's gradient read on z = psi + i H psi through the cached
    rotation tables (Grimsley et al., Nat. Commun. 10, 3007)."""
    z = psi + 1j * h_psi
    return np.array([sum(_generator_gradient(z[table])
                         for table in _excitation_tables(space, group)
                         if table is not None) for group in pool.groups],
                    dtype=np.float64)


@dataclass
class AdaptResult:
    """Outcome of :func:`adapt_vqe`; ``converged`` is False when it stopped
    at ``max_iter`` with the pool-gradient norm still at or above epsilon."""

    problem: UCCProblem  # the grown ansatz, its optimum as init_guess
    trajectory: list  # energy after each optimization, reference first
    converged: bool
    gradient_norm: float  # 2-norm of the pool gradients at the final state
    optimizer_converged: list  # converged flag of each re-optimization


def adapt_vqe(s: IntegralSet, pool: OperatorPool, epsilon: float,
              max_iter: int = 50) -> AdaptResult:
    """Grow the ansatz one pool group at a time, always taking the group
    with the largest energy-gradient magnitude, re-optimizing after each
    addition with a warm start.  Stops when the 2-norm of the group-gradient
    vector drops below ``epsilon`` or after ``max_iter`` additions; the pool
    is evaluated at the final state either way."""
    from .vqe import kernel  # deferred to avoid a module cycle

    if epsilon <= 0:
        raise InvalidParams(f"epsilon must be positive, got {epsilon}")
    space = make_ci_space(s.n_orb, s.n_elec)
    ex_ops: list = []
    param_ids: list = []
    params = np.zeros(0)
    trajectory = [hf_energy(s)]
    optimizer_converged: list = []

    while True:
        psi = ucc_state(space, ex_ops, params, param_ids).amplitudes
        grads = _pool_gradients(space, pool, psi,
                                apply_hamiltonian(space, psi, s).amplitudes)
        norm = float(np.linalg.norm(grads))
        if norm < epsilon or len(optimizer_converged) >= max_iter:
            break
        group = pool.groups[int(np.argmax(np.abs(grads)))]
        ex_ops += group
        param_ids += [len(params)] * len(group)
        problem = UCCProblem(s, ex_ops, param_ids,
                             np.concatenate([params, [0.0]]))
        result = kernel(problem)
        params = result.x
        trajectory.append(result.e)
        optimizer_converged.append(result.converged)

    return AdaptResult(UCCProblem(s, ex_ops, param_ids, params), trajectory,
                       norm < epsilon, norm, optimizer_converged)


# ---------------------------------------------------------------------------
# Ansatz file round trip
# ---------------------------------------------------------------------------

def save_ansatz(path, problem: UCCProblem) -> None:
    """One line per excitation: ``param_id (p,q[,r,s]) init_guess``."""
    lines = []
    for ex, pid in zip(problem.ex_ops, problem.param_ids):
        tup = ",".join(str(i) for i in ex)
        lines.append(f"{pid} ({tup}) {float(problem.init_guess[pid])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_ansatz(path, s: IntegralSet) -> UCCProblem:
    ex_ops: list = []
    param_ids: list = []
    guesses: dict[int, float] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or not (parts[1].startswith("(")
                                   and parts[1].endswith(")")):
            raise ParseError(f"line {lineno}: expected 'id (tuple) guess'")
        try:
            pid = int(parts[0])
            ex = tuple(int(t) for t in parts[1][1:-1].split(",") if t)
            guess = float(parts[2])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad field") from exc
        if not np.isfinite(guess):
            raise ParseError(f"line {lineno}: init guess {parts[2]} is not "
                             f"finite")
        try:  # before any solve reads the problem
            _excitation_sectors(s.n_orb, ex)
        except InvalidExcitation as exc:
            raise InvalidExcitation(f"line {lineno}: {exc}") from None
        ex_ops.append(ex)
        param_ids.append(pid)
        if pid in guesses and guesses[pid] != guess:
            raise ParseError(
                f"line {lineno}: conflicting init guesses for parameter {pid}"
            )
        guesses[pid] = guess
    n_params = max(guesses) + 1 if guesses else 0
    init = np.zeros(n_params)
    for pid, guess in guesses.items():
        init[pid] = guess
    return UCCProblem(s, ex_ops, param_ids, init)
