"""Ansatz construction: spin-adapted singles/doubles, generalized paired
layers, pair-restricted doubles, MP2-based initialization and screening, and
adaptive ansatz growth.

Excitation tuples use the package-wide spin-orbital convention (beta
0..N-1, alpha N..2N-1), creation indices first.  Parameter sharing follows
exact alpha/beta mirror symmetry: operators that map onto each other under a
global spin flip carry the same parameter, which keeps the optimized state an
eigenstate of total spin at closed shell.

The pair-restricted ("hard-core boson") ansatz has no space of its own: its
configurations are the determinant space's alpha strings read as doubly
occupied orbitals, and its rotations and Hamiltonian share one hop table per
orbital pair, built from those strings.  Pair hops carry no fermionic signs,
so the reduced treatment is exact for seniority-zero states and matches the
full determinant space.  :func:`build_puccd_hamiltonian`, which nothing in
the package calls, is the entry point for circuits on the pairs: it writes
the paper's N^2-term pUCCD Hamiltonian, which the pair engine reads too,
as an operator on n_orb qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .civector import (
    CISpace,
    _check_param_map,
    _generator_gradient,
    _pair_diagonal,
    _pair_hop_table,
    _pair_sigma,
    _pair_tables,
    _reference_curvature,
    _sweep,
    apply_hamiltonian,
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
    its parameter mapping and starting point."""

    integrals: IntegralSet
    ex_ops: list
    param_ids: list
    init_guess: np.ndarray
    hard_core_boson: bool = False

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
        if self.hard_core_boson:
            n = self.integrals.n_orb
            for ex in self.ex_ops:
                _paired_orbitals(ex, n)

    @property
    def n_params(self) -> int:
        return len(self.init_guess)

    @property
    def n_qubits(self) -> int:
        n = self.integrals.n_orb
        return n if self.hard_core_boson else 2 * n


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
    creations, annihilations = ex[:2], ex[2:]

    def split(idx):
        return (idx - n_orb, 1) if idx >= n_orb else (idx, 0)

    cre = [split(i) for i in creations]
    ann = [split(i) for i in annihilations]
    cre_by_spin = {s: p for p, s in cre}
    ann_by_spin = {s: p for p, s in ann}
    if set(s for _, s in cre) == {0, 1}:
        # one move per spin sector: beta i->a with alpha j->b
        i, a = ann_by_spin[0], cre_by_spin[0]
        j, b = ann_by_spin[1], cre_by_spin[1]
        return float(t2[i, j, a - no, b - no])
    # both moves in one sector: antisymmetrized amplitude
    (a, _), (b, _) = cre
    (j, _), (i, _) = ann
    return float(t2[i, j, a - no, b - no] - t2[i, j, b - no, a - no])


def mp2_initialize(problem: UCCProblem, t2: MP2Result,
                   screen_eps: float = 1e-8, sort: bool = True) -> UCCProblem:
    """Initialize doubles from their MP2 amplitudes (singles start at zero),
    drop doubles whose amplitude is below ``screen_eps``, optionally order
    the surviving doubles by descending amplitude magnitude, and recompact
    the parameter ids."""
    s = problem.integrals
    n_orb, no = s.n_orb, s.n_occ
    amps = t2.t2

    old_groups: dict[int, list] = {}
    for ex, pid in zip(problem.ex_ops, problem.param_ids):
        old_groups.setdefault(pid, []).append(ex)

    singles: list[tuple[list, float]] = []
    doubles: list[tuple[list, float]] = []
    for pid in sorted(old_groups):
        ops = old_groups[pid]
        if len(ops[0]) == 2:
            singles.append((ops, 0.0))
            continue
        guess = _double_t2_amplitude(ops[0], n_orb, no, amps)
        if abs(guess) < screen_eps:
            continue
        doubles.append((ops, guess))
    if sort:
        doubles.sort(key=lambda item: -abs(item[1]))

    ex_ops: list = []
    param_ids: list = []
    init: list = []
    for ops, guess in singles + doubles:
        pid = len(init)
        init.append(guess)
        for ex in ops:
            ex_ops.append(ex)
            param_ids.append(pid)
    return UCCProblem(
        integrals=s,
        ex_ops=ex_ops,
        param_ids=param_ids,
        init_guess=np.array(init),
        hard_core_boson=problem.hard_core_boson,
    )


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
# Hard-core-boson (pair-restricted) engine
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


def _paired_tables(space: CISpace, ex_ops) -> list:
    return [_pair_hop_table(space, *_paired_orbitals(ex, space.n_orb))
            for ex in ex_ops]


def paired_energy_and_gradient(space: CISpace, ex_ops, params, param_ids,
                               s: IntegralSet):
    """Energy and gradient of pair excitations ``ex_ops`` on the alpha
    strings of ``space`` as pair configurations, from the lowest one."""
    params, ids = _check_param_map(ex_ops, params, param_ids)
    start = np.eye(1, space.n_strings_alpha)[0]  # the lowest configuration
    return _sweep(_paired_tables(space, ex_ops), params, ids, start,
                  lambda c: _pair_sigma(space, s, c))


# ---------------------------------------------------------------------------
# Problem-level dispatch (determinants vs pair configurations)
# ---------------------------------------------------------------------------

def problem_energy_and_gradient(problem: UCCProblem, params):
    s = problem.integrals
    engine = (paired_energy_and_gradient if problem.hard_core_boson
              else energy_and_gradient)
    return engine(make_ci_space(s.n_orb, s.n_elec), problem.ex_ops, params,
                  problem.param_ids, s)


def _problem_curvature(problem: UCCProblem):
    """Each parameter's curvature at the reference, the preconditioner of
    :func:`vqchem.vqe.kernel`: :func:`~vqchem.civector._reference_curvature`
    on the engine of :func:`problem_energy_and_gradient`, its rotation
    tables and its diagonal (determinants, or pair configurations); None if
    any is not positive."""
    s = problem.integrals
    space = make_ci_space(s.n_orb, s.n_elec)
    if problem.hard_core_boson:
        tables = _paired_tables(space, problem.ex_ops)
        diag = _pair_diagonal(space, s)
    else:
        tables = _pair_tables(space, problem.ex_ops)
        diag = hamiltonian_diagonal(space, s)
    return _reference_curvature(tables, problem.param_ids, problem.n_params,
                                diag)


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
    ex_ops, param_ids = generate_uccsd(n_orb, n_elec)
    groups: dict[int, list] = {}
    for ex, pid in zip(ex_ops, param_ids):
        groups.setdefault(pid, []).append(ex)
    return OperatorPool([groups[pid] for pid in sorted(groups)])


def _pool_gradients(space: CISpace, pool: OperatorPool, psi: np.ndarray,
                    h_psi: np.ndarray) -> np.ndarray:
    """dE/dtheta of each pool group added to ``psi``: over its members, the
    reverse sweep's gradient read on z = psi + i H psi through the cached
    rotation tables (Grimsley et al., Nat. Commun. 10, 3007)."""
    z = psi + 1j * h_psi
    return np.array([sum(_generator_gradient(z[table])
                         for table in _pair_tables(space, group)
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
        best = int(np.argmax(np.abs(grads)))
        new_pid = len(params)
        for ex in pool.groups[best]:
            ex_ops.append(ex)
            param_ids.append(new_pid)
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
