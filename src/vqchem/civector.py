"""Exact unitary coupled-cluster simulation in the particle-number-conserving
configuration-interaction space.

Determinants are pairs of occupation bitmasks (alpha string, beta string),
bit ``p`` meaning spatial orbital ``p`` is occupied in that spin sector.
Strings are sorted ascending as integers and a CI vector stores the real
amplitude of determinant ``(ia, ib)`` at position ``ia * n_strings_beta + ib``.

Spin-orbital indices follow the package-wide convention: beta spin-orbitals
are ``0..n_orb-1``, alpha spin-orbitals are ``n_orb..2*n_orb-1``.  A
determinant is the product of creation operators in ascending spin-orbital
order applied to the vacuum; fermionic signs are the parity of occupied
spin-orbitals below the index an operator acts on.  This matches the
Jordan-Wigner convention of :mod:`vqchem.operators`, which tests verify by
embedding CI vectors into statevectors.

All public functions are pure: they never mutate their inputs, so vectors and
spaces can be shared freely across threads.  :func:`make_ci_space` owns the
spaces: it hands every caller the same space for the same ``(n_orb,
n_elec)`` and keeps the few most recently used.  Each space caches what it
compiles, and these caches only ever append:

* one Givens rotation table per validated excitation (``("G", ex)``);
* the single-replacement link table of its strings (``"link"``), a few
  hundred kB, shared by the direct-CI sigma and the density matrices.

The Hamiltonian has one route: no matrix is built, and H is applied by the
string-driven direct-CI sigma (:func:`_sigma`), whose scratch is a few MB
per block of alpha strings.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix

from .errors import (
    InvalidExcitation,
    InvalidParamMap,
    ParseError,
    SizeLimit,
    SolverFailed,
    UnsupportedOpenShell,
    ZeroState,
)
from .integrals import IntegralSet

_DENSE_DIRECT_LIMIT = 400
_DENSE_FALLBACK_LIMIT = 4000
_ITERATIVE_LIMIT = 1_000_000
# Spaces kept by make_ci_space; a run works in one or two.
_MAX_SPACES = 8


class CISpace:
    """Closed-shell determinant space for ``n_elec`` electrons in ``n_orb``
    spatial orbitals; ``C(n_orb, n_elec/2)**2`` determinants."""

    def __init__(self, n_orb: int, n_elec: int):
        if n_elec % 2 != 0:
            raise UnsupportedOpenShell("n_elec must be even for this space")
        if not 0 <= n_elec <= 2 * n_orb:
            raise UnsupportedOpenShell(
                f"n_elec={n_elec} impossible for n_orb={n_orb}"
            )
        self.n_orb = int(n_orb)
        self.n_alpha = n_elec // 2
        self.n_beta = n_elec // 2
        strings = _occupation_strings(self.n_orb, self.n_alpha)
        self.alpha_strings = strings
        self.beta_strings = strings
        self.string_index = {int(m): i for i, m in enumerate(strings)}
        self._action_cache: dict = {}

    @property
    def n_elec(self) -> int:
        return self.n_alpha + self.n_beta

    @property
    def n_strings_alpha(self) -> int:
        return len(self.alpha_strings)

    @property
    def n_strings_beta(self) -> int:
        return len(self.beta_strings)

    @property
    def dim(self) -> int:
        return self.n_strings_alpha * self.n_strings_beta

    def __repr__(self):
        return (f"CISpace(n_orb={self.n_orb}, n_elec={self.n_elec}, "
                f"dim={self.dim})")


def _occupation_strings(n_orb: int, n_occ: int) -> np.ndarray:
    masks = [
        sum(1 << p for p in occ)
        for occ in combinations(range(n_orb), n_occ)
    ]
    masks.sort()
    return np.array(masks, dtype=np.uint64)


def ci_space_dim(n_orb: int, n_elec: int) -> int:
    return comb(n_orb, n_elec // 2) ** 2


@lru_cache(maxsize=_MAX_SPACES)
def make_ci_space(n_orb: int, n_elec: int) -> CISpace:
    """The shared space for ``(n_orb, n_elec)``: the most recently used
    spaces are kept, with their excitation and link tables."""
    return CISpace(n_orb, n_elec)


@dataclass
class CIVector:
    """Real amplitudes over the determinants of a :class:`CISpace`."""

    space: CISpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.float64).ravel()
        if amps.size != self.space.dim:
            raise ValueError(
                f"amplitude length {amps.size} != space dimension "
                f"{self.space.dim}"
            )
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "CIVector":
        return CIVector(self.space, self.amplitudes.copy())


def _amps(v) -> np.ndarray:
    if isinstance(v, CIVector):
        return v.amplitudes
    return np.asarray(v, dtype=np.float64).ravel()


def hf_vector(space: CISpace) -> CIVector:
    amps = np.zeros(space.dim)
    amps[0] = 1.0  # lowest-bitmask string = lowest orbitals occupied
    return CIVector(space, amps)


# ---------------------------------------------------------------------------
# Signed second-quantized actions on determinant strings
# ---------------------------------------------------------------------------

def _validate_excitation(space: CISpace, ex) -> tuple:
    ex = tuple(int(i) for i in ex)
    if len(ex) < 2 or len(ex) % 2 != 0:
        raise InvalidExcitation(f"tuple length must be even >= 2, got {ex}")
    n_so = 2 * space.n_orb
    half = len(ex) // 2
    creation, annihilation = ex[:half], ex[half:]
    for idx in ex:
        if not 0 <= idx < n_so:
            raise InvalidExcitation(f"index {idx} outside 0..{n_so - 1}")
    if len(set(creation)) != half or len(set(annihilation)) != half:
        raise InvalidExcitation(f"repeated index within a half of {ex}")
    n = space.n_orb
    for sector in (0, 1):
        nc = sum(1 for i in creation if (i >= n) == sector)
        na = sum(1 for i in annihilation if (i >= n) == sector)
        if nc != na:
            raise InvalidExcitation(
                f"{ex} changes the particle count of a spin sector"
            )
    return ex


def _sector_action(strings: np.ndarray, ops: tuple):
    """Apply a product of ladder operators (left-to-right order, applied
    right-to-left) to every string; return (alive, target_pos, sign)."""
    S = strings.copy()
    alive = np.ones(len(S), dtype=bool)
    parity = np.zeros(len(S), dtype=np.uint64)
    for p, creation in reversed(ops):
        bit = np.uint64(1 << p)
        below = np.uint64((1 << p) - 1)
        occupied = (S & bit) != 0
        alive &= ~occupied if creation else occupied
        parity += np.bitwise_count(S & below)
        S ^= bit
    sign = 1.0 - 2.0 * (parity & np.uint64(1)).astype(np.float64)
    target = np.searchsorted(strings, S).astype(np.int64)
    np.clip(target, 0, len(strings) - 1, out=target)
    return alive, target, sign


def _term_table(space: CISpace, term: tuple):
    """Compile one spin-orbital ladder string into (rows, cols, signs) of its
    CI-space matrix.  ``term`` is ``((index, is_creation), ...)`` left-to-right.
    Returns None when the term kills the whole space.  Not cached: callers
    keep what they build from it."""
    n = space.n_orb
    alpha_ops, beta_ops = [], []
    for idx, creation in term:
        if idx >= n:
            alpha_ops.append((idx - n, creation))
        else:
            beta_ops.append((idx, creation))
    # Count (beta-op before alpha-op) pairs for the sector reordering sign.
    seen_beta = 0
    pairs = 0
    for idx, _ in term:
        if idx < n:
            seen_beta += 1
        else:
            pairs += seen_beta
    base_sign = -1.0 if pairs % 2 else 1.0
    if (space.n_beta * len(alpha_ops)) % 2:
        base_sign = -base_sign

    alive_a, tgt_a, sign_a = _sector_action(space.alpha_strings, tuple(alpha_ops))
    alive_b, tgt_b, sign_b = _sector_action(space.beta_strings, tuple(beta_ops))
    src_a = np.nonzero(alive_a)[0]
    src_b = np.nonzero(alive_b)[0]
    if len(src_a) == 0 or len(src_b) == 0:
        return None
    nb = space.n_strings_beta
    rows = (tgt_a[src_a, None] * nb + tgt_b[None, src_b]).ravel()
    cols = (src_a[:, None] * nb + src_b[None, :]).ravel()
    signs = (base_sign * sign_a[src_a, None] * sign_b[None, src_b]).ravel()
    return rows, cols, signs


def _rotation_table(rows: np.ndarray, cols: np.ndarray, signs: np.ndarray):
    """Table of G = g - g-dagger from the table of g.

    g must be a signed partial permutation whose targets (``rows``) and
    sources (``cols``) are disjoint.  Then G pairs each source c with its
    target r, G|c> = s|r> and G|r> = -s|c>, and the returned table lists both
    halves of every pair: (G v)[rows] = signs * v[cols], zero elsewhere.
    """
    return (np.concatenate([rows, cols]), np.concatenate([cols, rows]),
            np.concatenate([signs, -signs]))


def _pair_table(space: CISpace, ex: tuple):
    """Rotation table of a validated excitation, cached per space under
    ``("G", ex)``; None when G vanishes (creation set equal to annihilation
    set, or no determinant reached)."""
    key = ("G", ex)
    if key in space._action_cache:
        return space._action_cache[key]
    half = len(ex) // 2
    table = None
    if set(ex[:half]) != set(ex[half:]):
        g = tuple((i, True) for i in ex[:half]) + tuple(
            (i, False) for i in ex[half:])
        g_table = _term_table(space, g)
        if g_table is not None:
            table = _rotation_table(*g_table)
    space._action_cache[key] = table
    return table


def _rotate(amps: np.ndarray, table, theta: float) -> None:
    """e^{theta G} in place: independent 2x2 Givens rotations,
    v[r] <- cos*v[r] + sin*s*v[c] and v[c] <- cos*v[c] - sin*s*v[r]."""
    if table is None:
        return
    rows, cols, signs = table
    amps[rows] = (math.cos(theta) * amps[rows]
                  + math.sin(theta) * signs * amps[cols])


def _forward(tables, params, ids, start) -> np.ndarray:
    """prod_k e^{theta_k G_k} applied to a copy of ``start``, first table
    acting first."""
    amps = np.array(start, dtype=np.float64)
    for table, pid in zip(tables, ids):
        _rotate(amps, table, params[pid])
    return amps


def _sweep(tables, params, ids, start, apply_h):
    """Energy <psi|H|psi> and its gradient, psi = _forward(...).

    Reverse sweep: keep a bra vector (starting at H|psi>) and a ket vector
    (starting at |psi>); peel one factor off both per step and read the
    gradient of factor k as 2 <bra| G_k |ket>.  Shared parameter ids sum
    their factor gradients.  Two working vectors regardless of depth.
    """
    ket = _forward(tables, params, ids, start)
    bra = apply_h(ket)
    e = float(np.dot(ket, bra))
    grad = np.zeros(len(params))
    for table, pid in zip(reversed(tables), reversed(ids)):
        if table is None:
            continue
        rows, cols, signs = table
        grad[pid] += 2.0 * float(np.dot(bra[rows], signs * ket[cols]))
        _rotate(ket, table, -params[pid])
        _rotate(bra, table, -params[pid])
    return e, grad


def apply_excitation(space: CISpace, v, ex) -> CIVector:
    """Apply the anti-Hermitian generator G = g - g-dagger of the excitation
    tuple ``ex`` (creation indices first, annihilation indices last)."""
    ex = _validate_excitation(space, ex)
    amps = _amps(v)
    out = np.zeros_like(amps)
    table = _pair_table(space, ex)
    if table is not None:
        rows, cols, signs = table
        out[rows] = signs * amps[cols]
    return CIVector(space, out)


def apply_ucc_factor(space: CISpace, v, ex, theta: float) -> CIVector:
    """Apply e^{theta*G} as independent Givens rotations: G pairs every
    determinant it reaches with one partner, so each pair turns by theta
    and every other amplitude is left alone."""
    ex = _validate_excitation(space, ex)
    amps = np.array(_amps(v))
    _rotate(amps, _pair_table(space, ex), theta)
    return CIVector(space, amps)


# ---------------------------------------------------------------------------
# Hamiltonian application
# ---------------------------------------------------------------------------

def _link_matrix(space: CISpace) -> csr_matrix:
    """Single-replacement link table of the space's strings, cached under
    ``"link"``.

    Row ``J * n_pair + P`` holds ``E+_pq |J>`` for the ``P``-th pair
    ``p >= q`` of ``np.tril_indices(n_orb)``: one signed entry at the target
    string, none when the pair annihilates ``J``.  Here ``E+_pq = E_pq +
    E_qp`` and ``E+_pp = E_pp``, with ``E_pq = a+_p a_q`` in one spin sector;
    at most one of ``E_pq``, ``E_qp`` survives on a string, so each row has at
    most one entry.  ``E+_pq`` is real symmetric, so the same matrix gathers
    (``link @ C``) and scatters (``link.T @ F``).  Alpha and beta strings are
    one set, so one table serves both sectors.
    """
    link = space._action_cache.get("link")
    if link is None:
        strings = space.alpha_strings[:, None]
        p, q = np.tril_indices(space.n_orb)
        bit_p = np.uint64(1) << p.astype(np.uint64)
        bit_q = np.uint64(1) << q.astype(np.uint64)
        occ_p = (strings & bit_p) != 0
        hop = occ_p != ((strings & bit_q) != 0)  # p != q, one of them occupied
        # the sign is the parity of the occupied orbitals strictly between
        between = (bit_p - np.uint64(1)) & ~((bit_q << np.uint64(1))
                                             - np.uint64(1))
        odd = (np.bitwise_count(strings & between) & np.uint64(1)) != 0
        sign = np.where(hop, np.where(odd, -1.0, 1.0),
                        np.where(p == q, occ_p, False))
        target = np.searchsorted(space.alpha_strings,
                                 np.where(hop, strings ^ (bit_p | bit_q),
                                          strings))
        alive = sign != 0.0
        indptr = np.concatenate([[0], np.cumsum(alive.ravel())])
        link = csr_matrix((sign[alive], target[alive], indptr),
                          shape=(sign.size, len(space.alpha_strings)))
        space._action_cache["link"] = link
    return link


def _pair_integrals(space: CISpace, s: IntegralSet) -> np.ndarray:
    """V[P, R] with H - e_core = sum_PR V[P, R] E+_P E+_R on the space.

    H = sum k_pq E_pq + 1/2 sum (pq|rs) E_pq E_rs with k_pq = h_pq -
    1/2 sum_r (pr|rq).  Symmetric integrals fold each sum onto pairs p >= q.
    The one-body part rides on the diagonal pairs R = (r, r): their E+_R
    sum to the electron-number operator, which is n_elec on the space.
    """
    p, q = np.tril_indices(s.n_orb)
    k = s.int1e - 0.5 * np.einsum("prrq->pq", s.int2e)
    v = 0.5 * s.int2e[p, q][:, p, q]
    if space.n_elec:
        v[:, p == q] += k[p, q][:, None] / space.n_elec
    return v


def _sigma(space: CISpace, s: IntegralSet, amps: np.ndarray,
           block: int | None = None) -> np.ndarray:
    """H v, core energy included, without a Hamiltonian matrix: the direct-CI
    sigma of Knowles and Handy (Chem. Phys. Lett. 111, 315 (1984)).

    With C the amplitudes as an (alpha string, beta string) matrix, every
    block of alpha strings a gets ``D[a, P] = (E+_P C)[a]`` (alpha part from
    the link rows of the block, beta part through ``C[a].T``), ``F = V D``,
    and scatters ``E+_P F[a, P]`` back: alpha targets to the strings the
    block's link rows reach, beta targets inside the block, so a block costs
    its own size, never the whole space.  ``block`` alpha strings go at a
    time; by default the blocks hold about 4 MB of D, which keeps them in
    cache.
    """
    link = _link_matrix(space)
    v = _pair_integrals(space, s)
    n_pair = v.shape[0]
    na, nb = space.n_strings_alpha, space.n_strings_beta
    c = amps.reshape(na, nb)
    if block is None:
        block = max(1, (4 << 20) // (8 * n_pair * nb))
    out = s.e_core * c
    for a0 in range(0, na, block):
        a1 = min(a0 + block, na)
        rows = link[a0 * n_pair:a1 * n_pair]
        d = (rows @ c).reshape(a1 - a0, n_pair, nb)
        beta = link @ c[a0:a1].T
        d += beta.reshape(nb, n_pair, a1 - a0).T
        f = np.matmul(v, d, out=beta.reshape(d.shape))  # reuses its memory
        reached, col = np.unique(rows.indices, return_inverse=True)
        scatter = csr_matrix((rows.data, col, rows.indptr),
                             shape=(rows.shape[0], len(reached)))
        out[reached] += scatter.T @ f.reshape(-1, nb)
        out[a0:a1] += (link.T @ f.T.reshape(-1, a1 - a0)).T
    return out.ravel()


def apply_hamiltonian(space: CISpace, v, s: IntegralSet) -> CIVector:
    """H v, including the constant core energy, by the direct-CI sigma."""
    return CIVector(space, _sigma(space, s, _amps(v)))


def hamiltonian_diagonal(space: CISpace, s: IntegralSet) -> np.ndarray:
    """<D|H|D> for every determinant, via the factorized diagonal rule."""
    n = space.n_orb
    occ = np.zeros((space.n_strings_alpha, n))
    for p in range(n):
        occ[:, p] = (space.alpha_strings >> np.uint64(p)) & np.uint64(1)
    h_diag = np.diag(s.int1e)
    j_mat = np.einsum("ppqq->pq", s.int2e)
    k_mat = np.einsum("pqqp->pq", s.int2e)
    # same-spin energy of one string: sum h_pp + 1/2 sum_{p!=q} [(pp|qq)-(pq|qp)]
    jk = j_mat - k_mat
    np.fill_diagonal(jk, 0.0)
    e_same = occ @ h_diag + 0.5 * np.einsum("ip,pq,iq->i", occ, jk, occ)
    cross = occ @ j_mat @ occ.T  # alpha-beta Coulomb between string pairs
    diag = e_same[:, None] + e_same[None, :] + cross + s.e_core
    return diag.ravel()


def energy(space: CISpace, v, s: IntegralSet) -> float:
    amps = _amps(v)
    nrm2 = float(np.dot(amps, amps))
    if nrm2 == 0.0:
        raise ZeroState("cannot take the energy of the zero vector")
    hv = apply_hamiltonian(space, amps, s).amplitudes
    return float(np.dot(amps, hv) / nrm2)


# ---------------------------------------------------------------------------
# UCC states and gradients
# ---------------------------------------------------------------------------

def _check_param_map(ex_ops, params, param_ids):
    params = np.asarray(params, dtype=np.float64).ravel()
    ids = [int(i) for i in param_ids]
    if len(ex_ops) != len(ids):
        raise InvalidParamMap(
            f"{len(ex_ops)} excitations but {len(ids)} parameter ids"
        )
    for i in ids:
        if not 0 <= i < len(params):
            raise InvalidParamMap(
                f"parameter id {i} out of range for {len(params)} parameters"
            )
    return params, ids


def _pair_tables(space: CISpace, ex_ops) -> list:
    """Rotation tables of ``ex_ops``.  Only excitations without a cached
    table are validated; an invalid one is never cached, so it raises on
    every call."""
    cache = space._action_cache
    tables = []
    for ex in ex_ops:
        try:
            tables.append(cache["G", tuple(ex)])
        except KeyError:
            tables.append(_pair_table(space, _validate_excitation(space, ex)))
    return tables


def ucc_state(space: CISpace, ex_ops, params, param_ids,
              initial: CIVector | None = None) -> CIVector:
    """Apply the product of exponential factors e^{theta_k G_k} to the
    initial vector, first list entry acting first."""
    params, ids = _check_param_map(ex_ops, params, param_ids)
    start = hf_vector(space) if initial is None else initial
    return CIVector(space, _forward(_pair_tables(space, ex_ops), params, ids,
                                    _amps(start)))


def energy_and_gradient(space: CISpace, ex_ops, params, param_ids,
                        s: IntegralSet, initial: CIVector | None = None):
    """Energy and analytic gradient of the UCC expectation value (reverse
    sweep, see :func:`_sweep`)."""
    params, ids = _check_param_map(ex_ops, params, param_ids)
    start = hf_vector(space) if initial is None else initial
    return _sweep(_pair_tables(space, ex_ops), params, ids, _amps(start),
                  lambda v: apply_hamiltonian(space, v, s).amplitudes)


# ---------------------------------------------------------------------------
# Reduced density matrices
# ---------------------------------------------------------------------------

def _single_replacement_vectors(space: CISpace, amps: np.ndarray) -> np.ndarray:
    """w[p*n+q] = (sum over spins of a+_p a_q) applied to amps.

    Read off the link table: row I of ``E+_pq C`` is ``E_pq C`` where string
    I has p occupied and ``E_qp C`` where it has q occupied."""
    n = space.n_orb
    na, nb = space.n_strings_alpha, space.n_strings_beta
    link = _link_matrix(space)
    c = amps.reshape(na, nb)
    p, q = np.divmod(np.arange(n * n), n)
    hi, lo = np.maximum(p, q), np.minimum(p, q)
    pair = hi * (hi + 1) // 2 + lo  # position of (hi, lo) in np.tril_indices
    occ = ((space.alpha_strings[:, None] >> np.arange(n, dtype=np.uint64))
           & np.uint64(1)).astype(np.float64)[:, p, None]
    w_alpha = (link @ c).reshape(na, -1, nb)[:, pair] * occ
    w_beta = (link @ c.T).reshape(nb, -1, na)[:, pair] * occ
    return (w_alpha.transpose(1, 0, 2).reshape(n * n, -1)
            + w_beta.transpose(1, 2, 0).reshape(n * n, -1))


def make_rdm1(space: CISpace, v) -> np.ndarray:
    """Spin-traced one-body density matrix gamma[p,q] = <a+_p a_q> summed
    over spin; trace equals n_elec for a normalized state."""
    amps = _amps(v)
    n = space.n_orb
    w = _single_replacement_vectors(space, amps)
    return (w @ amps).reshape(n, n)


def make_rdm2(space: CISpace, v) -> np.ndarray:
    """Spin-traced two-body density matrix in chemists' index order, defined
    so that  sum_pq h_pq rdm1_pq + 1/2 sum_pqrs (pq|rs) rdm2_pqrs + e_core
    reproduces the energy."""
    amps = _amps(v)
    n = space.n_orb
    w = _single_replacement_vectors(space, amps)
    rdm1 = (w @ amps).reshape(n, n)
    gram = w @ w.T  # gram[(q,p),(r,s)] = <E_qp E_rs> with E = sum_spin a+a
    rdm2 = gram.reshape(n, n, n, n).transpose(1, 0, 2, 3).copy()
    for q in range(n):
        rdm2[:, q, q, :] -= rdm1
    return rdm2


# ---------------------------------------------------------------------------
# FCI ground state
# ---------------------------------------------------------------------------

def _dense_ground_state(space: CISpace, s: IntegralSet):
    mat = np.column_stack([_sigma(space, s, col) for col in np.eye(space.dim)])
    vals, vecs = np.linalg.eigh(mat)
    return float(vals[0]), vecs[:, 0].copy()


def _davidson_ground_state(space: CISpace, s: IntegralSet,
                           tol: float = 1e-8, max_iter: int = 200,
                           max_subspace: int = 30):
    dim = space.dim
    diag = hamiltonian_diagonal(space, s)
    start = np.zeros(dim)
    start[int(np.argmin(diag))] = 1.0
    basis = [start]
    sigmas = []
    theta, ritz = None, start
    for _ in range(max_iter):
        while len(sigmas) < len(basis):
            sigmas.append(
                apply_hamiltonian(space, basis[len(sigmas)], s).amplitudes
            )
        k = len(basis)
        small = np.empty((k, k))
        for i in range(k):
            for j in range(i + 1):
                small[i, j] = small[j, i] = float(np.dot(basis[i], sigmas[j]))
        vals, vecs = np.linalg.eigh(small)
        theta = float(vals[0])
        coeff = vecs[:, 0]
        ritz = sum(c * b for c, b in zip(coeff, basis))
        h_ritz = sum(c * sg for c, sg in zip(coeff, sigmas))
        residual = h_ritz - theta * ritz
        if np.linalg.norm(residual) < tol:
            return theta, ritz / np.linalg.norm(ritz)
        if k >= max_subspace:
            basis, sigmas = [ritz / np.linalg.norm(ritz)], []
            continue
        denom = diag - theta
        denom[np.abs(denom) < 1e-8] = 1e-8
        correction = residual / denom
        for b in basis:  # modified Gram-Schmidt
            correction -= np.dot(b, correction) * b
        nrm = np.linalg.norm(correction)
        if nrm < 1e-12:
            correction = np.random.default_rng(k).standard_normal(dim)
            for b in basis:
                correction -= np.dot(b, correction) * b
            nrm = np.linalg.norm(correction)
        basis.append(correction / nrm)
    raise SolverFailed(
        f"Davidson iteration did not reach residual {tol} in {max_iter} steps"
    )


def fci_ground_state(space: CISpace, s: IntegralSet):
    """Lowest eigenpair of the Hamiltonian in the CI space."""
    dim = space.dim
    if dim > _ITERATIVE_LIMIT:
        raise SizeLimit(
            f"CI dimension {dim} exceeds the iterative solver limit "
            f"{_ITERATIVE_LIMIT}"
        )
    if dim <= _DENSE_DIRECT_LIMIT:
        e, vec = _dense_ground_state(space, s)
        return e, CIVector(space, vec)
    try:
        e, vec = _davidson_ground_state(space, s)
    except SolverFailed:
        if dim <= _DENSE_FALLBACK_LIMIT:
            e, vec = _dense_ground_state(space, s)
        else:
            raise
    return e, CIVector(space, vec)


# ---------------------------------------------------------------------------
# Statevector embedding and serialization
# ---------------------------------------------------------------------------

def civector_to_statevector(space: CISpace, v) -> np.ndarray:
    """Embed into the full 2^(2*n_orb) qubit statevector.

    Qubit q hosts spin-orbital (2*n_orb - 1 - q); qubit 0 is the most
    significant index bit.  A determinant lands at index
    (alpha_mask << n_orb) | beta_mask with sign +1, which is the
    Jordan-Wigner image of creation operators applied in ascending
    spin-orbital order.
    """
    n = space.n_orb
    if 2 * n > 24:
        raise SizeLimit(f"statevector for {2 * n} qubits exceeds the 24-qubit cap")
    amps = _amps(v)
    alpha_part = (space.alpha_strings.astype(np.int64) << n)
    beta_part = space.beta_strings.astype(np.int64)
    idx = (alpha_part[:, None] | beta_part[None, :]).ravel()
    out = np.zeros(1 << (2 * n), dtype=complex)
    out[idx] = amps
    return out


def statevector_to_civector(space: CISpace, statevector) -> CIVector:
    """Project a statevector onto the determinant space (inverse of
    :func:`civector_to_statevector` on its image).  CI vectors are real, so
    an amplitude with an imaginary part above 1e-9 raises ValueError."""
    n = space.n_orb
    sv = np.asarray(statevector)
    if sv.size != 1 << (2 * n):
        raise ValueError("statevector length does not match the space")
    alpha_part = (space.alpha_strings.astype(np.int64) << n)
    beta_part = space.beta_strings.astype(np.int64)
    idx = (alpha_part[:, None] | beta_part[None, :]).ravel()
    amps = sv[idx]
    worst = float(np.max(np.abs(np.imag(amps))))
    if worst > 1e-9:
        raise ValueError(f"statevector has an imaginary amplitude of "
                         f"{worst:.3g} on the determinant space")
    return CIVector(space, np.real(amps))


def save_civector(path, v: CIVector) -> None:
    """Binary layout: little-endian int32 triple (n_orb, n_alpha, n_beta)
    then the amplitudes as little-endian float64."""
    space = v.space
    header = struct.pack("<3i", space.n_orb, space.n_alpha, space.n_beta)
    Path(path).write_bytes(
        header + v.amplitudes.astype("<f8").tobytes()
    )


def load_civector(path, space: CISpace | None = None) -> CIVector:
    """Read a vector written by :func:`save_civector`.  A malformed file or
    a non-finite amplitude raises ParseError; a vector of another space
    raises ValueError."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise ParseError(f"state file has {len(raw)} bytes, less than its "
                         f"12-byte header")
    n_orb, n_alpha, n_beta = struct.unpack("<3i", raw[:12])
    if not 0 <= n_alpha == n_beta <= n_orb:
        raise ParseError(
            f"state file header (n_orb={n_orb}, n_alpha={n_alpha}, "
            f"n_beta={n_beta}) is not a closed-shell space"
        )
    if space is not None and (
            (space.n_orb, space.n_alpha, space.n_beta)
            != (n_orb, n_alpha, n_beta)):
        raise ValueError("stored vector belongs to a different space")
    dim = comb(n_orb, n_alpha) * comb(n_orb, n_beta)
    if len(raw) - 12 != 8 * dim:
        raise ParseError(
            f"state file holds {len(raw) - 12} amplitude bytes, expected "
            f"{8 * dim} for dimension {dim}"
        )
    amplitudes = np.frombuffer(raw[12:], dtype="<f8").copy()
    if not np.all(np.isfinite(amplitudes)):
        raise ParseError("state file holds non-finite amplitudes")
    if space is None:
        space = make_ci_space(n_orb, n_alpha + n_beta)
    return CIVector(space, amplitudes)
