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

* one Givens rotation table per excitation (``("G", ex)``,
  :func:`_excitation_table`, which checks the excitation as it splits it
  into spin sectors): a (2, m) ``intp`` array of the determinant pairs
  ``(r, c)`` that its generator G rotates into each other, 16 bytes per
  pair.  With MP2-screened UCCSD they hold 1.7 MiB for H8 (200
  excitations), 45 MiB for H10 (467) and 1.1 GiB for H12 (954);
* the sigma plan (``"link"``, :class:`_SigmaPlan`): the single-replacement
  links of its strings as four per-string (n_strings, n_live) tables of
  the n_live = n_occ (1 + n_vir) live pairs.  It holds 0.045 MB for H8,
  0.242 MB for H10 and 1.242 MB for H12, and serves the direct-CI sigma;
* per integral set, in a weakly keyed table (``"same-spin"``,
  :func:`_same_spin`), the dense same-spin Hamiltonian H_s of the sigma:
  8 * n_strings^2 bytes, 0.04 MB for H8, 0.51 MB for H10 and 6.8 MB for
  H12.  It lives as long as its :class:`IntegralSet`;
* the occupation matrix (``"occ"``, :func:`_occupations`) of the strings,
  which both diagonals read;
* one hop table per orbital pair (``("hop", p, q)``, p > q,
  :func:`_pair_hop_table`) for pUCCD, which runs on the alpha strings as
  configurations of doubly occupied orbitals: 16 bytes per configuration
  pair, 141 MiB at n_orb = 20.  The pUCCD rotations and the pair
  Hamiltonian read the same tables, and a pUCCD run builds no link plan;
* per integral set, weakly keyed, the pair diagonal (``"pair-diag"``).

The Hamiltonian has one route per kind of vector: on determinants H is
applied by the string-driven direct-CI sigma (:func:`_sigma`), on pair
configurations by two gathers and two scatters per hop table
(:func:`_pair_sigma`) from the paper's (h_p, v_pq, w_pq) of
:func:`~vqchem.integrals.pair_hamiltonian`.  The direct-CI sigma is two
matrix products with H_s and,
for the alpha-beta part, gathers through the live-pair tables and no
scatter.  It keeps its block scratch in one workspace per thread, reused by
every apply: with the default blocks at most ``max(1 MB, 8 * (n_pair +
n_live) * n_strings_beta)`` bytes, for ``n_pair = n_orb (n_orb + 1) / 2``
and n_live live pairs per string.  The sigma has a symmetric mode for
vectors with C = C^T over (alpha string, beta string), which saves one of
the H_s products; UCC states are not symmetric and take the general mode.

Both ground states come from one Davidson iteration (:func:`_davidson`),
which works in whatever coordinates its caller applies H in.
:func:`fci_ground_state` returns the lowest state with C = C^T, the
even-spin (S = 0, 2, ...) ground state, at every size: the iteration runs on
packed lower triangles (:class:`_Triangle`), n (n + 1) / 2 coordinates for
n strings per spin, and applies H by the symmetric sigma, so its basis and
sigmas take 2 * max_subspace * n (n + 1) / 2 * 8 bytes: 15 MB for H10 and
205 MB for H12 with the default 30 vectors.  :func:`doci_ground_state`
runs it on the pair configurations with the pair sigma.

Two public functions have no caller inside the package and are kept as
entry points: :func:`civector_to_statevector`, the Jordan-Wigner embedding
through which the tests compare the CI engine with qubit operators and
circuits, and :func:`apply_excitation`, one generator G on a vector, which
the benchmark's per-layer trace (``bench/layertrace.py``) wraps by name.
"""

from __future__ import annotations

import struct
import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from .errors import (
    InvalidExcitation,
    InvalidParamMap,
    InvalidParams,
    ParseError,
    SizeLimit,
    SolverFailed,
    UnsupportedOpenShell,
    ZeroState,
)
from .integrals import IntegralSet, pair_hamiltonian

# The largest full vector, in determinants (check_vector_dim) or in strings
# per spin (CISpace), which also bounds a pair-engine vector.
_ITERATIVE_LIMIT = 1_000_000


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
        if n_orb > 64:  # before any string is enumerated
            raise SizeLimit(f"{n_orb} orbitals exceed the 64-bit strings")
        if (n := comb(n_orb, n_elec // 2)) > _ITERATIVE_LIMIT:
            raise SizeLimit(f"{n} strings per spin exceed the limit of "
                            f"{_ITERATIVE_LIMIT}")
        self.n_orb = int(n_orb)
        self.n_alpha = n_elec // 2
        self.n_beta = n_elec // 2
        strings = _occupation_strings(self.n_orb, self.n_alpha)
        self.alpha_strings = strings
        self.beta_strings = strings
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


def check_vector_dim(n_orb: int, n_elec: int) -> int:
    """``ci_space_dim``, or :class:`SizeLimit` past ``_ITERATIVE_LIMIT``
    determinants, the largest space a full determinant vector is built in.
    Every such vector passes :func:`_start` or :func:`hamiltonian_diagonal`,
    which check it; ``vqchem.vqe.civector_at`` and the command line check
    earlier, before the work that precedes the vector.  A pair-engine vector
    holds one amplitude per string, which :class:`CISpace` bounds."""
    dim = ci_space_dim(n_orb, n_elec)
    if dim > _ITERATIVE_LIMIT:
        raise SizeLimit(f"CI dimension {dim} exceeds the limit of "
                        f"{_ITERATIVE_LIMIT} determinants for a full vector")
    return dim


@lru_cache(maxsize=8)  # a run works in one or two spaces
def make_ci_space(n_orb: int, n_elec: int) -> CISpace:
    """The shared space for ``(n_orb, n_elec)``: the most recently used
    spaces are kept, with their excitation, link and hop tables.  Its alpha
    strings are also the configurations of pair-restricted ansatzes."""
    return CISpace(n_orb, n_elec)


@dataclass
class CIVector:
    """Real amplitudes over the determinants of a :class:`CISpace`."""

    space: CISpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.float64).ravel()
        if amps.size != self.space.dim:
            raise InvalidParams(
                f"amplitude length {amps.size} != space dimension "
                f"{self.space.dim}"
            )
        self.amplitudes = amps


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


def _excitation_sectors(n_orb: int, ex) -> tuple:
    """Check the excitation tuple ``ex`` (creation indices first) on
    ``n_orb`` spatial orbitals and split its g into spin sectors:
    ``(ex, alpha_ops, beta_ops, swaps)``, the ladder operators ``(orbital,
    is_creation)`` of each sector in g's order and the number of (beta,
    alpha) operator pairs that sorting g by sector swaps.  InvalidExcitation
    on an odd or short tuple, an index out of range or twice in a half, or
    a changed particle count in a sector."""
    ex = tuple(int(i) for i in ex)
    if len(ex) < 2 or len(ex) % 2 != 0:
        raise InvalidExcitation(f"tuple length must be even >= 2, got {ex}")
    n_so = 2 * n_orb
    for idx in ex:
        if not 0 <= idx < n_so:
            raise InvalidExcitation(f"index {idx} outside 0..{n_so - 1}")
    half = len(ex) // 2
    if len(set(ex[:half])) != half or len(set(ex[half:])) != half:
        raise InvalidExcitation(f"repeated index within a half of {ex}")
    alpha_ops, beta_ops, swaps = [], [], 0
    for k, idx in enumerate(ex):
        if idx >= n_orb:
            alpha_ops.append((idx - n_orb, k < half))
            swaps += len(beta_ops)
        else:
            beta_ops.append((idx, k < half))
    for ops in (alpha_ops, beta_ops):
        if 2 * sum(creation for _, creation in ops) != len(ops):
            raise InvalidExcitation(f"{ex} changes the particle count of "
                                    f"a spin sector")
    return ex, tuple(alpha_ops), tuple(beta_ops), swaps


def _excitation_table(space: CISpace, ex):
    """Rotation table of G = g - g-dagger for the excitation tuple ``ex``,
    checked by :func:`_excitation_sectors` and stored under ``("G", ex)``
    for :func:`_excitation_tables`; None when G vanishes (creation set equal to
    annihilation set, or no determinant reached).

    g is a signed partial permutation whose targets and sources are
    disjoint, so G pairs each source with its target.  The table is a (2, m)
    ``intp`` array of determinant pairs ``(r, c)`` with G|c> = +|r> and
    G|r> = -|c>: a pair where g has sign -1 is listed with its source and
    target swapped, so the table holds no signs.  (int32 indices would halve
    it, but numpy gathers with them 2-2.5x slower at H8 sizes.)"""
    ex, alpha_ops, beta_ops, swaps = _excitation_sectors(space.n_orb, ex)
    half = len(ex) // 2
    alive_a, tgt_a, sign_a = _sector_action(space.alpha_strings, alpha_ops)
    alive_b, tgt_b, sign_b = _sector_action(space.beta_strings, beta_ops)
    src_a = np.nonzero(alive_a)[0]
    src_b = np.nonzero(alive_b)[0]
    table = None
    if set(ex[:half]) != set(ex[half:]) and len(src_a) and len(src_b):
        # the sign of sorting g into its sectors, times the beta string's
        # parity for each alpha operator that passes it
        if (swaps + space.n_beta * len(alpha_ops)) % 2:
            sign_a = -sign_a
        nb = space.n_strings_beta
        table = np.empty((2, len(src_a), len(src_b)), dtype=np.intp)
        np.add.outer(tgt_a[src_a] * nb, tgt_b[src_b], out=table[0])
        np.add.outer(src_a * nb, src_b, out=table[1])
        rows, cols = table  # swap the pairs where g has sign -1
        swap = (cols - rows) * np.not_equal.outer(sign_a[src_a],
                                                  sign_b[src_b])
        rows += swap
        cols -= swap
        table = table.reshape(2, -1)
    space._action_cache["G", ex] = table
    return table


def _rotations(theta: np.ndarray) -> np.ndarray:
    """e^{theta G} on each pair ``(v[r], v[c])``: [[cos, sin], [-sin, cos]]
    per angle, shape (len(theta), 2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.moveaxis(np.array([[c, s], [-s, c]]), -1, 0)


def _forward(tables, params, ids, start) -> np.ndarray:
    """prod_k e^{theta_k G_k} applied to a copy of ``start``, first table
    acting first.  Each factor is one 2x2 rotation of its pairs: one
    gather ``amps[table]`` (rows ``v[r]``, ``v[c]``), one matmul, one
    scatter."""
    amps = np.array(start, dtype=np.float64)
    for table, rot in zip(tables, _rotations(params[ids])):
        if table is not None:
            amps[table] = rot @ amps[table]
    return amps


def _generator_gradient(zt: np.ndarray) -> float:
    """2 <H psi|G|psi> = -2 Im <z_r, z_c>, zt = z[table], z = psi + i H psi."""
    return -2.0 * np.vdot(zt[0], zt[1]).imag


def _sweep(tables, params, ids, start, apply_h):
    """Energy <psi|H|psi> and its gradient, psi = _forward(...).

    Reverse sweep on one working vector z = psi + i H psi (ket and bra as
    real and imaginary parts): per factor, last first, one gather of its
    pairs, the :func:`_generator_gradient` read, one rotation back by
    R(-theta_k) and one scatter.  Shared ids sum their factor gradients."""
    psi = _forward(tables, params, ids, start)
    h_psi = apply_h(psi)
    e = float(np.dot(psi, h_psi))
    z = psi + 1j * h_psi
    grad = np.zeros(len(params))
    back = _rotations(-params[ids])
    for k in reversed(range(len(tables))):
        table = tables[k]
        if table is not None:
            zt = z[table]
            grad[ids[k]] += _generator_gradient(zt)
            # rotate the real and imaginary parts as floats: a complex
            # operand would make numpy cast the rotation to complex
            z[table] = (back[k] @ zt.view(float)).view(complex)
    return e, grad


def apply_excitation(space: CISpace, v, ex) -> CIVector:
    """Apply the anti-Hermitian generator G = g - g-dagger of the excitation
    tuple ``ex`` (creation indices first, annihilation indices last)."""
    amps = _amps(v)
    out = np.zeros_like(amps)
    table = _excitation_tables(space, [ex])[0]
    if table is not None:
        rows, cols = table
        out[rows] = amps[cols]
        out[cols] = -amps[rows]
    return CIVector(space, out)


# ---------------------------------------------------------------------------
# Hamiltonian application
# ---------------------------------------------------------------------------

class _SigmaPlan:
    """The single-replacement link table of a space's strings, compiled once
    for the direct-CI sigma and cached under ``"link"``.

    ``E+_pq = E_pq + E_qp`` and ``E+_pp = E_pp``, with ``E_pq = a+_p a_q`` in
    one spin sector, for the ``P``-th pair ``p >= q`` of
    ``np.tril_indices(n_orb)``.  At most one of ``E_pq``, ``E_qp`` survives
    on a string, so ``E+_P |J> = sign[J, P] |target[J, P]>``; ``sign`` is 0
    where the pair annihilates ``J`` (``target`` is then ``J``).  ``E+_P``
    is real symmetric, and alpha and beta strings are one set, so one table
    serves both sectors.

    A string of n_occ electrons has n_occ (1 + n_vir) live pairs: its
    occupied diagonal pairs and its hops from an occupied to a virtual
    orbital.  Only they are kept: ``pair``, ``live_target`` and
    ``live_sign`` (n_strings, n_live) list them per string in pair order,
    and ``flat`` holds ``pair * n_strings + live_target``, their positions
    in a (n_pair, n_strings) matrix.
    """

    def __init__(self, strings: np.ndarray, n_orb: int):
        column = strings[:, None]
        p, q = np.tril_indices(n_orb)
        bit_p = np.uint64(1) << p.astype(np.uint64)
        bit_q = np.uint64(1) << q.astype(np.uint64)
        occ_p = (column & bit_p) != 0
        hop = occ_p != ((column & bit_q) != 0)  # p != q, one of them occupied
        # the sign is the parity of the occupied orbitals strictly between
        between = (bit_p - np.uint64(1)) & ~((bit_q << np.uint64(1))
                                             - np.uint64(1))
        odd = (np.bitwise_count(column & between) & np.uint64(1)) != 0
        sign = np.where(hop, np.where(odd, -1.0, 1.0),
                        np.where(p == q, occ_p, False))
        target = np.searchsorted(
            strings, np.where(hop, column ^ (bit_p | bit_q), column))
        rows, pair = np.nonzero(sign)
        n = len(strings)
        self.pair = pair.reshape(n, -1)
        self.live_target = target[rows, pair].reshape(n, -1)
        self.live_sign = sign[rows, pair].reshape(n, -1)
        self.flat = self.pair * n + self.live_target


def _cached(table, key, build):
    """``table[key]``, set to ``build()`` on first use.  Concurrent first
    uses build equal values; the first one stored is kept."""
    value = table.get(key)
    if value is None:
        value = table.setdefault(key, build())
    return value


def _sigma_plan(space: CISpace) -> _SigmaPlan:
    return _cached(space._action_cache, "link",
                   lambda: _SigmaPlan(space.alpha_strings, space.n_orb))


def _occupations(space: CISpace) -> np.ndarray:
    """(n_strings, n_orb) occupation of every orbital in every string, 1.0
    or 0.0, cached under ``"occ"``."""
    bits = np.uint64(1) << np.arange(space.n_orb, dtype=np.uint64)
    return _cached(space._action_cache, "occ", lambda: (
        (space.alpha_strings[:, None] & bits) != 0).astype(float))


def _pair_hop_table(space: CISpace, p: int, q: int) -> np.ndarray:
    """Rotation table of b+_p b_q - b+_q b_p on the pair configurations, the
    alpha strings read as doubly occupied orbitals: the hop q -> p has no
    sign, so its targets and sources are the table's pairs (r, c).  One
    table per orbital pair is cached, under ``("hop", p, q)`` with p > q;
    p < q gives the same array with its rows swapped."""
    if p < q:
        return _pair_hop_table(space, q, p)[::-1]

    def build():
        alive, target, _ = _sector_action(space.alpha_strings,
                                          ((p, True), (q, False)))
        src = np.flatnonzero(alive)
        return np.stack([target[src], src])
    return _cached(space._action_cache, ("hop", p, q), build)


_workspace = threading.local()


def _scratch(size: int) -> np.ndarray:
    """This thread's sigma workspace, at least ``size`` floats: it grows to
    the largest request and lives as long as the thread."""
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < size:
        buf = _workspace.buf = np.empty(size)
    return buf


def _check_orbitals(space: CISpace, s: IntegralSet) -> None:
    if s.n_orb != space.n_orb:
        raise InvalidParams(f"integrals for {s.n_orb} orbitals applied in "
                            f"{space}")


def _per_integrals(space: CISpace, key: str, s: IntegralSet, build):
    """``build()``, cached per integrals in the space's weakly keyed ``key``
    table: the entry lives as long as ``s``.  Integrals for another orbital
    count raise InvalidParams (another electron count is a valid sector)."""
    _check_orbitals(space, s)
    table = _cached(space._action_cache, key, weakref.WeakKeyDictionary)
    return _cached(table, s, build)


def _same_spin(space: CISpace, s: IntegralSet) -> tuple:
    """(H_s^T, W) of the sigma, cached per integrals under ``"same-spin"``.

    W[P, R] = (pq|rs) over the pairs of :class:`_SigmaPlan`.  H_s is the
    Hamiltonian of one spin sector without e_core, H_s = sum_P k_P L_P + 1/2
    sum_PR W[P, R] L_P L_R on its strings, with k_pq = h_pq - 1/2 sum_r
    (pr|rq) and L_P the string matrix of E+_P.  The one-body part rides on
    the diagonal pairs R = (r, r), whose L_R sum to the sector's electron
    count.  It is stored dense and built by one ``bincount`` per chunk of
    strings J over the live pairs R of J and P of E+_R J.
    """
    def build():
        plan = _sigma_plan(space)
        p, q = np.tril_indices(s.n_orb)
        w = s.int2e[p, q][:, p, q]
        v = 0.5 * w
        if space.n_alpha:
            k = s.int1e - 0.5 * np.einsum("prrq->pq", s.int2e)
            v[:, p == q] += k[p, q][:, None] / space.n_alpha
        n, n_live = plan.pair.shape
        h_t = np.empty((n, n))
        step = max(1, (1 << 16) // max(1, n_live * n_live))
        for j0 in range(0, n, step):
            j = slice(j0, j0 + step)
            mid = plan.live_target[j]  # E+_R J, then E+_P of that
            weight = (v[plan.pair[mid], plan.pair[j, :, None]]
                      * plan.live_sign[j, :, None] * plan.live_sign[mid])
            at = (np.arange(mid.shape[0])[:, None, None] * n
                  + plan.live_target[mid])
            h_t[j] = np.bincount(at.ravel(), weight.ravel(),
                                 h_t[j].size).reshape(-1, n)
        return h_t, w
    return _per_integrals(space, "same-spin", s, build)


def _sigma(space: CISpace, s: IntegralSet, amps: np.ndarray,
           block: int | None = None, symmetric: bool = False) -> np.ndarray:
    """H v, core energy included, without a Hamiltonian matrix: the direct-CI
    sigma of Knowles and Handy (Chem. Phys. Lett. 111, 315 (1984)), split
    into same-spin and opposite-spin parts as by Olsen et al. (J. Chem.
    Phys. 89, 2185 (1988)).

    With C the amplitudes as an (alpha string, beta string) matrix and L_P
    the string matrix of E+_P, ``sigma - e_core C = H_s C + C H_s^T + X``
    with H_s and W of :func:`_same_spin` and X = sum_PR W[P, R] L_P C L_R.
    X is built per block of alpha rows a from gathers over the live pairs
    i of :class:`_SigmaPlan` (pair P_ai, target t_ai, sign s_ai), without
    a scatter:

    1. D[a, i, :] = C[t_ai, :];
    2. F[a] = (W[:, P_a] s_a) @ D[a], the (n_pair, n_strings) matrix of
       sum_P W[:, P] (L_P C)[a, :] (W is symmetric, so its rows P_a serve);
    3. X[a, b] = sum_j s_bj F[a, P_bj, t_bj], a gather through ``flat``
       into D's buffer.

    D and F live in this thread's workspace (:func:`_scratch`), so a warm
    apply allocates nothing larger than its output and threads share no
    mutable state.  ``block`` alpha strings go at a time; by default D and
    F together hold at most ``max(1 MB, 8 * (n_pair + n_live) *
    n_strings_beta)`` bytes, which keeps them in a core's L2 cache.

    ``symmetric=True`` is for C = C^T, a closed-shell vector even under the
    alpha <-> beta exchange: C H_s^T is then (H_s C)^T, one matrix product
    fewer.  On a vector that is not symmetric the result is not H v.
    """
    plan = _sigma_plan(space)
    h_t, w = _same_spin(space, s)
    n_pair, (na, n_live) = w.shape[0], plan.pair.shape
    nb = space.n_strings_beta
    c = amps.reshape(na, nb)
    if block is None:
        block = max(1, (1 << 20) // (8 * (n_pair + n_live) * nb))
    block = min(block, na)
    size = block * n_pair * nb
    work = _scratch(size + block * n_live * nb)
    h_c = h_t.T @ c
    out = h_c + (h_c.T if symmetric else c @ h_t)
    out += s.e_core * c
    for a0 in range(0, na, block):
        a = slice(a0, a0 + block)
        n = plan.pair[a].shape[0]
        f = work[:n * n_pair * nb].reshape(n, n_pair, nb)
        d = work[size:size + n * n_live * nb].reshape(n, n_live, nb)
        # mode="clip" writes straight into out= (the indices are in range)
        np.take(c, plan.live_target[a], axis=0, out=d, mode="clip")
        signed_w = w[plan.pair[a]] * plan.live_sign[a, :, None]
        np.matmul(signed_w.transpose(0, 2, 1), d, out=f)
        g = d.reshape(n, nb, n_live)  # D is spent
        np.take(f.reshape(n, -1), plan.flat, axis=1, out=g, mode="clip")
        out[a] += np.einsum("abj,bj->ab", g, plan.live_sign)
    return out.ravel()


def apply_hamiltonian(space: CISpace, v, s: IntegralSet) -> CIVector:
    """H v, including the constant core energy, by the direct-CI sigma."""
    return CIVector(space, _sigma(space, s, _amps(v)))


def hamiltonian_diagonal(space: CISpace, s: IntegralSet) -> np.ndarray:
    """<D|H|D> for every determinant (a, b): e[a] + e[b] + occ[a] J occ[b]
    + e_core, with J[p, q] = (pp|qq) and e[a] = sum h_pp + 1/2 sum_{p != q}
    [(pp|qq) - (pq|qp)] over the orbitals of string a.  A space past
    :func:`check_vector_dim` raises SizeLimit before anything is built."""
    _check_orbitals(space, s)
    check_vector_dim(space.n_orb, space.n_elec)
    occ = _occupations(space)
    j_mat = np.einsum("ppqq->pq", s.int2e)
    jk = j_mat - np.einsum("pqqp->pq", s.int2e)
    np.fill_diagonal(jk, 0.0)
    e = occ @ np.diag(s.int1e) + 0.5 * np.einsum("ip,ip->i", occ @ jk, occ)
    cross = occ @ j_mat @ occ.T  # alpha-beta Coulomb between string pairs
    return (e[:, None] + e[None, :] + cross + s.e_core).ravel()


def _pair_diagonal(space: CISpace, s: IntegralSet) -> np.ndarray:
    """<J, J|H|J, J> of every pair configuration, cached per integrals
    under ``"pair-diag"``."""
    def build():
        h, v, w = pair_hamiltonian(s)
        occ = _occupations(space)
        return occ @ (h + np.diag(v)) + ((occ @ w) * occ).sum(1) + s.e_core
    return _per_integrals(space, "pair-diag", s, build)


def _pair_sigma(space: CISpace, s: IntegralSet, c: np.ndarray) -> np.ndarray:
    """H c on the pair configurations of :func:`_pair_hop_table`: (J, J)
    has its diagonal energy and a hop from q to p amplitude v[p, q] of
    :func:`~vqchem.integrals.pair_hamiltonian`."""
    _, v, _ = pair_hamiltonian(s)
    out = _pair_diagonal(space, s) * c
    for p in range(s.n_orb):
        for q in range(p):
            rows, cols = _pair_hop_table(space, p, q)
            np.add.at(out, rows, v[p, q] * c[cols])
            np.add.at(out, cols, v[p, q] * c[rows])
    return out


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
    if not np.all(np.isfinite(params)):
        raise InvalidParams("parameters must be finite")
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


def _excitation_tables(space: CISpace, ex_ops) -> list:
    """Rotation tables of ``ex_ops``, each from the space's ``("G", ex)``
    cache or built there by :func:`_excitation_table`.  Only excitations
    without a cached table are checked; an invalid one is never cached, so
    it raises on every call."""
    cache = space._action_cache
    tables = []
    for ex in ex_ops:
        try:
            tables.append(cache["G", tuple(ex)])
        except KeyError:
            tables.append(_excitation_table(space, ex))
    return tables


def _start(space: CISpace, initial) -> np.ndarray:
    """Amplitudes of the initial vector, the HF determinant by default.  A
    space past :func:`check_vector_dim` raises SizeLimit; a vector of
    another space, or of the wrong length, raises InvalidParams."""
    check_vector_dim(space.n_orb, space.n_elec)
    if initial is None:
        return hf_vector(space).amplitudes
    if isinstance(initial, CIVector):
        other = initial.space
        if ((other.n_orb, other.n_alpha, other.n_beta)
                != (space.n_orb, space.n_alpha, space.n_beta)):
            raise InvalidParams(f"initial vector belongs to {other}, not "
                                f"to {space}")
    return CIVector(space, _amps(initial)).amplitudes


def ucc_state(space: CISpace, ex_ops, params, param_ids,
              initial: CIVector | None = None) -> CIVector:
    """Apply the product of exponential factors e^{theta_k G_k} to the
    initial vector, first list entry acting first."""
    params, ids = _check_param_map(ex_ops, params, param_ids)
    start = _start(space, initial)
    return CIVector(space, _forward(_excitation_tables(space, ex_ops), params,
                                    ids, start))


def energy_and_gradient(space: CISpace, ex_ops, params, param_ids,
                        s: IntegralSet, initial: CIVector | None = None):
    """Energy and analytic gradient of the UCC expectation value (reverse
    sweep, see :func:`_sweep`)."""
    params, ids = _check_param_map(ex_ops, params, param_ids)
    start = _start(space, initial)
    return _sweep(_excitation_tables(space, ex_ops), params, ids, start,
                  lambda v: apply_hamiltonian(space, v, s).amplitudes)


# ---------------------------------------------------------------------------
# Ground states: FCI on the determinants, DOCI on the pair configurations
# ---------------------------------------------------------------------------

class _Triangle:
    """Packed storage of vectors with C = C^T over (alpha string, beta
    string), ``n`` strings per spin: their coordinates in the orthonormal
    basis {e_aa, (e_ab + e_ba) / sqrt 2 for a > b}, n (n + 1) / 2 of them.
    Entry i is C[a, b] / scale_i for the pair a >= b, with scale 1 on the
    diagonal and 1/sqrt 2 off it; packing is an isometry, so dot products
    and norms are those of the full vectors."""

    def __init__(self, n: int):
        a, b = np.tril_indices(n)
        self.lower = a * n + b  # flat positions of (a, b) and (b, a)
        self.upper = b * n + a
        self.scale = np.where(a == b, 1.0, np.sqrt(0.5))
        self.size = a.size
        self.dim = n * n

    def pack(self, y: np.ndarray) -> np.ndarray:
        """U^T y, for U the basis as columns: the coordinates of (Y + Y^T)
        / 2, which are those of Y if Y = Y^T."""
        return (y[self.lower] + y[self.upper]) / (2.0 * self.scale)

    def unpack(self, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """U x, the full vector with coordinates ``x``, written into
        ``out`` if given."""
        if out is None:
            out = np.empty(self.dim)
        x = x * self.scale
        out[self.lower] = x
        out[self.upper] = x
        return out


def _davidson(apply, diag: np.ndarray, start: int, tol: float = 1e-8,
              max_iter: int = 200, max_subspace: int = 30):
    """Lowest eigenpair of a real symmetric H by Davidson's method (J.
    Comput. Phys. 17, 87 (1975)) with the diagonal preconditioner, in the
    caller's coordinates: ``apply(x)`` is H x, ``diag`` is H's diagonal and
    the iteration starts from the unit vector at coordinate ``start``.

    The basis and its sigmas live in two preallocated (max_subspace,
    diag.size) arrays, and the projected matrix grows by one row per new
    vector.  When the basis is full it restarts on the Ritz vector, keeping
    its H image; every H application is spent on a new basis vector.
    Returns the energy and the normalised Ritz vector; SolverFailed if the
    residual norm is not below ``tol`` after ``max_iter`` applications.
    """
    basis = np.empty((max_subspace, diag.size))
    sigmas = np.empty((max_subspace, diag.size))
    small = np.empty((max_subspace, max_subspace))
    basis[0] = 0.0
    basis[0, start] = 1.0
    k = 0
    for _ in range(max_iter):
        sigmas[k] = apply(basis[k])
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
        if k == max_subspace:  # restart on the Ritz vector and its H image
            nrm = np.linalg.norm(ritz)
            basis[0] = ritz / nrm
            sigmas[0] = h_ritz / nrm
            small[0, 0] = float(np.dot(basis[0], sigmas[0]))
            k = 1
        denom = diag - theta
        denom[np.abs(denom) < 1e-8] = 1e-8
        residual /= denom
        new = _orthogonalize(residual, basis[:k])
        if new is None:
            rng = np.random.default_rng(k)
            new = _orthogonalize(rng.standard_normal(diag.size), basis[:k])
        basis[k] = new
    raise SolverFailed(
        f"Davidson iteration did not reach residual {tol} in {max_iter} steps"
    )


def _davidson_ground_state(space: CISpace, s: IntegralSet,
                           tol: float = 1e-8, max_iter: int = 200,
                           max_subspace: int = 30):
    """Lowest eigenpair of H in the alpha <-> beta-symmetric subspace C = C^T:
    :func:`_davidson` on the coordinates of a :class:`_Triangle`, an
    isometry, so the projected matrix, the correction and the stopping rule
    are those of the full vectors.  H is the symmetric sigma, applied to one
    full buffer reused by every apply and packed back.  The start is the
    determinant of lowest diagonal energy.  The basis and sigmas take 2 *
    max_subspace * n (n + 1) / 2 * 8 bytes for n strings per spin (15 MB for
    H10, 205 MB for H12).  Returns the energy and the full normalised
    ground state.
    """
    diag = hamiltonian_diagonal(space, s)  # refuses a space past the limit
    tri = _Triangle(space.n_strings_alpha)
    first = int(np.argmin(diag))  # the start determinant, as a full index
    start = int(np.flatnonzero((tri.lower == first)
                               | (tri.upper == first))[0])
    buf = np.empty(tri.dim)  # the full vector H is applied to
    e, x = _davidson(
        lambda x: tri.pack(_sigma(space, s, tri.unpack(x, buf),
                                  symmetric=True)),
        diag[tri.lower], start, tol, max_iter, max_subspace)
    return e, tri.unpack(x)


def _orthogonalize(x: np.ndarray, basis: np.ndarray):
    """x made orthogonal to the orthonormal rows of ``basis`` (classical
    Gram-Schmidt, twice) and normalised, in place; None if nothing is
    left."""
    for _ in range(2):
        x -= (basis @ x) @ basis
    nrm = np.linalg.norm(x)
    if nrm < 1e-12:
        return None
    x /= nrm
    return x


def fci_ground_state(space: CISpace, s: IntegralSet):
    """Lowest alpha <-> beta-even eigenpair of the Hamiltonian in the CI
    space: the ground state among vectors with C = C^T over (alpha string,
    beta string), which holds the even-spin states (S = 0, 2, ...), as
    PySCF's ``fci.direct_spin0`` finds it.  An odd-S state (a triplet)
    below it is not returned.  Every size takes the packed symmetric
    Davidson (:func:`_davidson_ground_state`); a space past
    ``_ITERATIVE_LIMIT`` determinants raises SizeLimit."""
    e, vec = _davidson_ground_state(space, s)
    return e, CIVector(space, vec)


def doci_ground_state(space: CISpace, s: IntegralSet):
    """Lowest eigenpair of H among the seniority-zero determinants, those
    whose alpha and beta strings coincide: doubly occupied configuration
    interaction (DOCI; Weinhold and Wilson, J. Chem. Phys. 46, 2752
    (1967)).  :func:`_davidson` runs on the space's alpha strings as pair
    configurations, applies :func:`_pair_sigma` and starts from the
    configuration of lowest diagonal energy.  DOCI bounds pUCCD from below
    and FCI from above.  Returns the energy and the normalised amplitudes
    over ``space.alpha_strings``."""
    diag = _pair_diagonal(space, s)
    return _davidson(lambda c: _pair_sigma(space, s, c), diag,
                     int(np.argmin(diag)))


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
    raises InvalidParams."""
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
        raise InvalidParams("stored vector belongs to a different space")
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
