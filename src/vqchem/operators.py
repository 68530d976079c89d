"""Fermionic and qubit operator algebra, fermion-to-qubit mappings, and the
action of Pauli strings on basis states.

Index conventions used throughout the package:

* Spin-orbitals are 0-based.  For ``N`` spatial orbitals, beta spin-orbitals
  occupy indices ``0..N-1`` and alpha spin-orbitals ``N..2N-1``, each sector
  ordered from the lowest-energy orbital up.
* Qubit ``q`` hosts spin-orbital ``n_qubits - 1 - q``; in bitstrings, qubit 0
  is written first (most significant).  Dense matrices follow the same rule:
  qubit 0 is the most significant tensor factor.
* ``|1>`` means occupied.

Pauli strings are 64-bit masks (x, z), qubit ``q`` at bit ``n - 1 - q``, so
spin-orbital ``j`` is bit ``j``: P(x, z) = i^{|x & z|} X^x Z^z (Aaronson &
Gottesman, PRA 70, 052328).  One rule serves maps, products and matrices:
P(x1, z1) P(x2, z2) = i^k P(x, z), x = x1 ^ x2, z = z1 ^ z2, k = |x1&z1| +
|x2&z2| - |x&z| + 2|z1&x2| mod 4.  Over 64 qubits raise ``SizeLimit``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidOperator, SizeLimit, UnsupportedReduction

COEFF_CUTOFF = 1e-12

# (index, True) = creation a^dagger, (index, False) = annihilation a.
LadderTerm = tuple[tuple[int, bool], ...]
PauliTerm = tuple[tuple[int, str], ...]

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _mat in _PAULI_MATS.values():
    _mat.flags.writeable = False  # shared by every caller

_UNITS = np.array([1, 1j, -1, -1j])  # i^k for a phase exponent k


class FermionOperator:
    """Sum of ladder-operator products with coefficients.

    Terms are kept exactly as constructed: ``simplify`` merges identical
    factor sequences but never normal-orders, so the printed form of a
    Hamiltonian is stable.
    """

    __slots__ = ("n_spin_orbitals", "terms")

    def __init__(self, n_spin_orbitals: int,
                 terms: Mapping[LadderTerm, complex] | None = None):
        if n_spin_orbitals < 1:
            raise InvalidOperator("need at least one spin-orbital")
        self.n_spin_orbitals = int(n_spin_orbitals)
        self.terms: dict[LadderTerm, complex] = dict(terms or {})
        for term in self.terms:
            self._check_term(term)

    def _check_term(self, term: LadderTerm) -> None:
        for idx, _ in term:
            if not 0 <= idx < self.n_spin_orbitals:
                raise InvalidOperator(
                    f"spin-orbital index {idx} out of range "
                    f"0..{self.n_spin_orbitals - 1}"
                )

    @classmethod
    def from_term(cls, n_spin_orbitals: int, term: Iterable[tuple[int, bool]],
                  coeff: complex = 1.0) -> "FermionOperator":
        return cls(n_spin_orbitals, {tuple(term): coeff})

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        if self.n_spin_orbitals != other.n_spin_orbitals:
            raise InvalidOperator("operator size mismatch in add")
        out = dict(self.terms)
        for term, c in other.terms.items():
            out[term] = out.get(term, 0.0) + c
        return FermionOperator(self.n_spin_orbitals, out)

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, FermionOperator):
            if self.n_spin_orbitals != other.n_spin_orbitals:
                raise InvalidOperator("operator size mismatch in multiply")
            out: dict[LadderTerm, complex] = {}
            for ta, ca in self.terms.items():
                for tb, cb in other.terms.items():
                    key = ta + tb
                    out[key] = out.get(key, 0.0) + ca * cb
            return FermionOperator(self.n_spin_orbitals, out)
        return FermionOperator(
            self.n_spin_orbitals,
            {t: c * other for t, c in self.terms.items()},
        )

    __rmul__ = __mul__

    def __neg__(self) -> "FermionOperator":
        return (-1.0) * self

    def hermitian_conjugate(self) -> "FermionOperator":
        out: dict[LadderTerm, complex] = {}
        for term, c in self.terms.items():
            conj = tuple((idx, not dag) for idx, dag in reversed(term))
            out[conj] = out.get(conj, 0.0) + np.conj(c)
        return FermionOperator(self.n_spin_orbitals, out)

    def simplify(self, tol: float = COEFF_CUTOFF) -> "FermionOperator":
        out = {t: c for t, c in self.terms.items() if abs(c) > tol}
        return FermionOperator(self.n_spin_orbitals, out)

    def normal_ordered(self) -> "FermionOperator":
        """Rewrite with creations left of annihilations, indices descending.

        Anticommutation signs are tracked and ``a_i a_i^`` contractions
        produce the extra delta terms, so the result equals the original
        operator.
        """
        out: dict[LadderTerm, complex] = {}
        stack: list[tuple[LadderTerm, complex]] = list(self.terms.items())
        while stack:
            term, coeff = stack.pop()
            for k in range(len(term) - 1):
                (i, dag_i), (j, dag_j) = term[k], term[k + 1]
                if not dag_i and dag_j:
                    swapped = term[:k] + ((j, True), (i, False)) + term[k + 2:]
                    stack.append((swapped, -coeff))
                    if i == j:
                        stack.append((term[:k] + term[k + 2:], coeff))
                    break
                if dag_i == dag_j and i < j:
                    swapped = term[:k] + (term[k + 1], term[k]) + term[k + 2:]
                    stack.append((swapped, -coeff))
                    break
                if dag_i == dag_j and i == j:
                    break  # repeated fermionic operator annihilates the term
            else:
                out[term] = out.get(term, 0.0) + coeff
        return FermionOperator(self.n_spin_orbitals, out)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        diff = (self - self.hermitian_conjugate()).normal_ordered()
        return not diff.simplify(tol).terms

    def format_text(self) -> str:
        """One term per line: ``coeff [2^ 0 1^ 3]`` (caret marks creation)."""
        lines = []
        for term, c in self.terms.items():
            ops = " ".join(f"{i}^" if dag else f"{i}" for i, dag in term)
            lines.append(f"{_format_coeff(c)} [{ops}]")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"FermionOperator(n_spin_orbitals={self.n_spin_orbitals}, "
                f"n_terms={len(self.terms)})")


class QubitOperator:
    """Sum of Pauli strings.  Term key: tuple of (qubit, letter), sorted.

    Operators are not modified after construction: arithmetic returns new
    ones, and the masks and the flip groups of :func:`_flip_groups` are
    kept.  The flip groups give H psi, the diagonal and the matrices.
    """

    __slots__ = ("n_qubits", "terms", "_flips", "_xz")

    def __init__(self, n_qubits: int,
                 terms: Mapping[PauliTerm, complex] | None = None):
        if n_qubits < 1:
            raise InvalidOperator("need at least one qubit")
        self.n_qubits = int(n_qubits)
        self._flips = self._xz = None  # built on first use
        self.terms: dict[PauliTerm, complex] = {}
        for term, c in (terms or {}).items():
            key = self._normalize_term(term)
            self.terms[key] = self.terms.get(key, 0.0) + c

    def _normalize_term(self, term: PauliTerm) -> PauliTerm:
        seen = set()
        for q, letter in term:
            if not 0 <= q < self.n_qubits:
                raise InvalidOperator(f"qubit {q} out of range")
            if letter not in ("X", "Y", "Z"):
                raise InvalidOperator(f"bad Pauli letter {letter!r}")
            if q in seen:
                raise InvalidOperator(f"duplicate qubit {q} in term")
            seen.add(q)
        return tuple(sorted(term))

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "QubitOperator":
        return cls(n_qubits, {(): coeff})

    @classmethod
    def from_term(cls, n_qubits: int, term: Iterable[tuple[int, str]],
                  coeff: complex = 1.0) -> "QubitOperator":
        return cls(n_qubits, {tuple(term): coeff})

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        if self.n_qubits != other.n_qubits:
            raise InvalidOperator("operator size mismatch in add")
        out = dict(self.terms)
        for term, c in other.terms.items():
            out[term] = out.get(term, 0.0) + c
        return QubitOperator(self.n_qubits, out)

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, QubitOperator):
            if self.n_qubits != other.n_qubits:
                raise InvalidOperator("operator size mismatch in multiply")
            (xa, za, a), (xb, zb, b) = _masks(self), _masks(other)
            x, z, k = _pauli_product(xa[:, None], za[:, None], xb, zb)
            ab = np.empty(x.shape, dtype=complex)  # Python's a*b: no FMA
            ab.real = a.real[:, None] * b.real - a.imag[:, None] * b.imag
            ab.imag = a.real[:, None] * b.imag + a.imag[:, None] * b.real
            return _mask_operator(self.n_qubits, *_collect(
                x.ravel(), z.ravel(), (ab * _UNITS[k]).ravel()))
        return QubitOperator(
            self.n_qubits, {t: c * other for t, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def __neg__(self) -> "QubitOperator":
        return (-1.0) * self

    def simplify(self, tol: float = COEFF_CUTOFF) -> "QubitOperator":
        out = {t: c for t, c in self.terms.items() if abs(c) > tol}
        return QubitOperator(self.n_qubits, out)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return all(abs(c.imag if isinstance(c, complex) else 0.0) <= tol
                   for c in self.terms.values())

    def diagonal(self) -> np.ndarray:
        """<i|H|i> over the 2^n basis states, read off the flip groups."""
        cols, d = _flip_groups(self)
        return d[cols[:, 0] == 0].sum(axis=0)  # the group with x = 0

    def to_dense_matrix(self) -> np.ndarray:
        """Dense complex 2^n x 2^n matrix; qubit 0 is the most significant
        factor."""
        if self.n_qubits > 14:
            raise SizeLimit(
                f"dense matrix for {self.n_qubits} qubits exceeds the guard (14)"
            )
        cols, d = _flip_groups(self)
        matrix = np.zeros((1 << self.n_qubits,) * 2, dtype=complex)
        np.put_along_axis(matrix, cols.T, d.T, axis=1)
        return matrix

    def format_text(self) -> str:
        """One term per line: ``coeff X0 Y2 Z3`` (bare coeff = identity)."""
        lines = []
        for term, c in self.terms.items():
            ops = " ".join(f"{letter}{q}" for q, letter in term)
            lines.append(f"{_format_coeff(c)} {ops}".rstrip())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"QubitOperator(n_qubits={self.n_qubits}, n_terms={len(self.terms)})"


def _format_coeff(c: complex) -> str:
    c = complex(c)
    if c.imag == 0.0:
        return repr(c.real)
    return repr(c)


def pauli_masks(n: int, term: PauliTerm) -> tuple[int, int]:
    """The (x, z) bit masks of the Pauli string ``term`` on ``n`` qubits."""
    return tuple(sum(1 << (n - 1 - q) for q, letter in term if letter != skip)
                 for skip in "ZX")  # X and Y set x; Y and Z set z


def _masks(op: QubitOperator):
    """(x, z, coefficients) of the terms of ``op``, in order: read-only
    arrays, built once per operator."""
    if op._xz is None:
        if op.n_qubits > 64:
            raise SizeLimit(f"{op.n_qubits} qubits exceed the 64-bit masks")
        masks = np.array([pauli_masks(op.n_qubits, t) for t in op.terms],
                         dtype=np.uint64).reshape(-1, 2)
        coeffs = np.fromiter(op.terms.values(), complex, len(op.terms))
        masks.flags.writeable = coeffs.flags.writeable = False
        op._xz = masks[:, 0], masks[:, 1], coeffs
    return op._xz


def _flip_groups(op: QubitOperator) -> tuple[np.ndarray, np.ndarray]:
    """(cols, d) of ``op``, built once.  Its strings are grouped by flip
    mask x_g, groups in order of first appearance and strings of a group
    added in term order.  Row g holds cols[g, i] = i ^ x_g and d[g, i] =
    <i|H|cols[g, i]>, so H psi = sum_g d[g] * psi[cols[g]].  d is real when
    every value is: 16 bytes (24 if complex) per basis state and group."""
    if op._flips is None:
        x, z, c = _masks(op)
        x = x.astype(np.int64)  # 2^n fits
        first, group = _groups(x)
        values = np.zeros((first.size, 1 << op.n_qubits), dtype=complex)
        # add.at adds in index order; chunks bound the (terms, 2^n) rows.
        # mask_action gives the phase by the column a string acts on.
        for at in np.array_split(np.arange(x.size),
                                 1 + x.size * values.shape[1] // 2**20):
            phase = mask_action(op.n_qubits, x[at, None], z[at, None])[1]
            np.add.at(values, group[at], c[at, None] * phase)
        cols = np.arange(values.shape[1]) ^ x[first, None]
        d = np.take_along_axis(values, cols, axis=1)
        if not d.imag.any():
            d = d.real.copy()
        cols.flags.writeable = d.flags.writeable = False
        op._flips = cols, d
    return op._flips


def apply_operator(op: QubitOperator, psi: np.ndarray) -> np.ndarray:
    """H psi for a statevector ``psi``: one gather of the flip groups'
    columns (:func:`_flip_groups`), weighted and summed over groups."""
    cols, d = _flip_groups(op)
    return (psi[cols] * d).sum(axis=0)


def mask_action(n: int, x, z) -> tuple[np.ndarray, np.ndarray]:
    """P(x, z)|i> = phase_i |target_i> over all 2^n basis states i:
    target = i ^ x, phase = i^{|x & z|} (-1)^{|z & i|}.  Uncached; columns
    ``x``, ``z`` of T strings give (T, 2^n) arrays."""
    idx = np.arange(1 << n)
    x, z = np.asarray(x, np.int64), np.asarray(z, np.int64)  # 2^n fits
    k = np.bitwise_count(x & z) + 2 * np.bitwise_count(idx & z)
    return idx ^ x, _UNITS[k & 3]


@dataclass(frozen=True)
class _RotationRuns:
    """Rotations and permutations compiled by :func:`_fuse_runs`.  Member k
    is exp(-i theta_k P_k), theta_k = (angles[k] + params[slots[k]]) / 2
    (slot -1: the fixed angle alone) as for PAULI_ROT.  Run r holds members
    ``starts[r]:starts[r + 1]``, ``(P_r x)[i] = phases[r, i] x[target[i]]``
    and ``P_k = diag(signs[:, k]) P_r``.  ``steps`` are ``(target, r, end)``
    in order: run r, or x -> x[target] when r is None, and its last op."""

    starts: np.ndarray          # (n_runs + 1,)
    phases: np.ndarray          # (n_runs, dim)
    signs: np.ndarray           # (dim, n_members) int8 entries +-1
    slots: np.ndarray           # (n_members,)
    angles: np.ndarray          # (n_members,)
    steps: tuple

    def rotations(self, params) -> tuple[np.ndarray, np.ndarray]:
        """(cos Phi, -i sin Phi phases) of every run's diagonal angle
        Phi = sum_k theta_k signs[:, k], so run r maps x to
        cos[r] x + flip[r] x[target] (rows of length 1 if runs are single)."""
        theta = 0.5 * (self.angles + np.append(params, 0.0)[self.slots])
        if theta.size == len(self.phases):  # one member per run: Phi = theta
            phi = theta[:, None]
        else:
            phi = np.add.reduceat(self.signs * theta, self.starts[:-1],
                                  axis=1).T
        return np.cos(phi), -1.0j * np.sin(phi) * self.phases

    @functools.cached_property
    def plan(self) -> tuple:
        """``(lo, hi, target, columns)`` of every run, with Python int
        bounds, where ``-i P_k x = columns[k - lo] * x[target]``."""
        b = self.starts.tolist()
        targets = [t for t, r, _ in self.steps if r is not None]
        return tuple((lo, hi, t, -1.0j * self.signs[:, lo:hi].T * ph)
                     for lo, hi, t, ph in zip(b, b[1:], targets, self.phases))


def _fuse_runs(n: int, ops) -> _RotationRuns:
    """Compile ``ops``, each a permutation (its target array) or a rotation
    ``(x, z, slot, angle, closes)`` about P(x, z).  A run is a maximal
    stretch of rotations whose strings P_k flip the same qubits as its first
    string P_r (equal x) and commute with it (|x & (z_k ^ z_r)| even).  Then
    D_k = P_k P_r is a diagonal +-1 matrix that commutes with P_r, so on
    every basis pair {i, i ^ x} P_k = d_k(i) P_r, the run's strings commute,
    and its product of rotations is exactly exp(-i Phi P_r) =
    cos(Phi) - i sin(Phi) P_r with the diagonal angle Phi = sum_k theta_k
    D_k; its derivative in theta_k is -i d_k P_r after the run.  Any other
    string, a permutation or ``closes`` ends the run."""
    signs = np.ones((1 << n, len(ops)), np.int8)  # cut to the members below
    starts, phases, slots, angles, steps = [], [], [], [], []
    ref = None  # (x, z, phase) of the open run's first string
    for end, op in enumerate(ops):
        if isinstance(op, np.ndarray):
            steps.append((op, None, end))
            ref = None
            continue
        x, z, slot, angle, closes = op
        target, phase = mask_action(n, x, z)
        if (ref is not None and x == ref[0]
                and (x & (z ^ ref[1])).bit_count() % 2 == 0):
            # P_k P_r |i> = ratio_i |i>, real as the strings commute
            signs[:, len(slots)] = (phase * ref[2].conj()).real
            steps[-1] = steps[-1][:2] + (end,)
        else:
            starts.append(len(slots))
            phases.append(phase[target])
            steps.append((target, len(phases) - 1, end))
            ref = (x, z, phase)
        slots.append(slot)
        angles.append(angle)
        ref = None if closes else ref
    return _RotationRuns(np.array(starts + [len(slots)]),
                         np.array(phases, complex).reshape(-1, 1 << n),
                         signs[:, :len(slots)],
                         np.array(slots, np.intp), np.array(angles, float),
                         tuple(steps))


def _pauli_product(x1, z1, x2, z2):
    """(x, z, k) with P(x1, z1) P(x2, z2) = i^k P(x, z), elementwise."""
    x, z = x1 ^ x2, z1 ^ z2
    count = np.bitwise_count  # uint8: wrapping keeps k mod 4
    k = count(x1 & z1) + count(x2 & z2) - count(x & z) + 2 * count(z1 & x2)
    return x, z, k & 3


def _groups(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries equal in every key array form a group.  Returns each group's
    first entry, groups in that order, and the group of every entry."""
    order = np.lexsort(keys)  # stable: a group's first entry leads it
    ranked = [key[order] for key in keys]
    step = np.r_[True, np.any([k[1:] != k[:-1] for k in ranked], axis=0)]
    first = order[step[:order.size]]
    by_first = np.argsort(first)
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.argsort(by_first)[np.cumsum(step[:order.size]) - 1]
    return first[by_first], group


def _collect(x, z, v, *keys):
    """Sum the coefficients ``v`` of equal strings (and equal ``keys``), in
    the order strings first appear.  bincount adds a group's entries in
    array order, as a running sum over the terms would."""
    first, group = _groups(z, x, *keys)
    out = np.empty(first.size, dtype=complex)
    out.real = np.bincount(group, v.real, first.size)
    out.imag = np.bincount(group, v.imag, first.size)
    return x[first], z[first], out, *(key[first] for key in keys)


def _mask_operator(n: int, x, z, v) -> QubitOperator:
    """The operator sum_k v_k P(x_k, z_k), terms in array order."""
    shift = np.arange(n - 1, -1, -1, dtype=np.uint64)  # qubit 0 first
    codes = (x[:, None] >> shift & 1) | (z[:, None] >> shift & 1) << 1
    letters = [(None, (q, "X"), (q, "Z"), (q, "Y")) for q in range(n)]
    op = QubitOperator(n)
    op.terms = {tuple(letters[q][c] for q, c in enumerate(row) if c): c_k
                for row, c_k in zip(codes.tolist(), v.tolist())}
    return op


def _ladder_images(n: int, parity: bool) -> np.ndarray:
    """Masks [j, branch, (x, z)] of a_j = (P_j0 + i P_j1) / 2 and
    a_j^dagger = (P_j0 - i P_j1) / 2.  Jordan-Wigner: Z on bits below j,
    then X_j or Y_j.  Parity basis (bit j holds the parity of spin-orbitals
    0..j): Z_{j-1} X_j or Y_j, then X on the bits above j."""
    return np.array([
        (((1 << n) - (1 << j), (1 << j) >> 1), ((1 << n) - (1 << j), 1 << j))
        if parity else ((1 << j, (1 << j) - 1), (1 << j, (2 << j) - 1))
        for j in range(n)], dtype=np.uint64)


def _fermion_image(op: FermionOperator, parity: bool):
    """Masks and coefficients of the qubit image of ``op``, small ones
    dropped.  Terms of one length expand together; a term's strings are
    summed after each factor, then the terms' sums in term order.  Scaling
    by 1/2 and powers of i is exact, so that order alone fixes the bits."""
    n = op.n_spin_orbitals
    if n > 64:
        raise SizeLimit(f"{n} spin-orbitals exceed the 64-bit Pauli masks")
    table = _ladder_images(n, parity)
    lengths = np.fromiter(map(len, op.terms), dtype=np.intp)
    factors = np.fromiter(chain.from_iterable(chain.from_iterable(op.terms)),
                          dtype=np.intp).reshape(-1, 2)
    starts = np.cumsum(lengths) - lengths
    coeffs = np.fromiter(op.terms.values(), dtype=complex)
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.uint64),
              np.zeros(0, np.uint64), np.zeros(0, complex))]
    for length in np.flatnonzero(np.bincount(lengths)):
        rows = np.flatnonzero(lengths == length)
        f = factors[starts[rows, None] + np.arange(length)]
        x = z = np.zeros(rows.size, dtype=np.uint64)
        r, v = np.arange(rows.size), coeffs[rows]
        for k in range(length):
            img = table[f[r, k, 0]]
            x, z, ph = _pauli_product(x[:, None], z[:, None],
                                      img[..., 0], img[..., 1])
            # branch 1 carries +i/2 for a_j and -i/2 = i^3/2 for a_j^dagger
            ph = ph + (1 + 2 * f[r, k, 1, None]) * np.array([0, 1])
            v = 0.5 * v[:, None] * _UNITS[ph & 3]
            x, z, v, r = _collect(x.ravel(), z.ravel(), v.ravel(),
                                  np.repeat(r, 2))
        parts.append((rows[r], x, z, v))
    term, x, z, v = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(term, kind="stable")
    x, z, v = _collect(x[order], z[order], v[order])
    keep = np.abs(v) > COEFF_CUTOFF
    return x[keep], z[keep], v[keep]


def jordan_wigner(op: FermionOperator) -> QubitOperator:
    """Map a FermionOperator to qubits via the Jordan-Wigner transformation.

    Occupation of spin-orbital ``j`` lands on qubit ``n - 1 - j`` so that HF
    bitstrings read highest spin-orbital first (e.g. 0101 for two electrons
    in two spatial orbitals).
    """
    return _mask_operator(op.n_spin_orbitals, *_fermion_image(op, False))


def parity_transform(op: FermionOperator, n_elec: int,
                     reduce_two_qubits: bool = False) -> QubitOperator:
    """Parity-basis fermion-to-qubit mapping, optionally dropping two qubits.

    Qubit ``n - 1 - j`` (mask bit ``j``) stores the cumulative occupation
    parity of spin-orbitals ``0..j``.  When the operator conserves particle
    number and the beta-sector count, bit ``N/2 - 1`` (beta parity) and bit
    ``N - 1`` (total parity) are frozen at eigenvalues fixed by ``n_elec``,
    and ``reduce_two_qubits`` removes them.
    """
    n = op.n_spin_orbitals
    for bad, need in ((n_elec % 2, "even n_elec"),
                      (n % 2, "an even number of spin-orbitals"),
                      (n < 4, ">= 4 spin-orbitals")):
        if reduce_two_qubits and bad:
            raise UnsupportedReduction(f"two-qubit reduction needs {need}")
    x, z, v = _fermion_image(op, True)
    if not reduce_two_qubits:
        return _mask_operator(n, x, z, v)

    q_beta, q_total = n // 2 - 1, n - 1
    frozen = (1 << q_beta) | (1 << q_total)
    bad = np.flatnonzero(x & frozen)
    if bad.size:
        q = q_beta if int(x[bad[0]]) >> q_beta & 1 else q_total
        raise UnsupportedReduction(
            "operator does not conserve the parities required for two-qubit "
            f"reduction (letter {'XY'[int(z[bad[0]]) >> q & 1]} on qubit {q})"
        )
    # A frozen Z is its eigenvalue; the total parity (n_elec) is even.
    v = np.where(np.bitwise_count(z & (n_elec // 2 % 2) << q_beta), -v, v)
    low, kept = (1 << q_beta) - 1, (1 << n) - 1 - frozen
    x, z = ((m & low) | (m & kept) >> (q_beta + 1) << q_beta for m in (x, z))
    x, z, v = _collect(x, z, v)
    keep = np.abs(v) > COEFF_CUTOFF
    return _mask_operator(n - 2, x[keep], z[keep], v[keep])
