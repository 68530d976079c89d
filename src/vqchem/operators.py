"""Fermion and qubit operators, fermion-to-qubit mappings, and the action of
Pauli strings on basis states.

A :class:`FermionOperator` holds the terms the integrals produce and the
maps consume; it has no algebra.  Sums, products and simplification are
:class:`QubitOperator` arithmetic on the mapped images.

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
Gottesman, PRA 70, 052328).  A :class:`QubitOperator` is its (x, z, coeffs)
arrays; its letter ``terms`` are a read-only view derived from them.  One
rule serves maps, products and matrices: P(x1, z1) P(x2, z2) = i^k P(x, z),
x = x1 ^ x2, z = z1 ^ z2, k = |x1&z1| + |x2&z2| - |x&z| + 2|z1&x2| mod 4.
Over 64 qubits raise ``SizeLimit``.
The parity map is the Jordan-Wigner image in the prefix-parity basis
(:func:`parity_transform`; Seeley, Richard & Love, JCP 137, 224109).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Mapping

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
_CHUNK = 2**16  # entries of the (strings, 2^n) arrays of one mask_action


class FermionOperator:
    """Sum of ladder-operator products with coefficients, terms kept exactly
    as constructed, so the printed form of a Hamiltonian is stable."""

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
    """Sum of Pauli strings: the read-only arrays ``x``, ``z`` (uint64
    masks) and ``coeffs`` of its distinct strings, in order of first
    appearance.  ``terms``, keyed by sorted tuples of (qubit, letter), is a
    read-only view derived from them.  Arithmetic returns new operators;
    the view and the flip groups (:func:`_flip_groups`, which give H psi,
    the diagonal and the matrices) are built once."""

    __slots__ = ("n_qubits", "x", "z", "coeffs", "_flips", "_terms")

    def __init__(self, n_qubits: int,
                 terms: Mapping[PauliTerm, complex] | None = None):
        if n_qubits < 1:
            raise InvalidOperator("need at least one qubit")
        if n_qubits > 64:
            raise SizeLimit(f"{n_qubits} qubits exceed the 64-bit masks")
        terms = terms or {}
        for term in terms:
            for k, (q, letter) in enumerate(term):
                if not 0 <= q < n_qubits:
                    raise InvalidOperator(f"qubit {q} out of range")
                if letter not in ("X", "Y", "Z"):
                    raise InvalidOperator(f"bad Pauli letter {letter!r}")
                if q in (p for p, _ in term[:k]):
                    raise InvalidOperator(f"duplicate qubit {q} in term")
        xz = np.array([pauli_masks(n_qubits, t) for t in terms],
                      dtype=np.uint64).reshape(-1, 2)
        coeffs = np.fromiter(terms.values(), complex, len(terms))
        self._hold(n_qubits, *_collect(xz[:, 0], xz[:, 1], coeffs))

    def _hold(self, n: int, x, z, v) -> "QubitOperator":
        """Become sum_k v_k P(x_k, z_k) on ``n`` qubits: strings distinct,
        in array order, kept as read-only copies."""
        self.n_qubits, self._flips, self._terms = int(n), None, None
        self.x, self.z = np.array(x, np.uint64), np.array(z, np.uint64)
        self.coeffs = np.array(v, complex)
        for a in (self.x, self.z, self.coeffs):
            a.flags.writeable = False
        return self

    @property
    def terms(self) -> Mapping[PauliTerm, complex]:
        """{term: coeff} in array order, read-only; built on first read."""
        if self._terms is None:
            n, x, z = self.n_qubits, self.x[:, None], self.z[:, None]
            shift = np.arange(n - 1, -1, -1, dtype=np.uint64)  # qubit 0 first
            codes = (x >> shift & 1) | (z >> shift & 1) << 1
            letters = [(None, (q, "X"), (q, "Z"), (q, "Y")) for q in range(n)]
            keys = (tuple(letters[q][c] for q, c in enumerate(row) if c)
                    for row in codes.tolist())
            self._terms = MappingProxyType(dict(zip(keys,
                                                    self.coeffs.tolist())))
        return self._terms

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "QubitOperator":
        return cls(n_qubits, {(): coeff})

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        return _sum(self.n_qubits, (self, other))

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, QubitOperator):
            if self.n_qubits != other.n_qubits:
                raise InvalidOperator("operator size mismatch in multiply")
            a, b = self.coeffs, other.coeffs
            x, z, k = _pauli_product(self.x[:, None], self.z[:, None],
                                     other.x, other.z)
            ab = np.empty(x.shape, dtype=complex)  # Python's a*b: no FMA
            ab.real = a.real[:, None] * b.real - a.imag[:, None] * b.imag
            ab.imag = a.real[:, None] * b.imag + a.imag[:, None] * b.real
            return _pauli_sum(self.n_qubits, *_collect(
                x.ravel(), z.ravel(), (ab * _UNITS[k]).ravel()))
        return _pauli_sum(self.n_qubits, self.x, self.z, self.coeffs * other)

    __rmul__ = __mul__

    def simplify(self, tol: float = COEFF_CUTOFF) -> "QubitOperator":
        keep = np.abs(self.coeffs) > tol
        return _pauli_sum(self.n_qubits, self.x[keep], self.z[keep],
                          self.coeffs[keep])

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
        return f"QubitOperator(n_qubits={self.n_qubits}, n_terms={self.x.size})"


def _pauli_sum(n: int, x, z, v) -> QubitOperator:
    """The operator sum_k v_k P(x_k, z_k) of distinct strings."""
    return QubitOperator.__new__(QubitOperator)._hold(n, x, z, v)


def _sum(n: int, ops) -> QubitOperator:
    """The sum of operators on ``n`` qubits by one :func:`_collect`: the
    bits of adding them one at a time, left to right."""
    if any(op.n_qubits != n for op in ops):
        raise InvalidOperator("operator size mismatch in add")
    empty = np.zeros(0, np.uint64)
    parts = [(empty, empty, empty.astype(complex))]
    parts += [(op.x, op.z, op.coeffs) for op in ops]
    return _pauli_sum(n, *_collect(*map(np.concatenate, zip(*parts))))


def _format_coeff(c: complex) -> str:
    c = complex(c)
    if c.imag == 0.0:
        return repr(c.real)
    return repr(c)


def pauli_masks(n: int, term: PauliTerm) -> tuple[int, int]:
    """The (x, z) bit masks of the Pauli string ``term`` on ``n`` qubits."""
    return tuple(sum(1 << (n - 1 - q) for q, letter in term if letter != skip)
                 for skip in "ZX")  # X and Y set x; Y and Z set z


def _flip_groups(op: QubitOperator) -> tuple[np.ndarray, np.ndarray]:
    """(cols, d) of ``op``, built once.  Its strings are grouped by flip
    mask x_g, groups in order of first appearance and strings of a group
    added in term order.  Row g holds cols[g, i] = i ^ x_g and d[g, i] =
    <i|H|cols[g, i]>, so H psi = sum_g d[g] * psi[cols[g]].  d is real when
    every value is: 16 bytes (24 if complex) per basis state and group."""
    if op._flips is None:
        x, z, c = op.x.astype(np.int64), op.z, op.coeffs  # 2^n fits
        first, group = _groups(x)
        values = np.zeros((first.size, 1 << op.n_qubits), dtype=complex)
        # add.at adds in index order; chunks bound the (terms, 2^n) rows.
        # mask_action gives the phase by the column a string acts on.
        for at in np.array_split(np.arange(x.size),
                                 1 + x.size * values.shape[1] // 2**20):
            phase = mask_action(op.n_qubits, x[at, None], z[at, None])[1]
            np.add.at(values, group[at], c[at, None] * phase)
        cols = np.arange(values.shape[1]) ^ x[first, None]
        d = _real_if_exact(np.take_along_axis(values, cols, axis=1))
        cols.flags.writeable = d.flags.writeable = False
        op._flips = cols, d
    return op._flips


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a``, as a float64 copy when every imaginary part is exactly 0."""
    return a if a.imag.any() else a.real.copy()


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


def pauli_traces(n: int, x, z, m: np.ndarray) -> np.ndarray:
    """Tr(M P(x_k, z_k)) for the strings of mask arrays ``x``, ``z``: the sum
    over i of M[i, target_i] phase_i (:func:`mask_action`) for a 2^n square
    matrix M, and of conj(psi[target_i]) phase_i psi_i = <psi|P|psi> for a
    statevector psi (M = |psi><psi|), in chunks of about 2^16 entries."""
    rows, out = np.arange(m.shape[0]), []
    for at in np.array_split(np.arange(len(x)),
                             1 + len(x) * rows.size // _CHUNK):
        target, phase = mask_action(n, x[at, None], z[at, None])
        terms = (m[rows, target] * phase if m.ndim == 2
                 else np.conj(m[target]) * phase * m)
        out.append(terms.sum(axis=1))
    return np.concatenate(out)


@dataclass(frozen=True)
class _RotationRuns:
    """Rotations and permutations compiled by :func:`_fuse_runs`.  Member k
    is exp(-i theta_k P_k), theta_k = (angles[k] + params[slots[k]]) / 2
    (slot -1: the fixed angle alone) as for PAULI_ROT.  Run r holds members
    ``starts[r]:starts[r + 1]``, ``(-i P_r x)[i] = flips[r, i] x[target[i]]``
    and ``P_k = diag(signs[:, k]) P_r``.  ``steps`` are ``(target, r, end)``
    in order: run r, or x -> x[target] when r is None, and its last op.
    ``flips`` is float64 when every run's flip is exactly real, as for RY
    and any string with an odd number of Y; a program of such runs maps
    real vectors to real vectors."""

    starts: np.ndarray          # (n_runs + 1,)
    flips: np.ndarray           # (n_runs, dim), float64 if exactly real
    signs: np.ndarray           # (dim, n_members) int8 entries +-1
    slots: np.ndarray           # (n_members,)
    angles: np.ndarray          # (n_members,)
    steps: tuple

    def rotations(self, params) -> tuple[np.ndarray, np.ndarray]:
        """(cos Phi, sin Phi flips) of every run's diagonal angle
        Phi = sum_k theta_k signs[:, k], so run r maps x to
        cos[r] x + flip[r] x[target] (rows of length 1 if runs are single).
        Both are float64 when ``flips`` is."""
        theta = 0.5 * (self.angles + np.append(params, 0.0)[self.slots])
        if theta.size == len(self.flips):  # one member per run: Phi = theta
            phi = theta[:, None]
        else:
            phi = np.add.reduceat(self.signs * theta, self.starts[:-1],
                                  axis=1).T
        return np.cos(phi), np.sin(phi) * self.flips

    @functools.cached_property
    def plan(self) -> tuple:
        """``(lo, hi, target, columns)`` of every run, with Python int
        bounds, where ``-i P_k x = columns[k - lo] * x[target]``: the
        member signs times the run's flip, float64 when ``flips`` is."""
        b = self.starts.tolist()
        targets = [t for t, r, _ in self.steps if r is not None]
        return tuple((lo, hi, t, self.signs[:, lo:hi].T * f)
                     for lo, hi, t, f in zip(b, b[1:], targets, self.flips))


def _fuse_runs(n: int, ops) -> _RotationRuns:
    """Compile ``ops``, each a permutation (its target array) or a rotation
    ``(x, z, slot, angle, closes)`` about P(x, z).  A run is a maximal
    stretch of rotations whose strings P_k flip the same qubits as its first
    string P_r (equal x) and commute with it (|x & (z_k ^ z_r)| even).  Then
    D_k = P_k P_r is a diagonal +-1 matrix that commutes with P_r, so on
    every basis pair {i, i ^ x} P_k = d_k(i) P_r, the run's strings commute,
    and its product of rotations is exactly exp(-i Phi P_r) =
    cos(Phi) - i sin(Phi) P_r with the diagonal angle Phi = sum_k theta_k
    D_k; its derivative in theta_k is -i d_k P_r after the run.  The run
    keeps its flip f_r, -i P_r x = f_r * x[target], all runs' flips as
    float64 if every one is exactly real.  Any other string, a permutation
    or ``closes`` ends the run.  One :func:`mask_action` call gives the
    actions of a chunk of rotations, about ``_CHUNK`` entries of
    (rotations, 2^n) arrays."""
    xz = np.array([op[:2] for op in ops if not isinstance(op, np.ndarray)],
                  np.int64).reshape(-1, 2)
    per_call = max(1, _CHUNK >> n)
    chunks = (xz[lo:lo + per_call] for lo in range(0, len(xz), per_call))
    actions = chain.from_iterable(
        zip(*mask_action(n, c[:, :1], c[:, 1:])) for c in chunks)
    signs = np.ones((1 << n, len(xz)), np.int8)  # one column per member
    starts, flips, slots, angles, steps = [], [], [], [], []
    ref = None  # (x, z, phase) of the open run's first string
    for end, op in enumerate(ops):
        if isinstance(op, np.ndarray):
            steps.append((op, None, end))
            ref = None
            continue
        x, z, slot, angle, closes = op
        target, phase = next(actions)
        if (ref is not None and x == ref[0]
                and (x & (z ^ ref[1])).bit_count() % 2 == 0):
            # P_k P_r |i> = ratio_i |i>, real as the strings commute
            signs[:, len(slots)] = (phase * ref[2].conj()).real
            steps[-1] = steps[-1][:2] + (end,)
        else:
            starts.append(len(slots))
            # f = -i phase, which is Im(phase) when the Y count |x & z| is
            # odd (the phase is then +-i); copies: no chunk outlives us
            flips.append(phase.imag[target] if (x & z).bit_count() % 2
                         else -1j * phase[target])
            steps.append((target.copy(), len(flips) - 1, end))
            ref = (x, z, phase)
        slots.append(slot)
        angles.append(angle)
        ref = None if closes else ref
    return _RotationRuns(np.array(starts + [len(slots)]),
                         np.array(flips).reshape(-1, 1 << n),
                         signs, np.array(slots, np.intp),
                         np.array(angles, float), tuple(steps))


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


def _ladder_images(n: int) -> np.ndarray:
    """Jordan-Wigner masks [j, branch, (x, z)] of a_j = (P_j0 + i P_j1) / 2
    and a_j^dagger = (P_j0 - i P_j1) / 2, Z below bit j then X_j or Y_j."""
    return np.array([((1 << j, (1 << j) - 1), (1 << j, (2 << j) - 1))
                     for j in range(n)], dtype=np.uint64)


def _fermion_image(op: FermionOperator):
    """Masks and coefficients of the qubit image of ``op``, small ones
    dropped.  Terms of one length expand together, factor by factor; equal
    strings of a term are summed as they arise, then the terms' sums in
    term order.  Scaling by 1/2 and powers of i is exact, so that order
    alone fixes the bits.

    Equal strings arise only in terms that repeat a spin-orbital.  The two
    branches of a_j differ by Z_j, masks independent across distinct j, and
    every string of a term shares one x; so a factor whose spin-orbital is new
    to its term keeps the term's strings distinct.  The sum (:func:`_collect`)
    therefore runs only on terms with a repeat, after each factor that
    completes one; anywhere else it would return its input unchanged."""
    n = op.n_spin_orbitals
    if n > 64:
        raise SizeLimit(f"{n} spin-orbitals exceed the 64-bit Pauli masks")
    table = _ladder_images(n)
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
        idx = f[..., 0]  # repeats[t, k]: factor k repeats an earlier one
        repeats = np.tril(idx[:, :, None] == idx[:, None, :], -1).any(axis=2)
        for sub in (~repeats.any(axis=1), repeats.any(axis=1)):
            x = z = np.zeros(np.count_nonzero(sub), dtype=np.uint64)
            r, v = np.flatnonzero(sub), coeffs[rows[sub]]
            for k in range(length):
                img = table[f[r, k, 0]]
                x, z, ph = _pauli_product(x[:, None], z[:, None],
                                          img[..., 0], img[..., 1])
                # branch 1 carries +i/2 for a_j and -i/2 = i^3/2 for a_j^dagger
                ph = ph + (1 + 2 * f[r, k, 1, None]) * np.array([0, 1])
                v = 0.5 * v[:, None] * _UNITS[ph & 3]
                x, z, v, r = x.ravel(), z.ravel(), v.ravel(), np.repeat(r, 2)
                if repeats[r, k].any():
                    x, z, v, r = _collect(x, z, v, r)
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
    return _pauli_sum(op.n_spin_orbitals, *_fermion_image(op))


def parity_transform(op: FermionOperator, n_elec: int,
                     reduce_two_qubits: bool = False) -> QubitOperator:
    """Parity-basis fermion-to-qubit mapping, optionally dropping two qubits.

    Qubit ``n - 1 - j`` (mask bit ``j``) stores the occupation parity of
    spin-orbitals ``0..j``, where X_j flips bits j..n-1 and Z_j is Z_{j-1}
    Z_j: the Jordan-Wigner masks map to x' = x ^ x << 1 ^ ... (n bits) and
    z' = z ^ z >> 1, coefficients to v' = v i^(|x & z| - |x' & z'|).  If the
    operator conserves particle number and the beta-sector count, bit
    ``N/2 - 1`` (beta parity) and bit ``N - 1`` (total parity) are frozen at
    eigenvalues fixed by ``n_elec``, and ``reduce_two_qubits`` removes them.
    """
    n = op.n_spin_orbitals
    for bad, need in ((n_elec % 2, "even n_elec"),
                      (n % 2, "an even number of spin-orbitals"),
                      (n < 4, ">= 4 spin-orbitals")):
        if reduce_two_qubits and bad:
            raise UnsupportedReduction(f"two-qubit reduction needs {need}")
    x, z, v = _fermion_image(op)
    k = np.bitwise_count(x & z)
    for shift in (1, 2, 4, 8, 16, 32):  # prefix XOR over 64 bits
        x = x ^ x << shift
    x, z = x & (1 << n) - 1, z ^ z >> 1
    v = v * _UNITS[(k - np.bitwise_count(x & z)) & 3]
    if not reduce_two_qubits:
        return _pauli_sum(n, x, z, v)

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
    return _pauli_sum(n - 2, x[keep], z[keep], v[keep])
