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
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Mapping

import numpy as np
from scipy.sparse import csr_matrix

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

# Single-qubit products: (left, right) -> (phase, result letter).
_PAULI_PRODUCT = {
    ("X", "X"): (1, "I"), ("Y", "Y"): (1, "I"), ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}


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
    ones, and the compiled matrix of :meth:`to_sparse_matrix` is kept.
    """

    __slots__ = ("n_qubits", "terms", "_sparse")

    def __init__(self, n_qubits: int,
                 terms: Mapping[PauliTerm, complex] | None = None):
        if n_qubits < 1:
            raise InvalidOperator("need at least one qubit")
        self.n_qubits = int(n_qubits)
        self._sparse: csr_matrix | None = None
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
            return QubitOperator(self.n_qubits,
                                 _term_dict_product(self.terms, other.terms))
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

    def to_sparse_matrix(self) -> csr_matrix:
        """Sparse 2^n x 2^n matrix; qubit 0 is the most significant factor.

        Compiled once from the Pauli-string actions.  Strings that flip the
        same qubits share one set of matrix positions, so the matrix stores
        2^n entries per flip pattern.
        """
        if self._sparse is None:
            dim = 1 << self.n_qubits
            cols = np.arange(dim)
            values: dict[int, np.ndarray] = {}
            for term, c in self.terms.items():
                target, phase = pauli_action(self.n_qubits, term)
                flip = int(target[0])  # target_i = i XOR flip
                values[flip] = values.get(flip, 0.0) + c * phase
            flips = np.fromiter(values, dtype=np.int64, count=len(values))
            self._sparse = csr_matrix(
                (np.array(list(values.values()), dtype=complex).ravel(),
                 ((cols[None, :] ^ flips[:, None]).ravel(),
                  np.tile(cols, len(values)))),
                shape=(dim, dim),
            )
            self._sparse.eliminate_zeros()
        return self._sparse

    def to_dense_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix; qubit 0 is the most significant factor."""
        if self.n_qubits > 14:
            raise SizeLimit(
                f"dense matrix for {self.n_qubits} qubits exceeds the guard (14)"
            )
        return self.to_sparse_matrix().toarray()

    def format_text(self) -> str:
        """One term per line: ``coeff X0 Y2 Z3`` (bare coeff = identity)."""
        lines = []
        for term, c in self.terms.items():
            ops = " ".join(f"{letter}{q}" for q, letter in term)
            lines.append(f"{_format_coeff(c)} {ops}".rstrip())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"QubitOperator(n_qubits={self.n_qubits}, n_terms={len(self.terms)})"


# Each cached action holds 24 * 2^n bytes: the 1024 entries hold at most
# 24 MB at the 10-qubit density-matrix limit.
_PAULI_ACTION_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_PAULI_ACTION_CACHE_SIZE)
def pauli_action(n: int, term: PauliTerm) -> tuple[np.ndarray, np.ndarray]:
    """P|i> = phase_i |target_i> over all 2^n basis states i, for the Pauli
    string ``term`` on ``n`` qubits (qubit 0 is the most significant bit).
    The returned arrays are cached and read-only."""
    idx = np.arange(1 << n)
    target = idx.copy()
    phase = np.ones(1 << n, dtype=complex)
    for q, letter in term:
        pos = n - 1 - q
        bit = (idx >> pos) & 1
        if letter == "X":
            target ^= 1 << pos
        elif letter == "Y":
            target ^= 1 << pos
            phase = phase * (1.0j * (1.0 - 2.0 * bit))
        else:  # Z
            phase = phase * (1.0 - 2.0 * bit)
    target.flags.writeable = False
    phase.flags.writeable = False
    return target, phase


def apply_pauli(n: int, term: PauliTerm, x: np.ndarray) -> np.ndarray:
    """P x for the Pauli string ``term`` on ``n`` qubits, where ``x`` is a
    statevector or a matrix whose rows are basis states (P acts on each
    column)."""
    target, phase = pauli_action(n, term)
    out = np.empty_like(x)
    out[target] = phase * x if x.ndim == 1 else phase[:, None] * x
    return out


def pauli_rotation(n: int, term: PauliTerm, angle: float,
                   x: np.ndarray) -> np.ndarray:
    """exp(-i angle P) x = cos(angle) x - i sin(angle) P x (using P^2 = I),
    with ``x`` a statevector or a matrix of columns as in
    :func:`apply_pauli`.  No matrix of the rotation is formed."""
    return (math.cos(angle) * x
            - 1.0j * math.sin(angle) * apply_pauli(n, term, x))


def _format_coeff(c: complex) -> str:
    c = complex(c)
    if c.imag == 0.0:
        return repr(c.real)
    return repr(c)


def _pauli_term_product(ta: PauliTerm, tb: PauliTerm) -> tuple[complex, PauliTerm]:
    letters = dict(ta)
    phase: complex = 1.0
    for q, lb in tb:
        la = letters.get(q)
        if la is None:
            letters[q] = lb
        else:
            ph, res = _PAULI_PRODUCT.get((la, lb), (1, "I"))
            phase *= ph
            if res == "I":
                del letters[q]
            else:
                letters[q] = res
    return phase, tuple(sorted(letters.items()))


def _term_dict_product(a: dict, b: dict) -> dict:
    """Product of two Pauli sums given as term dicts, terms collected."""
    out: dict[PauliTerm, complex] = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            phase, term = _pauli_term_product(ta, tb)
            out[term] = out.get(term, 0.0) + ca * cb * phase
    return out


def _reverse_qubit_labels(op: QubitOperator) -> QubitOperator:
    n = op.n_qubits
    out: dict[PauliTerm, complex] = {}
    for term, c in op.terms.items():
        new = tuple(sorted((n - 1 - q, letter) for q, letter in term))
        out[new] = out.get(new, 0.0) + c
    return QubitOperator(n, out)


def _map_terms(op: FermionOperator, ladder) -> QubitOperator:
    """Sum over the terms of ``op`` of the product of the qubit images
    ``ladder(n, index, dagger)`` of their factors, collected in one dict."""
    n = op.n_spin_orbitals
    images = {f: ladder(n, *f).terms for f in {f for t in op.terms for f in t}}
    out: dict[PauliTerm, complex] = {}
    for term, coeff in op.terms.items():
        acc = {(): coeff}
        for factor in term:
            acc = _term_dict_product(acc, images[factor])
        for key, c in acc.items():
            out[key] = out.get(key, 0.0) + c
    return QubitOperator(n, out)


def _jw_ladder(n: int, index: int, dagger: bool) -> QubitOperator:
    """JW image of one ladder operator in orbital-indexed qubit labels."""
    z_tail = tuple((l, "Z") for l in range(index))
    sign = -1j if dagger else 1j
    return QubitOperator(n, {
        z_tail + ((index, "X"),): 0.5,
        z_tail + ((index, "Y"),): sign * 0.5,
    })


def jordan_wigner(op: FermionOperator) -> QubitOperator:
    """Map a FermionOperator to qubits via the Jordan-Wigner transformation.

    Occupation of spin-orbital ``j`` lands on qubit ``n - 1 - j`` so that HF
    bitstrings read highest spin-orbital first (e.g. 0101 for two electrons
    in two spatial orbitals).
    """
    out = _map_terms(op, _jw_ladder).simplify()
    return _reverse_qubit_labels(out).simplify()


def _parity_ladder(n: int, index: int, dagger: bool) -> QubitOperator:
    """Parity-basis image of one ladder operator, orbital-indexed labels."""
    x_tail = tuple((l, "X") for l in range(index + 1, n))
    sign = -1j if dagger else 1j
    if index == 0:
        local = {((0, "X"),) + x_tail: 0.5, ((0, "Y"),) + x_tail: sign * 0.5}
    else:
        local = {
            ((index - 1, "Z"), (index, "X")) + x_tail: 0.5,
            ((index, "Y"),) + x_tail: sign * 0.5,
        }
    return QubitOperator(n, local)


def parity_transform(op: FermionOperator, n_elec: int,
                     reduce_two_qubits: bool = False) -> QubitOperator:
    """Parity-basis fermion-to-qubit mapping, optionally dropping two qubits.

    Qubit ``j`` (orbital-indexed, before the final label reversal) stores the
    cumulative occupation parity of spin-orbitals ``0..j``.  When the operator
    conserves particle number and the beta-sector count, qubit ``N/2 - 1``
    (beta parity) and qubit ``N - 1`` (total parity) are frozen at eigenvalues
    fixed by ``n_elec``, and ``reduce_two_qubits`` removes them.
    """
    n = op.n_spin_orbitals
    out = _map_terms(op, _parity_ladder).simplify()
    if not reduce_two_qubits:
        return _reverse_qubit_labels(out).simplify()

    if n_elec % 2 != 0:
        raise UnsupportedReduction("two-qubit reduction needs even n_elec")
    if n % 2 != 0:
        raise UnsupportedReduction("two-qubit reduction needs an even number "
                                   "of spin-orbitals")
    if n < 4:
        raise UnsupportedReduction("two-qubit reduction needs >= 4 spin-orbitals")
    q_beta, q_total = n // 2 - 1, n - 1
    z_beta = -1.0 if (n_elec // 2) % 2 else 1.0
    z_total = -1.0 if n_elec % 2 else 1.0
    reduced: dict[PauliTerm, complex] = {}
    for term, c in out.terms.items():
        letters = dict(term)
        for q, eig in ((q_beta, z_beta), (q_total, z_total)):
            letter = letters.pop(q, None)
            if letter == "Z":
                c = c * eig
            elif letter is not None:
                raise UnsupportedReduction(
                    "operator does not conserve the parities required for "
                    f"two-qubit reduction (letter {letter} on qubit {q})"
                )
        new = tuple(sorted(
            (q if q < q_beta else q - 1, letter)
            for q, letter in letters.items()
        ))
        reduced[new] = reduced.get(new, 0.0) + c
    return _reverse_qubit_labels(QubitOperator(n - 2, reduced)).simplify()


def hartree_fock_bitstring(n_orb: int, n_elec: int) -> str:
    """Bitstring (qubit 0 first) of the closed-shell HF determinant."""
    n_occ = n_elec // 2
    occupied = set(range(n_occ)) | {n_orb + i for i in range(n_occ)}
    n_qubits = 2 * n_orb
    return "".join(
        "1" if (n_qubits - 1 - q) in occupied else "0" for q in range(n_qubits)
    )
