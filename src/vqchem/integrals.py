"""Electron-integral ingestion, model builders, and mean-field references.

The package works with spatial-orbital integrals in chemists' notation:
``int1e[p, q] = h_pq`` and ``int2e[p, q, r, s] = (pq|rs)``, both in Hartree.
Mean-field quantities (:func:`hf_energy`, :func:`orbital_energies`,
:func:`mp2`) assume the integrals are expressed in canonical molecular
orbitals with the lowest ``n_elec/2`` spatial orbitals doubly occupied.
For site-basis model Hamiltonians (:func:`build_hubbard`), run
:func:`canonicalize_integrals` first if those references are needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateOrbitals,
    InvalidActiveSpace,
    InvalidModel,
    ParseError,
    UnsupportedOpenShell,
)
from .operators import FermionOperator

_SYMMETRY_TOL = 1e-10
_DEGENERACY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class IntegralSet:
    """Spatial-orbital integrals plus the constant core energy."""

    n_orb: int
    n_elec: int
    int1e: np.ndarray
    int2e: np.ndarray
    e_core: float = 0.0
    source: str = ""

    def __post_init__(self):
        n = self.n_orb
        int1e = np.asarray(self.int1e, dtype=float)
        int2e = np.asarray(self.int2e, dtype=float)
        object.__setattr__(self, "int1e", int1e)
        object.__setattr__(self, "int2e", int2e)
        if int1e.shape != (n, n) or int2e.shape != (n, n, n, n):
            raise InvalidModel("integral array shapes inconsistent with n_orb")
        if not (np.isfinite(int1e).all() and np.isfinite(int2e).all()
                and np.isfinite(self.e_core)):
            raise InvalidModel("integrals and core energy must be finite")
        if self.n_elec % 2 != 0:
            raise UnsupportedOpenShell("only closed-shell electron counts supported")
        if not 0 <= self.n_elec <= 2 * n:
            raise InvalidModel(f"n_elec={self.n_elec} impossible for {n} orbitals")
        if np.max(np.abs(int1e - int1e.T)) > _SYMMETRY_TOL:
            raise InvalidModel("int1e not symmetric")
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.max(np.abs(int2e - int2e.transpose(perm))) > _SYMMETRY_TOL:
                raise InvalidModel("int2e lacks 8-fold permutational symmetry")

    @property
    def n_occ(self) -> int:
        return self.n_elec // 2


@dataclass(frozen=True)
class MP2Result:
    t2: np.ndarray
    e_corr: float
    orbital_energies: np.ndarray


@dataclass(frozen=True)
class ActiveSpaceResult:
    reduced: IntegralSet
    frozen_orbitals: tuple[int, ...]
    v_eff: np.ndarray


_HEADER_INT = {
    "NORB": re.compile(r"NORB\s*=\s*(\d+)", re.IGNORECASE),
    "NELEC": re.compile(r"NELEC\s*=\s*(\d+)", re.IGNORECASE),
    "MS2": re.compile(r"MS2\s*=\s*(-?\d+)", re.IGNORECASE),
}


def parse_fcidump(text: str | bytes) -> IntegralSet:
    """Parse FCIDUMP text (1-based indices, chemists' notation).

    Accepts Fortran-style floats (``1.0D-3``).  Entries are filled with their
    8-fold symmetric partners; missing entries are zero.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    lines = text.splitlines()
    header_end = None
    for i, line in enumerate(lines):
        if "&END" in line.upper() or line.strip() == "/":
            header_end = i
            break
    if header_end is None:
        raise ParseError("no &END terminating the FCIDUMP header")
    header = " ".join(lines[: header_end + 1])
    if not header.lstrip().upper().startswith("&FCI"):
        raise ParseError("FCIDUMP header must start with &FCI")
    values = {}
    for key, rx in _HEADER_INT.items():
        m = rx.search(header)
        if m is None:
            raise ParseError(f"FCIDUMP header missing {key}")
        values[key] = int(m.group(1))
    if values["MS2"] != 0:
        raise UnsupportedOpenShell("only MS2=0 (closed shell) FCIDUMP supported")
    n = values["NORB"]
    if n < 1:
        raise ParseError("NORB must be >= 1")
    n_elec = values["NELEC"]
    if n_elec % 2 != 0:
        raise UnsupportedOpenShell("odd NELEC implies an open shell")
    if n_elec > 2 * n:
        raise ParseError(f"NELEC={n_elec} exceeds capacity of NORB={n}")

    int1e = np.zeros((n, n))
    int2e = np.zeros((n, n, n, n))
    e_core = 0.0
    for lineno, raw in enumerate(lines[header_end + 1:], start=header_end + 2):
        line = raw.strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 5:
            raise ParseError(f"line {lineno}: expected 'value i j k l'")
        try:
            v = float(toks[0].upper().replace("D", "E"))
            i, j, k, l = (int(t) for t in toks[1:])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-numeric field") from exc
        for idx in (i, j, k, l):
            if idx < 0 or idx > n:
                raise ParseError(f"line {lineno}: index {idx} out of range 1..{n}")
        if i == j == k == l == 0:
            e_core = v
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise ParseError(f"line {lineno}: one-electron entry needs i,j >= 1")
            int1e[i - 1, j - 1] = int1e[j - 1, i - 1] = v
        elif i and j and k and l:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b, c, d in (
                (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
            ):
                int2e[a, b, c, d] = v
        else:
            raise ParseError(f"line {lineno}: inconsistent zero indices")
    return IntegralSet(n, n_elec, int1e, int2e, e_core, source="fcidump")


def load_fcidump(path: str | Path) -> IntegralSet:
    return parse_fcidump(Path(path).read_text())


def write_fcidump(s: IntegralSet) -> str:
    """Render an IntegralSet as FCIDUMP text (8-fold-unique entries only)."""
    n = s.n_orb
    lines = [f"&FCI NORB={n},NELEC={s.n_elec},MS2=0,"]
    lines.append(" ORBSYM=" + ",".join(["1"] * n) + ",")
    lines.append(" ISYM=1,")
    lines.append("&END")

    def pair_rank(i, j):
        return i * (i + 1) // 2 + j

    for i in range(n):
        for j in range(i + 1):
            for k in range(n):
                for l in range(k + 1):
                    if pair_rank(i, j) < pair_rank(k, l):
                        continue
                    v = s.int2e[i, j, k, l]
                    if abs(v) > 1e-14:
                        lines.append(
                            f"{v:23.16e} {i+1:4d} {j+1:4d} {k+1:4d} {l+1:4d}"
                        )
    for i in range(n):
        for j in range(i + 1):
            v = s.int1e[i, j]
            if abs(v) > 1e-14:
                lines.append(f"{v:23.16e} {i+1:4d} {j+1:4d} {0:4d} {0:4d}")
    lines.append(f"{s.e_core:23.16e} {0:4d} {0:4d} {0:4d} {0:4d}")
    return "\n".join(lines) + "\n"


def fixture_path(name: str) -> Path:
    """Path of a bundled FCIDUMP fixture, e.g. ``h2_sto3g``."""
    if not name.endswith(".fcidump"):
        name = name + ".fcidump"
    return Path(str(resources.files("vqchem") / "data" / name))


def build_hubbard(n_sites: int, t: float, u: float,
                  periodic: bool = False) -> IntegralSet:
    """One-dimensional Hubbard model at half filling, site basis."""
    if n_sites < 2:
        raise InvalidModel("Hubbard chain needs at least 2 sites")
    int1e = np.zeros((n_sites, n_sites))
    int2e = np.zeros((n_sites,) * 4)
    for i in range(n_sites - 1):
        int1e[i, i + 1] = int1e[i + 1, i] = -t
    if periodic:
        int1e[0, n_sites - 1] += -t
        int1e[n_sites - 1, 0] += -t
    for i in range(n_sites):
        int2e[i, i, i, i] = u
    return IntegralSet(n_sites, n_sites, int1e, int2e, 0.0, source="hubbard")


def canonicalize_integrals(s: IntegralSet) -> IntegralSet:
    """Rotate to the orbital basis diagonalizing int1e (ascending eigenvalues).

    Makes site-basis model integrals compatible with the canonical-MO
    assumption of :func:`hf_energy` / :func:`mp2`.  FCI results are invariant
    under this rotation.
    """
    _, c = np.linalg.eigh(s.int1e)
    int1e = c.T @ s.int1e @ c
    int2e = np.einsum("pqrs,pi,qj,rk,sl->ijkl", s.int2e, c, c, c, c, optimize=True)
    return IntegralSet(s.n_orb, s.n_elec, int1e, int2e, s.e_core,
                       source=s.source + "+canonical")


def build_fermion_hamiltonian(s: IntegralSet) -> FermionOperator:
    """Second-quantized spin-orbital Hamiltonian.

    Beta spin-orbitals sit at 0..N-1, alpha at N..2N-1.  Two-body terms are
    emitted once per ordered pair of creation/annihilation index pairs
    (P<Q, R<S) with the antisymmetrized coefficient, so no normal ordering is
    ever needed downstream.
    """
    n = s.n_orb
    n_so = 2 * n
    terms: dict = {}
    if s.e_core != 0.0:
        terms[()] = s.e_core

    def spatial(p_so: int) -> int:
        return p_so - n if p_so >= n else p_so

    def spin(p_so: int) -> int:
        return 1 if p_so >= n else 0

    for sector in (0, n):
        for p in range(n):
            for q in range(n):
                v = s.int1e[p, q]
                if abs(v) > 1e-12:
                    terms[((sector + p, True), (sector + q, False))] = v

    # <PQ|RS> in physicists' notation from chemists' (pr|qs), spin-diagonal.
    def phys(P, Q, R, S):
        if spin(P) != spin(R) or spin(Q) != spin(S):
            return 0.0
        return s.int2e[spatial(P), spatial(R), spatial(Q), spatial(S)]

    for P in range(n_so):
        for Q in range(P + 1, n_so):
            for R in range(n_so):
                for S in range(R + 1, n_so):
                    w = -(phys(P, Q, R, S) - phys(P, Q, S, R))
                    if abs(w) > 1e-12:
                        terms[((P, True), (Q, True), (R, False), (S, False))] = w
    return FermionOperator(n_so, terms)


def hf_energy(s: IntegralSet) -> float:
    occ = range(s.n_occ)
    e = 2.0 * sum(s.int1e[i, i] for i in occ)
    for i in occ:
        for j in occ:
            e += 2.0 * s.int2e[i, i, j, j] - s.int2e[i, j, j, i]
    return float(e + s.e_core)


def orbital_energies(s: IntegralSet) -> np.ndarray:
    occ = range(s.n_occ)
    eps = np.diag(s.int1e).astype(float).copy()
    for p in range(s.n_orb):
        for i in occ:
            eps[p] += 2.0 * s.int2e[p, p, i, i] - s.int2e[p, i, i, p]
    return eps


def mp2(s: IntegralSet) -> MP2Result:
    """MP2 amplitudes and correlation energy (canonical-MO assumption)."""
    no, n = s.n_occ, s.n_orb
    nv = n - no
    eps = orbital_energies(s)
    t2 = np.zeros((no, no, nv, nv))
    e_corr = 0.0
    for i in range(no):
        for j in range(no):
            for a in range(nv):
                for b in range(nv):
                    denom = eps[i] + eps[j] - eps[no + a] - eps[no + b]
                    if abs(denom) < _DEGENERACY_TOL:
                        raise DegenerateOrbitals(
                            f"vanishing MP2 denominator for i={i} j={j} "
                            f"a={no + a} b={no + b}"
                        )
                    iajb = s.int2e[i, no + a, j, no + b]
                    ibja = s.int2e[i, no + b, j, no + a]
                    t2[i, j, a, b] = iajb / denom
                    e_corr += iajb * (2.0 * iajb - ibja) / denom
    return MP2Result(t2=t2, e_corr=float(e_corr), orbital_energies=eps)


def active_space_reduce(s: IntegralSet, n_active_elec: int,
                        n_active_orb: int) -> ActiveSpaceResult:
    """Freeze the lowest orbitals into a mean-field potential + core energy.

    The frozen set is the lowest ``(n_elec - n_active_elec)/2`` spatial
    orbitals; the active window is the next ``n_active_orb``; anything above
    is discarded.
    """
    diff = s.n_elec - n_active_elec
    if diff < 0 or diff % 2 != 0:
        raise InvalidActiveSpace(
            f"cannot freeze {diff} electrons out of {s.n_elec}"
        )
    n_frozen = diff // 2
    if n_active_elec > 2 * n_active_orb:
        raise InvalidActiveSpace(
            f"{n_active_elec} electrons do not fit in {n_active_orb} orbitals"
        )
    if n_frozen + n_active_orb > s.n_orb:
        raise InvalidActiveSpace(
            f"window [{n_frozen}, {n_frozen + n_active_orb}) exceeds "
            f"n_orb={s.n_orb}"
        )
    frozen = tuple(range(n_frozen))
    act = slice(n_frozen, n_frozen + n_active_orb)

    v_eff = np.zeros((n_active_orb, n_active_orb))
    for m in frozen:
        v_eff += 2.0 * s.int2e[m, m, act, act] - s.int2e[m, act, act, m]
    e_core = s.e_core + 2.0 * sum(s.int1e[m, m] for m in frozen)
    for m in frozen:
        for k in frozen:
            e_core += 2.0 * s.int2e[m, m, k, k] - s.int2e[m, k, k, m]

    reduced = IntegralSet(
        n_active_orb,
        n_active_elec,
        s.int1e[act, act] + v_eff,
        s.int2e[act, act, act, act],
        float(e_core),
        source=s.source + f"+active({n_active_elec}e,{n_active_orb}o)",
    )
    return ActiveSpaceResult(reduced=reduced, frozen_orbitals=frozen, v_eff=v_eff)
