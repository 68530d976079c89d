"""Variational quantum dynamics for vibronic models.

Pipeline: symbolic spin/boson Hamiltonians -> boson-level matrices ->
qubit encoding (unary, binary, or Gray code) -> layered Pauli-rotation
ansatz -> McLachlan equation of motion (M theta_dot = V with
M = Re(J^dagger J), V = Im(J^dagger H psi)) integrated with fixed-step
Euler or RK4, plus an eigendecomposition-based exact propagator for
reference trajectories.

The equation of motion is kept in factor form: with w the (n_params,
2 dim) float view of J's columns and b that of -i H psi, M = w w^T and
V = w b.  The regularized inverse f(M) V equals w f(w^T w) b (the
push-through identity), so each step diagonalizes the smaller of the
n_params-square M and the (2 dim)-square Gram matrix w^T w.

The ansatz is a :class:`vqchem.gates.Circuit` of one PAULI_ROT per
Hamiltonian string per layer, gate k on slot k.  A VHA factor
exp(-i theta P) is PAULI_ROT(P, 2 theta): the VHA angles are half the
circuit's parameters.  Its state and Jacobian come from one sweep over the
*runs* of its compiled steps (:func:`vqchem.gates._compile`): consecutive
rotations that flip the same qubits and commute are one exp(-i Phi P_r)
with a diagonal angle Phi, applied by one gather, and the Jacobian columns
of a run are -i d_k * (P_r psi) at the state after it.  The entry point
:func:`ansatz_state`, the state alone, has no caller in the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FitError,
    InvalidOperator,
    InvalidParams,
    InvalidSymbol,
    NumericalBlowup,
    SizeLimit,
)
from .gates import Circuit, Gate, _compile, _start_state, simulate_state
from .operators import QubitOperator, _RotationRuns, mask_action, pauli_masks

_EXACT_DIM_LIMIT = 1 << 12
_UNARY_NBAS_LIMIT = 16
_COEFF_CUTOFF = 1e-12
_DEFAULT_EPSILON_REG = 1e-5
# bytes of float arrays one recorded trajectory may take
_TRAJECTORY_BYTES = 1 << 30

_SPIN_LETTERS = {"sigma_x": "X", "sigma_z": "Z"}
_BOSON_SYMBOLS = ("b", "b^dagger", "b^dagger b", "b^dagger+b", "x", "p")

# text aliases: the canonical text form is whitespace-delimited, so the
# two-word symbol gets an underscore alias ("n" also accepted for b^dagger b)
_SYMBOL_ALIASES = {
    "b^dagger_b": "b^dagger b",
    "n": "b^dagger b",
}


# ---------------------------------------------------------------------------
# Model description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolicTerm:
    """Product of single-degree-of-freedom operators times a real
    coefficient; an empty factor list is an identity (constant) term."""

    factors: tuple
    coefficient: float

    def __post_init__(self):
        object.__setattr__(
            self, "factors",
            tuple((str(sym), str(dof)) for sym, dof in self.factors),
        )
        dofs = [dof for _, dof in self.factors]
        if len(set(dofs)) != len(dofs):
            raise InvalidParams(
                f"more than one factor on one degree of freedom: {dofs}"
            )
        for sym, _ in self.factors:
            if sym not in _SPIN_LETTERS and sym not in _BOSON_SYMBOLS:
                raise InvalidSymbol(f"unknown operator symbol {sym!r}")


@dataclass(frozen=True)
class BasisHalfSpin:
    dof: str


@dataclass(frozen=True)
class BasisSHO:
    dof: str
    omega: float
    nbas: int
    mass: float = 1.0

    def __post_init__(self):
        if self.nbas < 2:
            raise InvalidParams("harmonic-oscillator basis needs nbas >= 2")


def parse_symbolic_term(text: str) -> SymbolicTerm:
    toks = text.split()
    if not toks:
        raise InvalidParams("empty term text")
    try:
        coeff = float(toks[0])
    except ValueError as exc:
        raise InvalidParams(f"bad coefficient {toks[0]!r}") from exc
    if not math.isfinite(coeff):
        raise InvalidParams(f"coefficient {toks[0]!r} is not finite")
    factors = []
    for tok in toks[1:]:
        if "@" not in tok:
            raise InvalidParams(f"expected symbol@dof, got {tok!r}")
        sym, dof = tok.split("@", 1)
        sym = _SYMBOL_ALIASES.get(sym, sym)
        factors.append((sym, dof))
    return SymbolicTerm(tuple(factors), coeff)


# ---------------------------------------------------------------------------
# Level-space matrices
# ---------------------------------------------------------------------------

def boson_matrix(symbol: str, basis: BasisSHO) -> np.ndarray:
    """Harmonic-oscillator operator truncated to the lowest nbas levels;
    x = sqrt(1/(2 m omega)) (b^dagger + b), p = i sqrt(m omega / 2)
    (b^dagger - b)."""
    if not isinstance(basis, BasisSHO):
        raise InvalidSymbol("boson_matrix needs a harmonic-oscillator basis")
    n = basis.nbas
    lower = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        lower[k, k + 1] = math.sqrt(k + 1)
    raise_ = lower.conj().T
    if symbol == "b":
        return lower
    if symbol == "b^dagger":
        return raise_
    if symbol == "b^dagger b":
        return raise_ @ lower
    if symbol == "b^dagger+b":
        return raise_ + lower
    if symbol == "x":
        return math.sqrt(1.0 / (2.0 * basis.mass * basis.omega)) * (raise_ + lower)
    if symbol == "p":
        return 1.0j * math.sqrt(basis.mass * basis.omega / 2.0) * (raise_ - lower)
    raise InvalidSymbol(f"unknown boson symbol {symbol!r}")


def _spin_letter(symbol: str) -> str:
    if symbol not in _SPIN_LETTERS:
        raise InvalidSymbol(f"{symbol!r} is not a spin-1/2 operator")
    return _SPIN_LETTERS[symbol]


def _level_dims(basis) -> list:
    return [2 if isinstance(b, BasisHalfSpin) else b.nbas for b in basis]


# ---------------------------------------------------------------------------
# Qubit encodings
# ---------------------------------------------------------------------------

@dataclass
class EncodedHamiltonian:
    qubit_terms: QubitOperator
    constant: float
    qubit_layout: list          # ordered (dof, sub-qubit index) pairs
    basis: tuple
    encoding: str

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_layout)


def _gray_code(i: int) -> int:
    return i ^ (i >> 1)


def _register_width(basis_entry, encoding: str) -> int:
    if isinstance(basis_entry, BasisHalfSpin):
        return 1
    if encoding == "unary":
        if basis_entry.nbas > _UNARY_NBAS_LIMIT:
            raise SizeLimit(
                f"unary encoding capped at nbas={_UNARY_NBAS_LIMIT}"
            )
        return basis_entry.nbas
    return max(1, math.ceil(math.log2(basis_entry.nbas)))


def _level_codeword(basis_entry, encoding: str, level: int, width: int) -> int:
    """Qubit-register bit pattern (MSB first) representing a level."""
    if isinstance(basis_entry, BasisHalfSpin):
        return level
    if encoding == "unary":
        return 1 << (width - 1 - level)
    if encoding == "gray":
        return _gray_code(level)
    return level


def _expand_dense_to_paulis(mat: np.ndarray, width: int) -> dict:
    """Pauli coefficients Tr(P M) / 2^width of a 2^width matrix, with
    Tr(P M) = sum_i phase_i M[i, target_i] read off the masks of all 4^width
    strings at once (in chunks of about 2^20 entries)."""
    keys = [tuple((q, ch) for q, ch in enumerate(letters) if ch != "I")
            for letters in itertools.product("IXYZ", repeat=width)]
    x, z = np.array([pauli_masks(width, key) for key in keys]).T
    rows, coeffs = np.arange(1 << width), []
    for at in np.array_split(np.arange(x.size),
                             1 + x.size * rows.size // 2**20):
        target, phase = mask_action(width, x[at, None], z[at, None])
        coeffs.extend(np.sum(phase * mat[rows, target], axis=1) / (1 << width))
    return {key: c for key, c in zip(keys, coeffs)
            if abs(c) >= _COEFF_CUTOFF}


def _unary_local_paulis(mat: np.ndarray, width: int) -> dict:
    """One-hot register image valid on the single-excitation subspace:
    |i><i| -> (I - Z_i)/2 and |i><j| -> sigma^+_i sigma^-_j."""
    out: dict = {}

    def add(key, coeff):
        if abs(coeff) < _COEFF_CUTOFF:
            return
        out[key] = out.get(key, 0.0) + coeff

    n = mat.shape[0]
    for i in range(n):
        if abs(mat[i, i]) >= _COEFF_CUTOFF:
            add((), 0.5 * mat[i, i])
            add(((i, "Z"),), -0.5 * mat[i, i])
        for j in range(n):
            if i == j or abs(mat[i, j]) < _COEFF_CUTOFF:
                continue
            a, b = sorted((i, j))
            # sigma^+_i sigma^-_j = (X_i - iY_i)(X_j + iY_j)/4
            c = mat[i, j] / 4.0
            sgn_i = -1.0j  # Y coefficient on the raising qubit
            sgn_j = +1.0j  # Y coefficient on the lowering qubit
            for li, fi in (("X", 1.0), ("Y", sgn_i)):
                for lj, fj in (("X", 1.0), ("Y", sgn_j)):
                    pair = {i: li, j: lj}
                    key = tuple((q, pair[q]) for q in (a, b))
                    add(key, c * fi * fj)
    return {k: v for k, v in out.items() if abs(v) >= _COEFF_CUTOFF}


def _encode_factor(symbol: str, basis_entry, encoding: str, width: int) -> dict:
    """Local Pauli decomposition (term key -> coeff) over the register."""
    if isinstance(basis_entry, BasisHalfSpin):
        return {((0, _spin_letter(symbol)),): 1.0}
    mat = boson_matrix(symbol, basis_entry)
    if encoding == "unary":
        return _unary_local_paulis(mat, width)
    dim = 1 << width
    padded = np.zeros((dim, dim), dtype=complex)
    padded[:mat.shape[0], :mat.shape[1]] = mat
    if encoding == "gray":
        perm = np.array([_gray_code(i) for i in range(dim)])
        shuffled = np.zeros_like(padded)
        shuffled[np.ix_(perm, perm)] = padded
        padded = shuffled
    return _expand_dense_to_paulis(padded, width)


def qubit_encode(terms, basis, encoding: str = "gray") -> EncodedHamiltonian:
    """Map symbolic spin/boson terms onto Pauli strings.  Spin-1/2 degrees
    of freedom take one qubit; an nbas-level oscillator takes ceil(log2 nbas)
    qubits (binary/gray, levels padded to the next power of two) or nbas
    qubits (unary, valid on the one-hot subspace).  Identity components are
    split off into the returned constant."""
    if encoding not in ("unary", "binary", "gray"):
        raise InvalidParams(f"unknown encoding {encoding!r}")
    dof_index = {b.dof: i for i, b in enumerate(basis)}
    if len(dof_index) != len(basis):
        raise InvalidParams("duplicate degree-of-freedom names")
    widths = [_register_width(b, encoding) for b in basis]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    n_qubits = int(offsets[-1])
    layout = [(b.dof, j) for b, w in zip(basis, widths) for j in range(w)]

    accum: dict = {}
    for term in terms:
        for _, dof in term.factors:
            if dof not in dof_index:
                raise InvalidParams(f"unknown degree of freedom {dof!r}")
        # product over disjoint registers: merge keys, multiply coefficients
        partial = {(): complex(term.coefficient)}
        for sym, dof in term.factors:
            i = dof_index[dof]
            local = _encode_factor(sym, basis[i], encoding, widths[i])
            nxt: dict = {}
            for key0, c0 in partial.items():
                for key1, c1 in local.items():
                    shifted = tuple((int(offsets[i]) + q, ch) for q, ch in key1)
                    merged = tuple(sorted(key0 + shifted))
                    nxt[merged] = nxt.get(merged, 0.0) + c0 * c1
            partial = nxt
        for key, coeff in partial.items():
            accum[key] = accum.get(key, 0.0) + coeff

    constant = 0.0
    clean: dict = {}
    for key, coeff in accum.items():
        if abs(coeff.imag) > 1e-10:
            raise InvalidOperator(
                f"non-Hermitian encoded coefficient {coeff} for {key}"
            )
        c = float(coeff.real)
        if abs(c) < _COEFF_CUTOFF:
            continue
        if not key:
            constant += c
        else:
            clean[key] = c
    return EncodedHamiltonian(
        qubit_terms=QubitOperator(n_qubits, clean),
        constant=constant,
        qubit_layout=layout,
        basis=tuple(basis),
        encoding=encoding,
    )


def _codeword_index(enc: EncodedHamiltonian, levels) -> int:
    """Global qubit basis index for a tuple of per-dof levels."""
    widths = [_register_width(b, enc.encoding) for b in enc.basis]
    idx = 0
    for b, w, lv in zip(enc.basis, widths, levels):
        idx = (idx << w) | _level_codeword(b, enc.encoding, int(lv), w)
    return idx


def encode_state(enc: EncodedHamiltonian, level_vector) -> np.ndarray:
    """Embed a level-basis vector (tensor product over the basis list, row
    major) into the qubit register space."""
    dims = _level_dims(enc.basis)
    level_vector = np.asarray(level_vector, dtype=complex).ravel()
    if level_vector.size != int(np.prod(dims)):
        raise InvalidParams(
            f"level vector size {level_vector.size} != product of dims {dims}"
        )
    out = np.zeros(1 << enc.n_qubits, dtype=complex)
    for flat, levels in enumerate(np.ndindex(*dims)):
        out[_codeword_index(enc, levels)] = level_vector[flat]
    return out


# ---------------------------------------------------------------------------
# Variational Hamiltonian ansatz
# ---------------------------------------------------------------------------

def build_vha(enc: EncodedHamiltonian, n_layers: int,
              initial_state) -> Circuit:
    """One PAULI_ROT per Hamiltonian Pauli string (in key order) per layer,
    gate k on slot k; theta = 0 gives the initial state.  ``initial_state``
    may be a basis index, a bit string, or a qubit-space vector (use
    :func:`encode_state` first for level-space vectors)."""
    if n_layers < 1:
        raise InvalidParams("n_layers must be >= 1")
    if isinstance(initial_state, str):
        if len(initial_state) != enc.n_qubits or set(initial_state) - {"0", "1"}:
            raise InvalidParams(f"bad basis label {initial_state!r}")
        initial_state = int(initial_state, 2)
    layer = sorted(enc.qubit_terms.terms)
    gates = [Gate("PAULI_ROT", tuple(q for q, _ in term), param_slot=k,
                  pauli="".join(ch for _, ch in term))
             for k, term in enumerate(layer * n_layers)]
    return Circuit(enc.n_qubits, gates, len(gates), initial_state)


def _state_and_jacobian(circuit: Circuit, theta, runs: _RotationRuns):
    """psi and d psi / d theta at VHA angles theta from the steps ``runs``:
    row 0 of the buffer is psi and row k + 1 is d psi / d theta_k.  Each run
    rotates psi and the rows built so far by exp(-i Phi P_r), then writes
    its own rows -i P_k psi, so gate k must be the one rotation on slot k:
    a permutation step (X, CNOT), a fixed angle or a shared slot is
    refused."""
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != circuit.n_params:
        raise InvalidParams(
            f"ansatz has {circuit.n_params} parameters, got {theta.size}"
        )
    if (len(runs.plan) < len(runs.steps)
            or not np.array_equal(runs.slots, np.arange(theta.size))):
        raise InvalidParams("the Jacobian sweep needs gate k to be the one "
                            "rotation on slot k, with no X or CNOT")
    cos, flip = runs.rotations(2.0 * theta)
    buf = np.zeros((theta.size + 1, 1 << circuit.n_qubits), dtype=complex)
    buf[0] = _start_state(circuit)
    for r, (lo, hi, target, columns) in enumerate(runs.plan):
        live = buf[:lo + 1]
        flipped = live.take(target, axis=1)
        flipped *= flip[r]
        live *= cos[r]
        live += flipped
        np.multiply(columns, buf[0].take(target), out=buf[lo + 1:hi + 1])
    return buf[0], buf[1:].T


def ansatz_state(circuit: Circuit, theta) -> np.ndarray:
    """The VHA state at angles theta: the circuit at parameters 2 theta."""
    return simulate_state(circuit, 2.0 * np.asarray(theta, dtype=float))


# ---------------------------------------------------------------------------
# McLachlan equation of motion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EOMSystem:
    """McLachlan's equation M theta_dot = V in factor form: row k of ``w``
    is d psi / d theta_k as interleaved (re, im) floats and ``b`` is
    -i H psi the same way, so that M = w w^T and V = w b."""

    w: np.ndarray               # (n_params, 2 dim)
    b: np.ndarray               # (2 dim,)
    epsilon_reg: float = _DEFAULT_EPSILON_REG

    @property
    def M(self) -> np.ndarray:
        """Re(J^dagger J)."""
        return self.w @ self.w.T

    @property
    def V(self) -> np.ndarray:
        """Im(J^dagger H psi)."""
        return self.w @ self.b


def assemble_eom(jac: np.ndarray, state: np.ndarray, h_dense: np.ndarray,
                 epsilon_reg: float = _DEFAULT_EPSILON_REG) -> EOMSystem:
    """The factors of M = Re(J^dagger J) and V = Im(J^dagger H psi): the
    float views of J's columns (the sweep's row buffer, not copied) and of
    -i H psi, since Re(conj(x) y) is the dot product of the two views."""
    rows = np.ascontiguousarray(jac.T, dtype=complex)
    return EOMSystem(w=rows.view(float),
                     b=(-1.0j * (h_dense @ state)).view(float),
                     epsilon_reg=epsilon_reg)


def solve_thetadot(sys: EOMSystem) -> np.ndarray:
    """theta_dot = f(M) V with f(lam) = 1 / (lam + eps exp(-lam / eps)),
    which leaves large eigenvalues of M untouched and floors small ones at
    eps.  M = w w^T has rank at most 2 dim, and the push-through identity
    f(w w^T) w = w f(w^T w) gives theta_dot = w f(w^T w) b, so the one
    eigendecomposition is of whichever Gram matrix is smaller.  On the
    w^T w side theta_dot is w times a vector, so it has no component along
    null(J), the null space of w^T."""
    w, eps = sys.w, sys.epsilon_reg
    gram_side = w.shape[1] < w.shape[0]
    lam, vecs = np.linalg.eigh(w.T @ w if gram_side else w @ w.T)
    f = 1.0 / (lam + eps * np.exp(np.minimum(-lam / eps, 700.0)))
    if gram_side:
        return w @ (vecs @ (f * (sys.b @ vecs)))
    return vecs @ (f * ((w @ sys.b) @ vecs))


@dataclass
class Trajectory:
    times: np.ndarray
    thetas: np.ndarray           # (n_steps + 1, n_params)
    observables: dict            # name -> array over times
    energies: np.ndarray

    def observable(self, name: str) -> np.ndarray:
        return self.observables[name]


def trajectory_to_csv(traj: Trajectory) -> str:
    names = list(traj.observables)
    header = (["t"] + [f"theta_{k}" for k in range(traj.thetas.shape[1])]
              + [f"obs_{name}" for name in names] + ["energy"])
    lines = [",".join(header)]
    for i, t in enumerate(traj.times):
        row = [f"{t:.10g}"]
        row += [f"{x:.12g}" for x in traj.thetas[i]]
        row += [f"{traj.observables[name][i]:.12g}" for name in names]
        row.append(f"{traj.energies[i]:.12g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _observable_value(psi: np.ndarray, obs: np.ndarray) -> float:
    return float((psi.conj() @ (obs @ psi)).real)


def time_grid(t_final: float, tau: float, floats_per_point: int) -> np.ndarray:
    """Times 0, tau, ..., n tau with n = round(t_final / tau), checked before
    anything is allocated: tau must be finite and positive, t_final finite
    and non-negative, and the trajectory of ``floats_per_point`` floats per
    time must fit in ``_TRAJECTORY_BYTES``."""
    tau, t_final = float(tau), float(t_final)
    if not (math.isfinite(tau) and tau > 0.0):
        raise InvalidParams(f"step size tau must be finite and positive, "
                            f"got {tau!r}")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise InvalidParams(f"t_final must be finite and non-negative, "
                            f"got {t_final!r}")
    max_points = _TRAJECTORY_BYTES // (8 * floats_per_point)
    n_steps = t_final / tau
    if n_steps >= max_points - 1:
        raise SizeLimit(
            f"t_final / tau = {n_steps:.3g} steps: a trajectory of more than "
            f"{max_points} points would exceed {_TRAJECTORY_BYTES >> 20} MB"
        )
    return np.arange(int(round(n_steps)) + 1) * tau


def time_evolve(enc: EncodedHamiltonian, ansatz: Circuit, theta0,
                t_final: float, tau: float, integrator: str = "rk4",
                observables: dict | None = None,
                epsilon_reg: float = _DEFAULT_EPSILON_REG) -> Trajectory:
    """Integrate theta_dot = M^{-1} V with fixed steps; the Hamiltonian the
    state evolves under is the encoded Pauli part (the scalar constant only
    shifts the global phase).  The circuit is compiled once.  Each recorded
    state is the one the step's first derivative evaluation already built;
    only the last point takes a state-only pass."""
    if integrator not in ("euler", "rk4"):
        raise InvalidParams(f"unknown integrator {integrator!r}")
    epsilon_reg = float(epsilon_reg)
    if not (math.isfinite(epsilon_reg) and epsilon_reg > 0.0):
        raise InvalidParams(f"epsilon_reg must be finite and positive, "
                            f"got {epsilon_reg!r}")
    observables = observables or {}
    theta = np.asarray(theta0, dtype=float).ravel().copy()
    times = time_grid(t_final, tau, ansatz.n_params + len(observables) + 2)
    n_steps = times.size - 1
    h_dense = enc.qubit_terms.to_dense_matrix()
    runs = _compile(ansatz, None)
    obs_dense = {name: (o.to_dense_matrix() if isinstance(o, QubitOperator)
                        else np.asarray(o, dtype=complex))
                 for name, o in observables.items()}

    def derivative(theta):
        psi, jac = _state_and_jacobian(ansatz, theta, runs)
        sys = assemble_eom(jac, psi, h_dense, epsilon_reg)
        return solve_thetadot(sys), psi

    thetas = np.zeros((n_steps + 1, theta.size))
    obs_out = {name: np.zeros(n_steps + 1) for name in obs_dense}
    energies = np.zeros(n_steps + 1)

    def record(i, th, psi):
        thetas[i] = th
        for name, mat in obs_dense.items():
            obs_out[name][i] = _observable_value(psi, mat)
        energies[i] = _observable_value(psi, h_dense) + enc.constant

    for step in range(n_steps):
        k1, psi = derivative(theta)
        record(step, theta, psi)
        if integrator == "euler":
            theta = theta + tau * k1
        else:
            k2 = derivative(theta + 0.5 * tau * k1)[0]
            k3 = derivative(theta + 0.5 * tau * k2)[0]
            k4 = derivative(theta + tau * k3)[0]
            theta = theta + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(theta)):
            raise NumericalBlowup(f"non-finite parameters at step {step + 1}")
    record(n_steps, theta, simulate_state(ansatz, 2.0 * theta, runs))
    return Trajectory(times=times, thetas=thetas, observables=obs_out,
                      energies=energies)


def exact_propagate(h_dense: np.ndarray, psi0, t_grid) -> np.ndarray:
    """States e^{-iHt} psi0 on a time grid via eigendecomposition."""
    h_dense = np.asarray(h_dense, dtype=complex)
    if h_dense.shape[0] > _EXACT_DIM_LIMIT:
        raise SizeLimit(
            f"exact propagation capped at dimension {_EXACT_DIM_LIMIT}"
        )
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    lam, vecs = np.linalg.eigh(h_dense)
    coeffs = vecs.conj().T @ psi0
    t_grid = np.asarray(t_grid, dtype=float)
    phases = np.exp(-1.0j * np.outer(t_grid, lam))
    return (vecs @ (phases * coeffs).T).T


# ---------------------------------------------------------------------------
# Physical models
# ---------------------------------------------------------------------------

def _check_finite(**params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise InvalidParams(f"model parameter {name} must be finite, "
                                f"got {value}")


def spin_boson_model(epsilon: float, delta: float, omega: float, g: float,
                     nbas: int):
    """H = (epsilon/2) sigma_z + delta sigma_x + omega b^dagger b
    + g sigma_z (b^dagger + b); returns (terms, basis)."""
    _check_finite(epsilon=epsilon, delta=delta, omega=omega, g=g)
    terms = [
        SymbolicTerm((("sigma_z", "spin"),), epsilon / 2.0),
        SymbolicTerm((("sigma_x", "spin"),), delta),
        SymbolicTerm((("b^dagger b", "boson"),), omega),
        SymbolicTerm((("sigma_z", "spin"), ("b^dagger+b", "boson")), g),
    ]
    basis = [BasisHalfSpin("spin"), BasisSHO("boson", omega=omega, nbas=nbas)]
    return terms, basis


def coherent_state(alpha: float, nbas: int) -> np.ndarray:
    """Coherent state truncated to nbas levels and renormalized."""
    amps = np.empty(nbas)
    amps[0] = 1.0
    for n in range(1, nbas):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps / np.linalg.norm(amps)


def marcus_model(v: float, dg: float, omega: float, g: float, nbas: int):
    """Two-site charge transfer in the one-charge sector: the charge becomes
    one qubit (|0> = charge on site 0, hopping = -v sigma_x), each site gets
    its own oscillator with occupation-coupled displacement g*omega(b^dagger
    + b), so the reorganization energy is 2 g^2 omega.  Returns (terms,
    basis, initial level-space vector); the initial state localizes the
    charge on site 0 with its oscillator relaxed (coherent state, displacement
    -g) and the other oscillator in its ground state."""
    _check_finite(v=v, dg=dg, omega=omega, g=g)
    c = g * omega
    terms = [
        SymbolicTerm((("sigma_x", "charge"),), -v),
        SymbolicTerm((), dg / 2.0),
        SymbolicTerm((("sigma_z", "charge"),), -dg / 2.0),
        SymbolicTerm((("b^dagger b", "boson0"),), omega),
        SymbolicTerm((("b^dagger b", "boson1"),), omega),
        SymbolicTerm((("b^dagger+b", "boson0"),), c / 2.0),
        SymbolicTerm((("sigma_z", "charge"), ("b^dagger+b", "boson0")), c / 2.0),
        SymbolicTerm((("b^dagger+b", "boson1"),), c / 2.0),
        SymbolicTerm((("sigma_z", "charge"), ("b^dagger+b", "boson1")), -c / 2.0),
    ]
    basis = [
        BasisHalfSpin("charge"),
        BasisSHO("boson0", omega=omega, nbas=nbas),
        BasisSHO("boson1", omega=omega, nbas=nbas),
    ]
    charge0 = np.array([1.0, 0.0])
    boson0 = coherent_state(-g, nbas)
    boson1 = coherent_state(0.0, nbas)
    initial = np.kron(np.kron(charge0, boson0), boson1).astype(complex)
    return terms, basis, initial


def marcus_rate_theory(v: float, lambda_: float, dg: float,
                       beta: float) -> float:
    """k = v^2 sqrt(pi beta / lambda) exp(-beta (lambda + dg)^2 / (4 lambda))
    (hbar = 1); maximal over dg at dg = -lambda."""
    if lambda_ <= 0 or beta <= 0:
        raise InvalidParams("lambda and beta must be positive")
    return (v * v * math.sqrt(math.pi * beta / lambda_)
            * math.exp(-beta * (lambda_ + dg) ** 2 / (4.0 * lambda_)))


def rate_fit(times, values, t_window=(2.0, 8.0)) -> float:
    """Negated least-squares slope of a population trace inside the window."""
    times = np.asarray(times, dtype=float).ravel()
    values = np.asarray(values, dtype=float).ravel()
    lo, hi = t_window
    mask = (times >= lo) & (times <= hi)
    if int(mask.sum()) < 3:
        raise FitError(
            f"need at least 3 samples in the window [{lo}, {hi}]"
        )
    t_sel = times[mask]
    if np.ptp(t_sel) < 1e-12:
        raise FitError("degenerate time window")
    slope = np.polyfit(t_sel, values[mask], 1)[0]
    return float(-slope)
