"""Gate-level quantum circuit simulation: ideal statevectors, noisy density
matrices with Kraus channels applied as superoperators, shot sampling,
parameter-shift gradients, and a hardware-efficient-ansatz optimizer.

Qubit 0 is the most significant bit of a basis-state index, as in
:mod:`vqchem.operators`.  Exact expectation values read the operator's
compiled flip groups (:func:`vqchem.operators._flip_groups`), one gather
of psi or of rho's entries each; sampled ones read every string's action
off its masks, uncached
(:func:`vqchem.operators.mask_action`).  :func:`hea_kernel` drives exact
objectives with the numpy L-BFGS-B driver of :func:`vqchem.vqe.kernel`, one
circuit pass per evaluation, and sampled ones (``shots``) with the numpy
SPSA of :func:`vqchem.vqe._minimize_spsa`, two circuit passes per
iteration.  The rotation convention is RY(theta) = exp(-i*theta*Y/2) and
PAULI_ROT(P, theta) = exp(-i*theta*P/2), so RY is the rotation about the
one-letter string "Y"; both are applied by
:func:`vqchem.operators.pauli_rotation` as cos x - i sin P x, with P x a
flip of the ``(2,) * n`` view of the state (axes reversed, slices negated),
without a rotation matrix or an index array.  X and CNOT are flips of the
same view, so every unitary gate has one kernel; only the noise channels
multiply a (super)operator matrix onto the axes they touch.

With this convention the parameter-shift rule
dE/dtheta = [E(theta + pi/2) - E(theta - pi/2)] / 2
defines the gradient.  (Stated for a generator R with R^2 = -I and
U = e^{theta R}, the same rule uses shifts of pi/4 in theta; R = -iY/2
rescales the angle by 2, which is where the pi/2 comes from.)  It is not
evaluated as 2P shifted circuits: one reverse pass through the statevector,
or through the density matrix and the adjoint channels, gives the same
value and the energy with it (see :func:`parameter_shift_gradient`).  A
parameter slot may drive several gates; its derivative is the sum of theirs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidChannel,
    InvalidOperator,
    InvalidParams,
    InvalidProbability,
    ParseError,
    SizeLimit,
)
from .operators import (
    _PAULI_MATS,
    QubitOperator,
    _flip_groups,
    _masks,
    apply_operator,
    apply_pauli,
    mask_action,
    pauli_rotation,
)
from .vqe import _minimize_lbfgs, _minimize_spsa

_DENSITY_QUBIT_LIMIT = 10
_GATE_KINDS = ("X", "RY", "CNOT", "PAULI_ROT")


# ---------------------------------------------------------------------------
# Circuit structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """One gate: fixed (X, CNOT), or a rotation whose angle either lives in
    ``angle`` or is looked up from the parameter vector via ``param_slot``."""

    kind: str
    qubits: tuple
    param_slot: int | None = None
    angle: float | None = None
    pauli: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.kind not in _GATE_KINDS:
            raise InvalidParams(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise InvalidParams(f"repeated qubit in {self}")
        arity = {"X": 1, "RY": 1, "CNOT": 2}.get(self.kind)
        if arity is not None and len(self.qubits) != arity:
            raise InvalidParams(f"{self.kind} acts on {arity} qubit(s)")
        if self.kind in ("RY", "PAULI_ROT"):
            if (self.param_slot is None) == (self.angle is None):
                raise InvalidParams(
                    f"{self.kind} needs exactly one of param_slot or angle"
                )
        elif self.param_slot is not None or self.angle is not None:
            raise InvalidParams(f"{self.kind} takes no angle")
        if self.kind == "PAULI_ROT":
            if (self.pauli is None or len(self.pauli) != len(self.qubits)
                    or any(ch not in "XYZ" for ch in self.pauli)):
                raise InvalidParams(
                    "PAULI_ROT needs a Pauli letter per qubit"
                )
        elif self.pauli is not None:
            raise InvalidParams(f"{self.kind} takes no Pauli string")


@dataclass
class Circuit:
    n_qubits: int
    gates: list
    n_params: int = 0

    def __post_init__(self):
        for g in self.gates:
            if any(not 0 <= q < self.n_qubits for q in g.qubits):
                raise InvalidParams(f"gate {g} outside {self.n_qubits} qubits")
            if g.param_slot is not None and not 0 <= g.param_slot < self.n_params:
                raise InvalidParams(
                    f"param slot {g.param_slot} outside 0..{self.n_params - 1}"
                )


def circuit_to_text(c: Circuit) -> str:
    """One gate per line: ``X q1``, ``CNOT q0 q1``, ``RY q0 slot3`` (or a
    numeric angle), ``PAULI_ROT XY q0 q2 slot1``."""
    lines = []
    for g in c.gates:
        qubits = " ".join(f"q{q}" for q in g.qubits)
        if g.kind in ("X", "CNOT"):
            lines.append(f"{g.kind} {qubits}")
            continue
        tail = (f"slot{g.param_slot}" if g.param_slot is not None
                else repr(float(g.angle)))
        if g.kind == "PAULI_ROT":
            lines.append(f"PAULI_ROT {g.pauli} {qubits} {tail}")
        else:
            lines.append(f"{g.kind} {qubits} {tail}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str, n_qubits: int | None = None,
                      n_params: int | None = None) -> Circuit:
    gates = []
    max_q = -1
    max_slot = -1

    def parse_qubit(tok, lineno):
        if not tok.startswith("q"):
            raise ParseError(f"line {lineno}: expected qubit token, got {tok!r}")
        try:
            return int(tok[1:])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad qubit {tok!r}") from exc

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        kind = toks[0].upper()
        slot = None
        angle = None
        pauli = None
        if kind in ("X", "CNOT"):
            qubits = [parse_qubit(t, lineno) for t in toks[1:]]
        elif kind in ("RY", "PAULI_ROT"):
            body = toks[1:]
            if kind == "PAULI_ROT":
                if not body:
                    raise ParseError(f"line {lineno}: missing Pauli string")
                pauli = body[0].upper()
                body = body[1:]
            if not body:
                raise ParseError(f"line {lineno}: incomplete gate")
            tail = body[-1]
            qubits = [parse_qubit(t, lineno) for t in body[:-1]]
            try:
                if tail.startswith("slot"):
                    slot = int(tail[4:])
                else:
                    angle = float(tail)
            except ValueError as exc:
                raise ParseError(
                    f"line {lineno}: expected slotN or angle, got {tail!r}"
                ) from exc
            if angle is not None and not math.isfinite(angle):
                raise ParseError(f"line {lineno}: angle {tail!r} is not finite")
        else:
            raise ParseError(f"line {lineno}: unknown gate {kind!r}")
        gates.append(Gate(kind, tuple(qubits), param_slot=slot, angle=angle,
                          pauli=pauli))
        max_q = max(max_q, *qubits)
        if slot is not None:
            max_slot = max(max_slot, slot)
    return Circuit(
        n_qubits=n_qubits if n_qubits is not None else max_q + 1,
        gates=gates,
        n_params=n_params if n_params is not None else max_slot + 1,
    )


def build_ry_ansatz(n_qubits: int, n_layers: int) -> Circuit:
    """An initial Y-rotation layer, then ``n_layers`` repetitions of a CNOT
    ladder (control j, target j+1, ascending) followed by another rotation
    layer; (n_layers+1)*n_qubits parameters."""
    if n_layers < 0:
        raise InvalidParams("n_layers must be >= 0")
    gates = []
    slot = 0
    for q in range(n_qubits):
        gates.append(Gate("RY", (q,), param_slot=slot))
        slot += 1
    for _ in range(n_layers):
        for q in range(n_qubits - 1):
            gates.append(Gate("CNOT", (q, q + 1)))
        for q in range(n_qubits):
            gates.append(Gate("RY", (q,), param_slot=slot))
            slot += 1
    return Circuit(n_qubits=n_qubits, gates=gates, n_params=slot)


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Kraus channels attached to gate kinds, applied right after every gate
    of that kind as the superoperator sum K (x) conj(K) in ``superops``."""

    channels: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for kind, kraus in self.channels.items():
            if kind not in _GATE_KINDS:
                raise InvalidChannel(f"noise on unknown gate kind {kind!r}")
            clean[kind] = _validate_kraus([np.asarray(k, dtype=complex)
                                           for k in kraus])
        object.__setattr__(self, "channels", clean)
        object.__setattr__(self, "superops", {
            kind: sum(np.kron(k, k.conj()) for k in kraus)
            for kind, kraus in clean.items()})


def _validate_kraus(kraus) -> list:
    if not kraus:
        raise InvalidChannel("empty Kraus list")
    dim = kraus[0].shape[0] if kraus[0].ndim == 2 else None
    if dim not in (2, 4):
        raise InvalidChannel(
            f"Kraus operators must be 2x2 or 4x4, got {kraus[0].shape}")
    total = np.zeros((dim, dim), dtype=complex)
    for k in kraus:
        if k.shape != (dim, dim):
            raise InvalidChannel("Kraus operators differ in shape")
        if not np.all(np.isfinite(k)):
            raise InvalidChannel("Kraus operator has non-finite entries")
        total += k.conj().T @ k
    if np.max(np.abs(total - np.eye(dim))) > 1e-10:
        raise InvalidChannel("channel is not trace preserving")
    return list(kraus)


def depolarizing_channel(p: float, n_qubits: int) -> list:
    """Isotropic depolarizing channel: sqrt(1-p) I plus sqrt(p/15) times each
    of the 15 non-identity two-qubit Paulis (p/3 and 3 Paulis for one qubit).
    Average gate fidelity 1 - 4p/5 for the two-qubit form."""
    if not 0.0 <= p <= 1.0:
        raise InvalidProbability(f"p={p} outside [0, 1]")
    if n_qubits == 1:
        paulis = [_PAULI_MATS[ch] for ch in "XYZ"]
        weight = p / 3.0
        identity = np.eye(2, dtype=complex)
    elif n_qubits == 2:
        paulis = [
            np.kron(_PAULI_MATS[a], _PAULI_MATS[b])
            for a in "IXYZ" for b in "IXYZ"
            if not (a == "I" and b == "I")
        ]
        weight = p / 15.0
        identity = np.eye(4, dtype=complex)
    else:
        raise InvalidChannel("depolarizing channel defined for 1 or 2 qubits")
    return [math.sqrt(1.0 - p) * identity] + [
        math.sqrt(weight) * pauli for pauli in paulis
    ]


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _generator(g: Gate):
    """Pauli term P of a rotation gate exp(-i theta P / 2) (RY is the
    rotation about "Y"); None for the fixed gates X and CNOT."""
    if g.kind == "RY":
        return ((g.qubits[0], "Y"),)
    if g.kind == "PAULI_ROT":
        return tuple(sorted(zip(g.qubits, g.pauli)))
    return None


def _apply_gate(x: np.ndarray, g: Gate, params, n: int,
                inverse: bool = False) -> np.ndarray:
    """The gate (or its inverse) applied to a statevector, or to the rows
    of a 2^n x m matrix, as a flip on their ``(2,) * n`` view: X is the
    Pauli string "X", and CNOT copies x with the control = 1 slice replaced
    by its target-axis flip.  X and CNOT are their own inverses."""
    if g.kind == "X":
        return apply_pauli(n, ((g.qubits[0], "X"),), x)
    if g.kind == "CNOT":
        t = x.reshape((2,) * n + x.shape[1:])
        ones = [slice(None)] * n
        ones[g.qubits[0]] = 1
        flip = ones.copy()
        flip[g.qubits[1]] = slice(None, None, -1)
        out = t.copy(order="K")
        out[tuple(ones)] = t[tuple(flip)]
        return out.reshape(x.shape)
    term = _generator(g)
    theta = float(params[g.param_slot]) if g.param_slot is not None else g.angle
    return pauli_rotation(n, term, (-0.5 if inverse else 0.5) * theta, x)


def _conjugate(rho: np.ndarray, g: Gate, params, n: int,
               inverse: bool = False) -> np.ndarray:
    """U rho U^dagger (U^dagger rho U with ``inverse``) for Hermitian rho."""
    once = _apply_gate(rho, g, params, n, inverse)
    return _apply_gate(once.conj().T, g, params, n, inverse)


def simulate_state(c: Circuit, params) -> np.ndarray:
    """Apply the circuit to |0...0>; returns the final statevector."""
    params = _check_circuit_params(c, params)
    psi = np.zeros(2 ** c.n_qubits, dtype=complex)
    psi[0] = 1.0
    for g in c.gates:
        psi = _apply_gate(psi, g, params, c.n_qubits)
    return psi


@dataclass
class DensityMatrix:
    n_qubits: int
    matrix: np.ndarray

    def validate(self, psd_tol: float = 1e-9) -> "DensityMatrix":
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise InvalidChannel("density matrix lost Hermiticity")
        if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
            raise InvalidChannel("density matrix trace drifted from 1")
        if np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)) < -psd_tol:
            raise InvalidChannel("density matrix lost positivity")
        return self


def _check_circuit_params(c: Circuit, params) -> np.ndarray:
    params = np.asarray([] if params is None else params, dtype=float).ravel()
    if params.size != c.n_params:
        raise InvalidParams(
            f"circuit has {c.n_params} parameters, got {params.size}"
        )
    if not np.all(np.isfinite(params)):
        raise InvalidParams("parameters must be finite")
    return params


def _apply_channel_density(rho: np.ndarray, superop: np.ndarray, qubits,
                           n: int) -> np.ndarray:
    """S on rho read as a 2n-qubit tensor: the ket axes ``qubits`` and the
    bra axes ``n + q`` move to the front, S multiplies them as one matrix,
    and they move back.  Only channels take this matrix product; unitary
    gates are flips (:func:`_apply_gate`)."""
    axes = tuple(qubits) + tuple(n + q for q in qubits)
    t = np.moveaxis(rho.reshape((2,) * 2 * n), axes, range(len(axes)))
    out = (superop @ t.reshape(superop.shape[0], -1)).reshape(t.shape)
    return np.moveaxis(out, range(len(axes)), axes).reshape(rho.shape)


def _apply_noise(rho: np.ndarray, g: Gate, superops: dict,
                 n: int) -> np.ndarray:
    """The channel bound to the gate's kind, if any, applied to rho."""
    superop = superops.get(g.kind)
    if superop is None:
        return rho
    if superop.shape[0] != 4 ** len(g.qubits):
        raise InvalidChannel(
            f"channel dimension {math.isqrt(superop.shape[0])} does not "
            f"match {g.kind} arity"
        )
    return _apply_channel_density(rho, superop, g.qubits, n)


def _initial_density(c: Circuit) -> np.ndarray:
    if c.n_qubits > _DENSITY_QUBIT_LIMIT:
        raise SizeLimit(
            f"density simulation capped at {_DENSITY_QUBIT_LIMIT} qubits"
        )
    dim = 2 ** c.n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def simulate_density(c: Circuit, params, noise: NoiseModel | None) -> DensityMatrix:
    """Apply the circuit to |0><0| with each gate followed by its noise
    channel (if the model binds one to that gate kind)."""
    rho = _initial_density(c)
    params = _check_circuit_params(c, params)
    superops = {} if noise is None else noise.superops
    for g in c.gates:
        rho = _conjugate(rho, g, params, c.n_qubits)
        rho = _apply_noise(rho, g, superops, c.n_qubits)
    return DensityMatrix(c.n_qubits, rho)


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------

def _as_matrix(state_or_rho):
    if isinstance(state_or_rho, DensityMatrix):
        return state_or_rho.matrix, True
    arr = np.asarray(state_or_rho)
    if arr.ndim == 1:
        return arr, False
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return arr, True
    raise InvalidOperator("expected a statevector or a square density matrix")


def _term_expectations(arr, is_rho: bool, h: QubitOperator) -> dict:
    """{term: Re <P>} for the strings of ``h``, from their masks in chunks
    of about 2^16 entries; Tr(rho P) = sum_i rho[i, target_i] phase_i."""
    x, z, _ = _masks(h)
    rows, out = np.arange(arr.shape[0]), []
    for at in np.array_split(np.arange(x.size),
                             1 + x.size * rows.size // 2**16):
        target, phase = mask_action(h.n_qubits, x[at, None], z[at, None])
        terms = (arr[rows, target] if is_rho else np.conj(arr[target])) * phase
        if not is_rho:
            terms *= arr
        out.extend(terms.sum(axis=1).real)
    return dict(zip(h.terms, out))


def expectation(state_or_rho, h: QubitOperator) -> float:
    """<psi|H|psi> or Tr(rho H); the imaginary residue must vanish."""
    arr, is_rho = _as_matrix(state_or_rho)
    n = h.n_qubits
    if arr.shape[0] != 1 << n:
        raise InvalidOperator(
            f"operator on {n} qubits against state of dimension {arr.shape[0]}"
        )
    if is_rho:  # Tr(rho H) = sum_gi H[i, cols[g, i]] rho[cols[g, i], i]
        cols, d = _flip_groups(h)
        return _real_energy(complex((arr[cols, np.arange(1 << n)] * d).sum()))
    return _real_energy(complex(np.vdot(arr, apply_operator(h, arr))))


def _real_energy(total: complex) -> float:
    """The real part of an energy; the imaginary residue must vanish."""
    if abs(total.imag) > 1e-9:
        raise InvalidOperator(
            f"expectation value has imaginary part {total.imag:.2e}; "
            "is the operator Hermitian?"
        )
    return float(total.real)


def sampled_expectation(state_or_rho, h: QubitOperator, shots_per_term: int,
                        seed: int = 0) -> float:
    """Estimate each Pauli term from a finite number of measurement shots:
    the exact expectation e gives outcome probabilities (1 +/- e)/2, and the
    estimate is 2k/shots - 1 with k binomial.  The identity term is exact."""
    if shots_per_term < 1:
        raise InvalidParams("shots_per_term must be >= 1")
    arr, is_rho = _as_matrix(state_or_rho)
    if arr.shape[0] != 1 << h.n_qubits:
        raise InvalidOperator("state size does not match operator")
    exact = _term_expectations(arr, is_rho, h)
    rng = np.random.default_rng(seed)
    total = 0.0
    for term, coeff in sorted(h.terms.items()):
        e = exact[term] if term else (
            np.trace(arr) if is_rho else np.vdot(arr, arr)).real
        if not term:
            total += coeff.real * e
            continue
        e = min(1.0, max(-1.0, e))
        k = rng.binomial(shots_per_term, (1.0 + e) / 2.0)
        total += coeff.real * (2.0 * k / shots_per_term - 1.0)
    return float(total)


# ---------------------------------------------------------------------------
# Gradients and optimization
# ---------------------------------------------------------------------------

def parameter_shift_gradient(c: Circuit, params, h: QubitOperator,
                             noise: NoiseModel | None = None) -> np.ndarray:
    """The parameter-shift gradient
    dE/dtheta_j = [E(theta_j + pi/2) - E(theta_j - pi/2)] / 2, exact for
    RY/PAULI_ROT generators, computed by one reverse pass instead of 2P
    circuit evaluations: through the statevector without ``noise``, through
    the density matrix and the adjoint channels with it.  A slot that drives
    several gates gets the sum of their shift-rule values, which is the
    exact derivative."""
    return _energy_and_gradient(c, params, h, noise)[1]


def _energy_and_gradient(c: Circuit, params, h: QubitOperator,
                         noise: NoiseModel | None):
    """(energy, gradient) of the circuit from one reverse pass."""
    params = _check_circuit_params(c, params)
    if h.n_qubits != c.n_qubits:
        raise InvalidOperator(
            f"operator on {h.n_qubits} qubits against a "
            f"{c.n_qubits}-qubit circuit"
        )
    if noise is None:
        return _state_gradient(c, params, h)
    return _density_gradient(c, params, h, noise.superops)


def _state_gradient(c: Circuit, params, h: QubitOperator):
    """Adjoint differentiation (Jones & Gacon, arXiv:2009.02823): with
    lambda = H psi carried back through the circuit next to psi, a rotation
    exp(-i theta P / 2) contributes dE/dtheta = Im <lambda|P|psi>, both read
    right after the gate.  The energy is <psi|lambda> before the walk
    back."""
    n = c.n_qubits
    psi = simulate_state(c, params)
    lam = apply_operator(h, psi)
    e = _real_energy(complex(np.vdot(psi, lam)))
    grad = np.zeros(c.n_params)
    for g in reversed(c.gates):
        if g.param_slot is not None:
            grad[g.param_slot] += np.vdot(
                lam, apply_pauli(n, _generator(g), psi)).imag
        psi = _apply_gate(psi, g, params, n, inverse=True)
        lam = _apply_gate(lam, g, params, n, inverse=True)
    return e, grad


# Bytes of the states that the density-matrix reverse pass keeps.
_ADJOINT_STATE_BYTES = 64 << 20


def _density_gradient(c: Circuit, params, h: QubitOperator, superops: dict):
    """The same reverse pass in the Heisenberg picture.  Walking back from
    O = H, each gate first takes its channel's adjoint M = S^dagger(O), the
    superoperator's conjugate transpose; a rotation then contributes
    dE/dtheta = Im Tr(M P sigma), with sigma = U rho U^dagger the state
    right after the rotation (before its channel); finally O = U^dagger M U.
    The energy is the expectation of the final rho of the forward pass.

    The forward pass keeps sigma at every ``stride``-th parametrised gate,
    with ``stride`` the smallest that fits the kept states into
    ``_ADJOINT_STATE_BYTES`` (1 unless the circuit is large); the states in
    between are replayed from the nearest kept one when the reverse pass
    reaches them."""
    n = c.n_qubits
    rho = _initial_density(c)
    grad = np.zeros(c.n_params)
    marks = [k for k, g in enumerate(c.gates) if g.param_slot is not None]
    stride = max(1, -(-len(marks) * (16 << 2 * n) // _ADJOINT_STATE_BYTES))
    kept = dict.fromkeys(marks[::stride])
    for k, g in enumerate(c.gates):
        rho = _conjugate(rho, g, params, n)
        if k in kept:
            kept[k] = rho
        rho = _apply_noise(rho, g, superops, n)
    e = expectation(rho, h)
    if not marks:
        return e, grad

    def sigma_at(k):
        i = marks.index(k)
        start = marks[i - i % stride]
        sigma = kept[start]
        for j in range(start + 1, k + 1):
            sigma = _apply_noise(sigma, c.gates[j - 1], superops, n)
            sigma = _conjugate(sigma, c.gates[j], params, n)
        return sigma

    adjoint = {kind: s.conj().T for kind, s in superops.items()}
    obs = h.to_dense_matrix()
    for k in reversed(range(len(c.gates))):
        g = c.gates[k]
        obs = _apply_noise(obs, g, adjoint, n)
        if g.param_slot is not None:
            grad[g.param_slot] += np.vdot(
                obs, apply_pauli(n, _generator(g), sigma_at(k))).imag
        obs = _conjugate(obs, g, params, n, inverse=True)
    return e, grad


def hea_kernel(c: Circuit, init_params, h: QubitOperator,
               noise: NoiseModel | None = None, shots: int | None = None,
               seed: int = 0):
    """Optimize the circuit energy.  Without ``shots`` the numpy L-BFGS-B
    driver of :func:`vqchem.vqe.kernel` (the unconstrained path of
    L-BFGS-B, see :func:`vqchem.vqe._minimize_lbfgs`) takes the energy and
    gradient of each evaluation from one reverse pass (see
    :func:`parameter_shift_gradient`; shared slots sum their gates'
    contributions) and reports convergence at its gradient tolerance.  With
    ``shots`` the objective is sampled, evaluation k with seed ``seed + k``,
    and SPSA (:func:`vqchem.vqe._minimize_spsa`) minimizes it."""
    init_params = _check_circuit_params(c, init_params)
    if shots is None:
        return _minimize_lbfgs(
            lambda x: _energy_and_gradient(c, x, h, noise), init_params)
    seeds = itertools.count(seed + 1)

    def objective(x):
        state = (simulate_state(c, x) if noise is None
                 else simulate_density(c, x, noise).matrix)
        return sampled_expectation(state, h, shots, seed=next(seeds))

    return _minimize_spsa(objective, init_params, seed)


# ---------------------------------------------------------------------------
# UCC factor compilation
# ---------------------------------------------------------------------------

def compile_ucc_trotter(problem, params) -> Circuit:
    """Compile a UCC problem at fixed parameters into X gates (reference
    preparation) followed by Pauli rotations.

    Each factor e^{theta G} JW-maps to a product of commuting Pauli
    rotations (the strings of one excitation's image commute), so the
    compiled circuit reproduces the determinant-space state exactly.
    """
    from .operators import FermionOperator, jordan_wigner

    s = problem.integrals
    n_orb = s.n_orb
    n_qubits = 2 * n_orb
    if n_qubits > 12:
        raise SizeLimit("UCC compilation capped at 12 qubits")
    params = np.asarray(params, dtype=float).ravel()
    if params.size != problem.n_params:
        raise InvalidParams(
            f"expected {problem.n_params} parameters, got {params.size}"
        )
    gates = []
    n_occ = s.n_elec // 2
    occupied = list(range(n_occ)) + [n_orb + i for i in range(n_occ)]
    for so in occupied:
        gates.append(Gate("X", (n_qubits - 1 - so,)))
    for ex, pid in zip(problem.ex_ops, problem.param_ids):
        theta = float(params[pid])
        half = len(ex) // 2
        terms = {
            tuple((i, True) for i in ex[:half])
            + tuple((i, False) for i in ex[half:]): 1.0
        }
        g_op = FermionOperator(n_qubits, terms)
        generator = jordan_wigner(g_op - g_op.hermitian_conjugate())
        for term, coeff in sorted(generator.terms.items()):
            if abs(coeff) < 1e-14:
                continue
            # coeff is purely imaginary: G = sum_k i*beta_k P_k, and
            # e^{theta*i*beta*P} = PAULI_ROT(P, -2*theta*beta)
            beta = coeff.imag
            qubits = tuple(q for q, _ in term)
            pauli = "".join(letter for _, letter in term)
            gates.append(Gate("PAULI_ROT", qubits,
                              angle=-2.0 * theta * beta, pauli=pauli))
    return Circuit(n_qubits=n_qubits, gates=gates, n_params=0)
