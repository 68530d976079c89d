"""Gate-level quantum circuit simulation: ideal statevectors, noisy density
matrices with Kraus channels applied as superoperators, shot sampling,
parameter-shift gradients, and a hardware-efficient-ansatz optimizer.

:class:`Circuit` is the package's one circuit type, from |0...0> or its
``initial`` state: the hardware-efficient ansatz, and the variational
Hamiltonian ansatz of :func:`vqchem.dynamics.build_vha`, whose angle theta
in exp(-i theta P) is half its PAULI_ROT's.

Qubit 0 is the most significant bit of a basis-state index, as in
:mod:`vqchem.operators`.  Exact expectation values read the operator's
compiled flip groups (:func:`vqchem.operators._flip_groups`), one gather
of psi or of rho's entries each; sampled ones read every string's trace
off its masks, uncached (:func:`vqchem.operators.pauli_traces`).
:func:`hea_kernel` drives exact objectives with the numpy L-BFGS-B driver
of :func:`vqchem.vqe.kernel`, one circuit pass per evaluation, and sampled
ones (``shots``) with the numpy SPSA of :func:`vqchem.vqe._minimize_spsa`,
two circuit passes per iteration.  The rotation convention is
RY(theta) = exp(-i*theta*Y/2) and PAULI_ROT(P, theta) = exp(-i*theta*P/2),
so RY is the rotation about the one-letter string "Y".  Each public entry
point, and the variational dynamics, compiles its circuit once per call
(:func:`_compile`) into the steps of :func:`vqchem.operators._fuse_runs`:
runs of commuting rotations that flip the same qubits, each
cos(Phi) x + sin(Phi) f_r x[target] with -i P_r x = f_r x[target] a gather
of x by an index array, and X and CNOT as permutations.  Only the noise
channels multiply a (super)operator matrix onto the axes they touch.
The dtype follows the data: a program whose flips are exactly real (RY
and rotations about strings with an odd number of Y, next to X and CNOT,
as in the hardware-efficient ansatz) runs from |0...0> in float64 and
returns float64 states, and so do exactly real channels and observables;
a complex flip, channel or ``initial`` vector, as in the VHA, keeps
complex128.

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

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidChannel,
    InvalidOperator,
    InvalidParams,
    InvalidProbability,
    SizeLimit,
    ZeroState,
)
from .operators import (
    _PAULI_MATS,
    QubitOperator,
    _flip_groups,
    _fuse_runs,
    _real_if_exact,
    _RotationRuns,
    apply_operator,
    pauli_masks,
    pauli_traces,
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
                raise InvalidParams("PAULI_ROT needs a Pauli letter per qubit")
        elif self.pauli is not None:
            raise InvalidParams(f"{self.kind} takes no Pauli string")


@dataclass
class Circuit:
    """``gates`` applied in order to ``initial``, a basis index or a vector
    kept as the unit statevector along it; None means |0...0>."""

    n_qubits: int
    gates: list
    n_params: int = 0
    initial: np.ndarray | None = None

    def __post_init__(self):
        for g in self.gates:
            if any(not 0 <= q < self.n_qubits for q in g.qubits):
                raise InvalidParams(f"gate {g} outside {self.n_qubits} qubits")
            if g.param_slot is not None and not 0 <= g.param_slot < self.n_params:
                raise InvalidParams(
                    f"param slot {g.param_slot} outside 0..{self.n_params - 1}"
                )
        if self.initial is not None:
            self.initial = _start_vector(self.initial, 1 << self.n_qubits)


def _start_vector(initial, dim: int) -> np.ndarray:
    """The basis vector of an index in 0..dim-1, or a finite nonzero vector
    of dimension ``dim`` over its norm."""
    if isinstance(initial, (int, np.integer)):
        if not 0 <= initial < dim:
            raise InvalidParams(f"basis state {initial} outside 0..{dim - 1}")
        initial = np.eye(1, dim, int(initial))[0]
    phi = np.asarray(initial, dtype=complex).ravel()
    if phi.size != dim or not np.all(np.isfinite(phi)):
        raise InvalidParams(
            f"initial state must be a finite vector of dimension {dim}")
    norm = np.linalg.norm(phi)
    if norm == 0.0:
        raise ZeroState("initial state has zero norm")
    return phi / norm


def build_ry_ansatz(n_qubits: int, n_layers: int) -> Circuit:
    """An initial Y-rotation layer, then ``n_layers`` repetitions of a CNOT
    ladder (control j, target j+1, ascending) followed by another rotation
    layer; (n_layers+1)*n_qubits parameters."""
    if n_layers < 0:
        raise InvalidParams("n_layers must be >= 0")
    gates = [Gate("RY", (q,), param_slot=q) for q in range(n_qubits)]
    for layer in range(1, n_layers + 1):
        gates += [Gate("CNOT", (q, q + 1)) for q in range(n_qubits - 1)]
        gates += [Gate("RY", (q,), param_slot=layer * n_qubits + q)
                  for q in range(n_qubits)]
    return Circuit(n_qubits, gates, (n_layers + 1) * n_qubits)


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Kraus channels attached to gate kinds, applied right after every gate
    of that kind as the superoperator sum K (x) conj(K) in ``superops``."""

    channels: dict = field(default_factory=dict)

    def __post_init__(self):
        clean, superops = {}, {}
        for kind, kraus in self.channels.items():
            if kind not in _GATE_KINDS:
                raise InvalidChannel(f"noise on unknown gate kind {kind!r}")
            clean[kind] = _validate_kraus([np.asarray(k, dtype=complex)
                                           for k in kraus])
            stack = np.array(clean[kind])
            # sum K (x) conj(K) from 0 in Kraus order, as sum() adds
            superops[kind] = _kron_pairs(stack, stack.conj()).sum(
                axis=0, initial=0)
        object.__setattr__(self, "channels", clean)
        object.__setattr__(self, "superops", superops)


def _kron_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a[i], b[i]) for every i of two stacks of square matrices:
    the same elementwise products, in one broadcast."""
    k, d, e = len(a), a.shape[1], b.shape[1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(
        k, d * e, d * e)


def _validate_kraus(kraus) -> list:
    if not kraus:
        raise InvalidChannel("empty Kraus list")
    dim = kraus[0].shape[0] if kraus[0].ndim == 2 else None
    if dim not in (2, 4):
        raise InvalidChannel(
            f"Kraus operators must be 2x2 or 4x4, got {kraus[0].shape}")
    if any(k.shape != (dim, dim) for k in kraus):
        raise InvalidChannel("Kraus operators differ in shape")
    stack = np.array(kraus)
    if not np.all(np.isfinite(stack)):
        raise InvalidChannel("Kraus operator has non-finite entries")
    total = np.einsum("kji,kjl->il", stack.conj(), stack)  # sum K^dagger K
    if np.max(np.abs(total - np.eye(dim))) > 1e-10:
        raise InvalidChannel("channel is not trace preserving")
    return list(kraus)


def depolarizing_channel(p: float, n_qubits: int) -> list:
    """Isotropic depolarizing channel: sqrt(1-p) I plus sqrt(p/15) times each
    of the 15 non-identity two-qubit Paulis (p/3 and 3 Paulis for one qubit).
    Average gate fidelity 1 - 4p/5 for the two-qubit form."""
    if not 0.0 <= p <= 1.0:
        raise InvalidProbability(f"p={p} outside [0, 1]")
    if n_qubits not in (1, 2):
        raise InvalidChannel("depolarizing channel defined for 1 or 2 qubits")
    paulis = np.array([_PAULI_MATS[ch] for ch in "IXYZ"])
    if n_qubits == 2:  # the 16 products, letters in "IXYZ" order
        paulis = _kron_pairs(paulis.repeat(4, axis=0),
                             np.tile(paulis, (4, 1, 1)))
    scale = np.full(len(paulis), math.sqrt(p / (len(paulis) - 1)))
    scale[0] = math.sqrt(1.0 - p)
    return list(scale[:, None, None] * paulis)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _compile(c: Circuit, noise: NoiseModel | None) -> _RotationRuns:
    """The circuit's gather steps (:func:`vqchem.operators._fuse_runs`):
    each rotation exp(-i theta P / 2) a run member (RY is the rotation
    about "Y"), X and CNOT permutations of the basis states.  A gate that
    ``noise`` binds a channel to ends its run."""
    n, channels = c.n_qubits, {} if noise is None else noise.superops
    idx, ops = np.arange(1 << n), []
    for g in c.gates:
        b = [n - 1 - q for q in g.qubits]  # bit of each qubit in an index
        if g.kind == "X":
            ops.append(idx ^ 1 << b[0])
        elif g.kind == "CNOT":
            ops.append(idx ^ (idx >> b[0] & 1) << b[1])
        else:
            term = tuple(zip(g.qubits, g.pauli or "Y"))  # RY: about "Y"
            ops.append((*pauli_masks(n, term),
                        -1 if g.param_slot is None else g.param_slot,
                        g.angle or 0.0, g.kind in channels))
    return _fuse_runs(n, ops)


def _step(x: np.ndarray, step: tuple, cos, flip) -> np.ndarray:
    """One step on a statevector or a matrix's rows, x unchanged: x[target],
    or run r as cos[r] x + flip[r] x[target], float64 if x and the flips
    are, complex128 otherwise (x must be complex if the flips are).
    ``-flip`` inverts a run; X and CNOT are their own inverses.  A
    transposed view is gathered along its memory order, as its
    transpose's columns."""
    target, r, _ = step
    out = (x.take(target, axis=0) if x.flags.c_contiguous
           else x.T.take(target, axis=-1).T)
    if r is not None:
        column = (slice(None),) + (None,) * (x.ndim - 1)
        out *= flip[r][column]
        out += cos[r][column] * x
    return out


def _sandwich(rho: np.ndarray, step: tuple, cos, flip) -> np.ndarray:
    """U rho U^dagger for Hermitian rho (U^dagger rho U with ``-flip``):
    U on the rows, then on the rows of the Hermitian transpose."""
    return _step(_step(rho, step, cos, flip).conj().T, step, cos, flip)


def _start_state(c: Circuit, dtype) -> np.ndarray:
    """A new copy of the circuit's start statevector: |0...0> in ``dtype``,
    or the complex ``initial`` vector."""
    if c.initial is None:
        return np.eye(1, 1 << c.n_qubits, dtype=dtype)[0]
    return c.initial.copy()


def simulate_state(c: Circuit, params,
                   runs: _RotationRuns | None = None) -> np.ndarray:
    """Apply the circuit (compiled as ``runs``, if given) to its start
    state; returns the final statevector, float64 when the flips are
    exactly real and the start is |0...0>."""
    params = _check_circuit_params(c, params)
    runs = _compile(c, None) if runs is None else runs
    return _final_state(c, runs, *runs.rotations(params))


def _final_state(c: Circuit, runs: _RotationRuns, cos, flip) -> np.ndarray:
    """The steps ``runs`` at rotations (cos, flip) on the start state, in
    the flips' dtype."""
    psi = _start_state(c, flip.dtype)
    for step in runs.steps:
        psi = _step(psi, step, cos, flip)
    return psi


def _check_circuit_params(c: Circuit, params) -> np.ndarray:
    params = np.asarray([] if params is None else params, dtype=float).ravel()
    if params.size != c.n_params:
        raise InvalidParams(
            f"circuit has {c.n_params} parameters, got {params.size}"
        )
    if not np.all(np.isfinite(params)):
        raise InvalidParams("parameters must be finite")
    return params


@functools.lru_cache(maxsize=None)
def _channel_axes(qubits: tuple, n: int) -> tuple:
    """The axis order of rho's 2n-qubit tensor that puts the ket axes
    ``qubits`` and bra axes ``n + q`` in front, and its inverse."""
    front = qubits + tuple(n + q for q in qubits)
    order = front + tuple(a for a in range(2 * n) if a not in front)
    return order, tuple(np.argsort(order).tolist())


def _apply_channel_density(rho: np.ndarray, superop: np.ndarray, qubits,
                           n: int) -> np.ndarray:
    """S on rho read as a 2n-qubit tensor: one transpose brings the axes
    S acts on to the front (:func:`_channel_axes`), S multiplies them as
    one matrix, and the inverse transpose puts them back.  Only channels
    take this matrix product; unitary gates are gathers (:func:`_step`)."""
    order, inverse = _channel_axes(tuple(qubits), n)
    t = rho.reshape((2,) * 2 * n).transpose(order)
    out = (superop @ t.reshape(superop.shape[0], -1)).reshape(t.shape)
    return out.transpose(inverse).reshape(rho.shape)


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


def _check_density_size(c: Circuit) -> None:
    if c.n_qubits > _DENSITY_QUBIT_LIMIT:
        raise SizeLimit(
            f"density simulation capped at {_DENSITY_QUBIT_LIMIT} qubits"
        )


def _density_start(c: Circuit, flip, noise: NoiseModel | None):
    """(rho, superops) of a density pass: the start state's density matrix
    and the noise model's superoperators, each exactly real one as float64;
    rho is float64 when the flips, the channels and the start are."""
    superops = {} if noise is None else {
        kind: _real_if_exact(s) for kind, s in noise.superops.items()}
    psi = _start_state(c, np.result_type(flip, *superops.values()))
    return np.outer(psi, psi.conj()), superops


def simulate_density(c: Circuit, params, noise: NoiseModel | None,
                     runs: _RotationRuns | None = None) -> np.ndarray:
    """Apply the circuit (compiled for ``noise`` as ``runs``, if given) to
    its start state with each gate followed by its noise channel (if the
    model binds one to that gate kind); returns the density matrix,
    float64 when the flips and channels are exactly real and the start is
    |0...0>."""
    _check_density_size(c)
    params = _check_circuit_params(c, params)
    runs = _compile(c, noise) if runs is None else runs
    cos, flip = runs.rotations(params)
    rho, superops = _density_start(c, flip, noise)
    for step in runs.steps:
        rho = _sandwich(rho, step, cos, flip)
        rho = _apply_noise(rho, c.gates[step[2]], superops, c.n_qubits)
    return rho


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------

def _as_matrix(state_or_rho, n: int):
    """(array, is_rho) of a statevector or density matrix on ``n`` qubits."""
    arr = np.asarray(state_or_rho)
    if arr.ndim not in (1, 2) or arr.shape[0] != arr.shape[-1]:
        raise InvalidOperator(
            "expected a statevector or a square density matrix")
    if arr.shape[0] != 1 << n:
        raise InvalidOperator(
            f"operator on {n} qubits against state of dimension {arr.shape[0]}"
        )
    return arr, arr.ndim == 2


def expectation(state_or_rho, h: QubitOperator) -> float:
    """<psi|H|psi> or Tr(rho H); the imaginary residue must vanish."""
    n = h.n_qubits
    arr, is_rho = _as_matrix(state_or_rho, n)
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
    arr, is_rho = _as_matrix(state_or_rho, h.n_qubits)
    exact = dict(zip(h.terms, pauli_traces(h.n_qubits, h.x, h.z, arr).real))
    rng = np.random.default_rng(seed)
    total = 0.0
    for term, coeff in sorted(h.terms.items()):
        if not term:
            norm = np.trace(arr) if is_rho else np.vdot(arr, arr)
            total += coeff.real * norm.real
            continue
        e = min(1.0, max(-1.0, exact[term]))
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
                         noise: NoiseModel | None,
                         runs: _RotationRuns | None = None):
    """(energy, gradient) of the circuit from one reverse pass."""
    params = _check_circuit_params(c, params)
    if h.n_qubits != c.n_qubits:
        raise InvalidOperator(
            f"operator on {h.n_qubits} qubits against a "
            f"{c.n_qubits}-qubit circuit"
        )
    if noise is not None:
        _check_density_size(c)
    runs = _compile(c, noise) if runs is None else runs
    if noise is None:
        return _state_gradient(c, runs, params, h)
    return _density_gradient(c, runs, params, h, noise)


def _state_gradient(c: Circuit, runs: _RotationRuns, params,
                    h: QubitOperator):
    """Adjoint differentiation (Jones & Gacon, arXiv:2009.02823): with
    lambda = H psi carried back through the circuit next to psi, a run
    member exp(-i theta P_k / 2) contributes
    dE/dtheta = Re <lambda|-i P_k|psi>, both read right after the run, where
    -i P_k psi = d_k * f_r * psi[target]; the slots sum their members'
    values, and fixed angles drop out (bin 0).  The energy is
    <psi|lambda> before the walk back."""
    cos, flip = runs.rotations(params)
    psi = _final_state(c, runs, cos, flip)
    lam = apply_operator(h, psi)
    e = _real_energy(complex(np.vdot(psi, lam)))
    back, bounds = -flip, runs.starts.tolist()
    member = np.zeros(runs.slots.size)
    pair = np.stack([psi, lam], axis=1)
    for step in reversed(runs.steps):
        target, r, _ = step
        if r is not None:
            lo, hi = bounds[r], bounds[r + 1]
            w = pair[:, 1].conj() * runs.flips[r] * pair[target, 0]
            member[lo:hi] = w.real @ runs.signs[:, lo:hi]
        pair = _step(pair, step, cos, back)
    return e, np.bincount(runs.slots + 1, member, c.n_params + 1)[1:]


# Bytes of the states that the density-matrix reverse pass keeps.
_ADJOINT_STATE_BYTES = 64 << 20


def _density_gradient(c: Circuit, runs: _RotationRuns, params,
                      h: QubitOperator, noise: NoiseModel):
    """The same reverse pass in the Heisenberg picture.  Walking back from
    O = H, each step first takes its channel's adjoint M = S^dagger(O), the
    superoperator's conjugate transpose; a run member then contributes
    dE/dtheta = Re Tr(M (-i P_k) sigma), with sigma = U rho U^dagger the
    state right after the run (before its channel); finally
    O = U^dagger M U.  The energy is the expectation of the final rho of the
    forward pass.  O is float64 when rho and H's flip values are.

    The forward pass keeps sigma at every ``stride``-th parametrised run,
    with ``stride`` the smallest that fits the kept states, at rho's own
    size, into ``_ADJOINT_STATE_BYTES`` (1 unless the circuit is large); the
    states in between are replayed from the nearest kept one when the
    reverse pass reaches them."""
    n, steps, bounds = c.n_qubits, runs.steps, runs.starts.tolist()
    cos, flip = runs.rotations(params)
    rho, superops = _density_start(c, flip, noise)
    marks = [k for k, (_, r, _) in enumerate(steps) if r is not None
             and max(runs.slots[bounds[r]:bounds[r + 1]]) >= 0]
    stride = max(1, -(-len(marks) * rho.nbytes // _ADJOINT_STATE_BYTES))
    kept = dict.fromkeys(marks[::stride])
    for k, step in enumerate(steps):
        rho = _sandwich(rho, step, cos, flip)
        if k in kept:
            kept[k] = rho
        rho = _apply_noise(rho, c.gates[step[2]], superops, n)
    e = expectation(rho, h)
    member = np.zeros(runs.slots.size)
    if not marks:
        return e, np.zeros(c.n_params)

    def sigma_at(k):
        i = marks.index(k)
        start = marks[i - i % stride]
        sigma = kept[start]
        for j in range(start + 1, k + 1):
            sigma = _apply_noise(sigma, c.gates[steps[j - 1][2]], superops, n)
            sigma = _sandwich(sigma, steps[j], cos, flip)
        return sigma

    adjoint = {kind: s.conj().T for kind, s in superops.items()}
    back, marked = -flip, set(marks)
    obs = h.to_dense_matrix()
    obs = obs if np.iscomplexobj(rho) else _real_if_exact(obs)
    for k in reversed(range(len(steps))):
        target, r, end = step = steps[k]
        obs = _apply_noise(obs, c.gates[end], adjoint, n)
        if k in marked:
            lo, hi = bounds[r], bounds[r + 1]
            gathered = _step(sigma_at(k), (target, None, end), cos, flip)
            w = runs.flips[r] * np.einsum("ij,ij->i", obs.conj(), gathered)
            member[lo:hi] = w.real @ runs.signs[:, lo:hi]
        obs = _sandwich(obs, step, cos, back)
    return e, np.bincount(runs.slots + 1, member, c.n_params + 1)[1:]


def hea_kernel(c: Circuit, init_params, h: QubitOperator,
               noise: NoiseModel | None = None, shots: int | None = None,
               seed: int = 0):
    """Optimize the circuit energy, compiled once for all evaluations.
    Without ``shots`` the numpy L-BFGS-B driver of :func:`vqchem.vqe.kernel`
    (:func:`vqchem.vqe._minimize_lbfgs`) takes each evaluation's energy and
    gradient from one reverse pass (:func:`parameter_shift_gradient`) and
    reports convergence at its gradient tolerance.  With ``shots`` the
    objective is sampled, evaluation k with seed ``seed + k``, and SPSA
    (:func:`vqchem.vqe._minimize_spsa`) minimizes it."""
    init_params = _check_circuit_params(c, init_params)
    runs = _compile(c, noise)
    if shots is None:
        return _minimize_lbfgs(
            lambda x: _energy_and_gradient(c, x, h, noise, runs), init_params)
    seeds = itertools.count(seed + 1)

    def objective(x):
        state = (simulate_state(c, x, runs) if noise is None
                 else simulate_density(c, x, noise, runs))
        return sampled_expectation(state, h, shots, seed=next(seeds))

    return _minimize_spsa(objective, init_params, seed)
