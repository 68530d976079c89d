"""Command-line front end wiring the library into batch workflows.

Subcommands
-----------
vqe       unitary coupled-cluster optimization on an FCIDUMP input
adapt     adaptive ansatz growth from the spin-complete excitation pool
fci       exact lowest even-spin (S = 0, 2, ...) state in the CI space
          (plus HF/MP2 for context)
noisy     hardware-efficient Ry ansatz under a depolarizing noise model
dynamics  variational real-time evolution of coupled spin/oscillator models
hubbard   one-dimensional Hubbard chain, UCC against exact diagonalization
convert   file and operator format conversions
sweep     one-row-per-point parameter scans (noise, shots, driving force, files)

A config file (``--config``) supplies defaults for any long flag: values are
looked up first in the section named after the subcommand, then in
``[common]``; explicit command-line flags always win.  Custom dynamics models
are described in a ``[model]`` section (see ``_model_from_config``).

Exit codes: 0 on success, 1 for computational/runtime errors (the error class
name goes to stderr), 2 for usage errors.

All file artifacts are deterministic: the same config and seed produce
byte-identical JSON/CSV bytes (wall-clock timings are reported on stdout only,
never written to ``--output``).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import InvalidChannel, VqchemError
from .integrals import (
    IntegralSet,
    active_space_reduce,
    build_fermion_hamiltonian,
    build_hubbard,
    canonicalize_integrals,
    fixture_path,
    hf_energy,
    load_fcidump,
    mp2,
    write_fcidump,
)
from .operators import QubitOperator, jordan_wigner, parity_transform
from .civector import (
    check_vector_dim,
    doci_ground_state,
    energy as ci_energy,
    fci_ground_state,
    load_civector,
    make_ci_space,
    save_civector,
)
from .ansatz import (
    adapt_vqe,
    build_operator_pool,
    load_ansatz,
    make_kupccgsd_problem,
    make_puccd_problem,
    make_uccsd_problem,
    save_ansatz,
)
from .vqe import civector_at, kernel, print_summary, result_to_json
from .gates import (
    NoiseModel,
    build_ry_ansatz,
    depolarizing_channel,
    expectation,
    hea_kernel,
    sampled_expectation,
    simulate_state,
)
from .dynamics import (
    BasisHalfSpin,
    BasisSHO,
    SymbolicTerm,
    Trajectory,
    build_vha,
    coherent_state,
    encode_state,
    exact_propagate,
    marcus_model,
    marcus_rate_theory,
    parse_symbolic_term,
    qubit_encode,
    rate_fit,
    spin_boson_model,
    time_evolve,
    time_grid,
    trajectory_to_csv,
)


class _UsageError(Exception):
    """Bad flag/config combination; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Config file handling and flag/config precedence
# ---------------------------------------------------------------------------

def _read_config(path: str | None) -> dict[str, dict[str, str]]:
    if not path:
        return {}
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # degree-of-freedom names are case sensitive
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise _UsageError(f"config file not found: {path}")
    except (OSError, configparser.Error) as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}")
    return {name: dict(parser[name]) for name in parser.sections()}


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


class _Settings:
    """Flag values with config-file fallback (flag > config > default)."""

    def __init__(self, args: argparse.Namespace,
                 config: dict[str, dict[str, str]]):
        self.args = vars(args)
        self.config = config
        sub = self.args.get("subcommand") or ""
        self.sections = [config[name] for name in (sub, "common")
                         if name in config]

    def _raw(self, name: str):
        value = self.args.get(name)
        if value is not None:
            return value
        for section in self.sections:
            for key in (name.replace("_", "-"), name):
                if key in section:
                    return section[key]
        return None

    def get(self, name: str, default=None):
        value = self._raw(name)
        return default if value is None else value

    def get_int(self, name: str, default: int | None = None):
        value = self._raw(name)
        if value is None:
            return default
        try:
            return int(value)
        except (TypeError, ValueError):
            raise _UsageError(f"--{name.replace('_', '-')}: expected an "
                              f"integer, got {value!r}")

    def get_float(self, name: str, default: float | None = None):
        value = self._raw(name)
        if value is None:
            return default
        try:
            return float(value)
        except (TypeError, ValueError):
            raise _UsageError(f"--{name.replace('_', '-')}: expected a "
                              f"number, got {value!r}")

    def get_bool(self, name: str, default: bool | None = None):
        value = self._raw(name)
        if value is None or isinstance(value, bool):
            return default if value is None else value
        lowered = str(value).strip().lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise _UsageError(f"--{name.replace('_', '-')}: expected a boolean, "
                          f"got {value!r}")


# ---------------------------------------------------------------------------
# Small shared helpers
# ---------------------------------------------------------------------------

def _resolve_integrals(st: _Settings) -> IntegralSet:
    name = st.get("fcidump")
    if not name:
        raise _UsageError("an --fcidump input (path or bundled fixture name) "
                          "is required")
    path = Path(name)
    if not path.exists():
        bundled = fixture_path(str(name))
        if bundled.exists():
            path = bundled
        else:
            raise _UsageError(f"input not found: {name}")
    s = load_fcidump(path)
    window = st.get("active_space")
    if window:
        try:
            n_elec, n_orb = (int(x) for x in str(window).split(","))
        except ValueError:
            raise _UsageError("--active-space: expected 'n_elec,n_orb'")
        s = active_space_reduce(s, n_elec, n_orb).reduced
    return s


def _int_list(text, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"--{flag}: expected comma-separated integers")


def _float_grid(text, flag: str) -> list[float]:
    """Comma list ``a,b,c`` or inclusive range ``start:stop:step``."""
    text = str(text)
    try:
        if ":" in text:
            start, stop, step = (float(tok) for tok in text.split(":"))
            if step == 0:
                raise ValueError
            n = int(round((stop - start) / step))
            grid = [start + k * step for k in range(n + 1)]
            return [round(x, 12) for x in grid]
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"--{flag}: expected 'a,b,c' or 'start:stop:step'")


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    def cell(x) -> str:
        return f"{x:.12g}" if isinstance(x, float) else str(x)

    lines = [",".join(header)]
    lines += [",".join(cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _parse_noise_spec(text: str) -> tuple[str, float]:
    """``{gate="CNOT", channel="depolarizing", p=0.02}`` -> (gate, p)."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    entries: dict[str, str] = {}
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise _UsageError(f"bad noise entry {chunk!r}")
        key, value = (part.strip() for part in chunk.split("=", 1))
        entries[key] = value.strip("\"'")
    gate = entries.pop("gate", "CNOT")
    channel = entries.pop("channel", "depolarizing")
    try:
        p = float(entries.pop("p", "0"))
    except ValueError:
        raise _UsageError("noise spec: p must be a number")
    if entries:
        raise _UsageError(f"unknown noise keys: {sorted(entries)}")
    if channel != "depolarizing":
        raise _UsageError(f"unsupported noise channel {channel!r}")
    return gate, p


def _noise_model(gate: str, p: float, circuit) -> NoiseModel | None:
    """Depolarizing noise on ``gate`` (checked even at p = 0, which gives
    None); at p > 0 ``circuit`` must hold a gate for it to act on."""
    model = NoiseModel({gate: depolarizing_channel(p, 2 if gate == "CNOT"
                                                   else 1)})
    if p == 0:
        return None
    if all(g.kind != gate for g in circuit.gates):
        raise InvalidChannel(f"noise on {gate}, which the circuit lacks")
    return model


def _qubit_hamiltonian(s: IntegralSet, transform: str) -> QubitOperator:
    h_fermion = build_fermion_hamiltonian(s)
    if transform == "jw":
        return jordan_wigner(h_fermion)
    if transform == "parity":
        return parity_transform(h_fermion, s.n_elec)
    if transform == "parity-reduced":
        return parity_transform(h_fermion, s.n_elec, reduce_two_qubits=True)
    raise _UsageError(f"unknown transform {transform!r}")


def _reference_bitstring(h: QubitOperator) -> str:
    """Computational basis state minimizing the diagonal of ``h`` (the
    mean-field-like starting point for the hardware-efficient ansatz)."""
    diag = h.to_sparse_matrix().diagonal().real
    return format(int(np.argmin(diag)), f"0{h.n_qubits}b")


def _hea_init_params(circuit, bitstring: str) -> np.ndarray:
    """Angles that make the whole circuit prepare ``bitstring`` when every
    later rotation is zero.  Each CNOT ladder (control j, target j+1,
    ascending) maps bits to their prefix parities, so the first rotation
    layer prepares the bits un-laddered once per ladder."""
    n = circuit.n_qubits
    bits = [int(b) for b in bitstring]
    for _ in range(circuit.n_params // n - 1):
        bits = [bits[0]] + [bits[q] ^ bits[q - 1] for q in range(1, n)]
    init = np.zeros(circuit.n_params)
    init[:n] = np.pi * np.array(bits)
    return init


_REFERENCE_LIMIT = 200_000  # the largest reference solved by default


def _reference(st: _Settings, dim: int, solve) -> float | None:
    """The energy of ``solve()``, a ground-state solver's result on ``dim``
    configurations; None on ``--no-fci-reference`` and, unless the flag
    forces it, past ``_REFERENCE_LIMIT``.  Runners call this before any
    optimisation, so a forced reference the solver refuses costs none."""
    want = st.get_bool("fci_reference", None)
    if want is False or (want is None and dim > _REFERENCE_LIMIT):
        return None
    return solve()[0]


def _fci_reference(s: IntegralSet, st: _Settings) -> float | None:
    space = make_ci_space(s.n_orb, s.n_elec)
    return _reference(st, space.dim, lambda: fci_ground_state(space, s))


def _build_problem(st: _Settings, s: IntegralSet):
    ansatz = str(st.get("ansatz", "uccsd"))
    if ansatz == "uccsd":
        return make_uccsd_problem(
            s,
            screen_eps=st.get_float("screen_eps", 1e-8),
            sort=st.get_bool("sort", True),
        ), "UCCSD"
    if ansatz == "kupccgsd":
        k = st.get_int("k", 1)
        return make_kupccgsd_problem(s, k=k, seed=st.get_int("seed", 0)), \
            f"{k}-UpCCGSD"
    if ansatz == "puccd":
        return make_puccd_problem(s), "pUCCD"
    if ansatz == "custom":
        path = st.get("ansatz_file")
        if not path:
            raise _UsageError("--ansatz custom requires --ansatz-file")
        if not Path(path).exists():
            raise _UsageError(f"ansatz file not found: {path}")
        return load_ansatz(path, s), "custom"
    raise _UsageError(f"unknown ansatz {ansatz!r}")


def _human_stream(st: _Settings):
    """Stream for progress/summary narration.

    When a machine-readable artifact (json/csv) is bound for stdout, stdout
    must stay parseable, so narration moves to stderr.  Otherwise narration
    stays on stdout."""
    fmt = str(st.get("format", "json" if st.get("output") else "text"))
    if st.get("output") or fmt == "text":
        return sys.stdout
    return sys.stderr


def _finish(st: _Settings, json_payload, csv_header: list[str],
            csv_rows: list[list], text: str) -> int:
    """Write the requested artifact.  Human-readable lines have already been
    printed; JSON/CSV go to stdout only when explicitly requested."""
    output = st.get("output")
    fmt = str(st.get("format", "json" if output else "text"))
    if fmt == "json":
        _emit(_json_text(json_payload), output)
    elif fmt == "csv":
        _emit(_csv_text(csv_header, csv_rows), output)
    elif fmt == "text":
        if output:
            _emit(text if text.endswith("\n") else text + "\n", output)
    else:
        raise _UsageError(f"unknown format {fmt!r}")
    return 0


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def _state_path(st: _Settings, s: IntegralSet) -> str | None:
    """``--save-state``'s path, checked before any optimisation: the saved
    state is a full determinant-space vector."""
    path = st.get("save_state")
    if path:
        check_vector_dim(s.n_orb, s.n_elec)
    return path


def _run_vqe(st: _Settings) -> int:
    s = _resolve_integrals(st)
    state_path = _state_path(st, s)
    problem, label = _build_problem(st, s)
    fci = _fci_reference(s, st)
    doci = None
    if problem.hard_core_boson:  # DOCI bounds a pair ansatz from below
        space = make_ci_space(s.n_orb, s.n_elec)
        doci = _reference(st, space.n_strings_alpha,
                          lambda: doci_ground_state(space, s))
    maxiter = st.get_int("maxiter")
    result = kernel(problem, maxiter=maxiter) if maxiter else kernel(problem)
    report = print_summary(problem, result, fci_reference=fci,
                           method_label=label, stream=_human_stream(st))
    if state_path:
        save_civector(state_path, civector_at(problem, result.x))
    ansatz_out = st.get("save_ansatz")
    if ansatz_out:
        save_ansatz(ansatz_out, problem)
    e_hf = hf_energy(s)
    return _finish(
        st, result_to_json(problem, result, fci=fci, doci=doci),
        ["hf", "mp2", "ucc", "fci"],
        [[e_hf, e_hf + mp2(s).e_corr, float(result.e),
          fci if fci is not None else float("nan")]],
        report.text,
    )


def _run_adapt(st: _Settings) -> int:
    s = _resolve_integrals(st)
    state_path = _state_path(st, s)
    pool = build_operator_pool(s.n_orb, s.n_elec)
    epsilon = st.get_float("epsilon", 1e-3)
    max_iter = st.get_int("max_iter", 50)
    fci = _fci_reference(s, st)
    grown = adapt_vqe(s, pool, epsilon, max_iter=max_iter)
    problem, trajectory = grown.problem, grown.trajectory
    lines = [f"adaptive growth: {len(trajectory) - 1} iterations, "
             f"{len(problem.ex_ops)} excitations, "
             f"{problem.init_guess.size} parameters"]
    for i, e in enumerate(trajectory):
        line = f"  iter {i:2d}  E = {e:+.10f}"
        if fci is not None:
            line += f"  error = {1000.0 * (e - fci):+.6f} mH"
        lines.append(line)
    stop = ("converged" if grown.converged
            else f"stopped at --max-iter {max_iter}")
    lines.append(f"{stop}: pool-gradient norm {grown.gradient_norm:.3e}, "
                 f"epsilon {epsilon:g}")
    text = "\n".join(lines)
    print(text, file=_human_stream(st))
    if state_path:
        save_civector(state_path,
                      civector_at(problem, problem.init_guess))
    ansatz_out = st.get("save_ansatz")
    if ansatz_out:
        save_ansatz(ansatz_out, problem)
    payload = {
        "trajectory": [float(e) for e in trajectory],
        "final_energy": float(trajectory[-1]),
        "fci": fci,
        "ex_ops": [list(ex) for ex in problem.ex_ops],
        "param_ids": list(problem.param_ids),
        "params": problem.init_guess.tolist(),
        "epsilon": epsilon,
        "converged": grown.converged,
        "pool_gradient_norm": grown.gradient_norm,
        "optimizer_converged": list(grown.optimizer_converged),
    }
    return _finish(st, payload, ["iteration", "energy"],
                   [[i, float(e)] for i, e in enumerate(trajectory)], text)


def _run_fci(st: _Settings) -> int:
    s = _resolve_integrals(st)
    space = make_ci_space(s.n_orb, s.n_elec)
    e_fci, ground = fci_ground_state(space, s)
    e_hf = hf_energy(s)
    e_mp2 = e_hf + mp2(s).e_corr
    lines = [
        f"CI space dimension: {space.dim}",
        f"E(HF)  = {e_hf:+.10f}",
        f"E(MP2) = {e_mp2:+.10f}",
        f"E(FCI) = {e_fci:+.10f}",
    ]
    payload = {"dim": space.dim, "hf": e_hf, "mp2": e_mp2, "fci": e_fci}
    loaded = st.get("load_state")
    if loaded:
        if not Path(loaded).exists():
            raise _UsageError(f"state file not found: {loaded}")
        v = load_civector(loaded, space)
        e_loaded = ci_energy(space, v, s)
        overlap = abs(float(np.dot(v.amplitudes, ground.amplitudes)))
        lines.append(f"loaded state: E = {e_loaded:+.10f}, "
                     f"|<loaded|FCI>| = {overlap:.10f}")
        payload["loaded_energy"] = e_loaded
        payload["loaded_overlap"] = overlap
    text = "\n".join(lines)
    print(text, file=_human_stream(st))
    state_path = st.get("save_state")
    if state_path:
        save_civector(state_path, ground)
    keys = sorted(payload)
    return _finish(st, payload, keys, [[payload[k] for k in keys]], text)


def _noise_from_settings(st: _Settings) -> tuple[str, float]:
    spec = st.get("noise")
    p_flag = st.get_float("p")
    if spec and p_flag is not None:
        raise _UsageError("give either --noise or --p, not both")
    if spec:
        return _parse_noise_spec(str(spec))
    return "CNOT", (p_flag if p_flag is not None else 0.0)


def _run_noisy(st: _Settings) -> int:
    s = _resolve_integrals(st)
    transform = str(st.get("transform", "parity-reduced"))
    h = _qubit_hamiltonian(s, transform)
    layers = st.get_int("layers", 1)
    circuit = build_ry_ansatz(h.n_qubits, layers)
    reference = _reference_bitstring(h)
    init = _hea_init_params(circuit, reference)
    gate, p = _noise_from_settings(st)
    shots = st.get_int("shots")
    result = hea_kernel(circuit, init, h,
                        noise=_noise_model(gate, p, circuit),
                        shots=shots, seed=st.get_int("seed", 0))
    noise_text = f"{gate} depolarizing p={p:g}" if p else "none"
    lines = [
        f"ansatz: {h.n_qubits} qubits, {layers} layer(s), "
        f"{circuit.n_params} parameters, reference |{reference}>",
        f"noise: {noise_text}" + (f", shots={shots}" if shots else ""),
        f"E = {result.e:+.10f}  converged={result.converged}  "
        f"nit={result.nit}",
    ]
    text = "\n".join(lines)
    print(text, file=_human_stream(st))
    payload = {
        "energy": float(result.e),
        "params": result.x.tolist(),
        "converged": bool(result.converged),
        "nit": int(result.nit),
        "n_qubits": h.n_qubits,
        "layers": layers,
        "noise_gate": gate,
        "noise_p": p,
        "shots": shots,
        "transform": transform,
    }
    return _finish(st, payload, ["p", "layers", "energy"],
                   [[p, layers, float(result.e)]], text)


# -- dynamics ---------------------------------------------------------------

def _model_from_config(st: _Settings):
    """Custom model from a ``[model]`` config section.

    Keys (all but ``terms``/``basis`` optional)::

        terms       one symbolic term per line: ``coeff symbol@dof ...``
        basis       one register per line: ``dof half_spin`` or
                    ``dof sho omega=<f> nbas=<i> [mass=<f>]``
        initial     one line per dof: ``dof <level>`` or
                    ``dof coherent <alpha>`` (default: level 0)
        observables one named term per line: ``name coeff symbol@dof ...``
                    (repeated names are summed)
    """
    section = st.config.get("model")
    if not section:
        raise _UsageError("--model custom requires a [model] config section")

    def lines(key: str) -> list[str]:
        return [ln.strip() for ln in section.get(key, "").splitlines()
                if ln.strip()]

    if not lines("terms") or not lines("basis"):
        raise _UsageError("[model] must define 'terms' and 'basis'")
    terms = [parse_symbolic_term(ln) for ln in lines("terms")]

    basis = []
    for ln in lines("basis"):
        toks = ln.split()
        if len(toks) >= 2 and toks[1] == "half_spin":
            basis.append(BasisHalfSpin(toks[0]))
            continue
        if len(toks) >= 2 and toks[1] == "sho":
            kwargs = {}
            for tok in toks[2:]:
                if "=" not in tok:
                    raise _UsageError(f"[model] basis: bad option {tok!r}")
                key, value = tok.split("=", 1)
                kwargs[key] = value
            try:
                basis.append(BasisSHO(
                    toks[0],
                    omega=float(kwargs.pop("omega")),
                    nbas=int(kwargs.pop("nbas")),
                    mass=float(kwargs.pop("mass", 1.0)),
                ))
            except (KeyError, ValueError):
                raise _UsageError(
                    "[model] basis: sho needs omega=<f> nbas=<i> [mass=<f>]")
            if kwargs:
                raise _UsageError(f"[model] basis: unknown options "
                                  f"{sorted(kwargs)}")
            continue
        raise _UsageError(f"[model] basis: cannot parse line {ln!r}")

    initial_spec: dict[str, list[str]] = {}
    for ln in lines("initial"):
        toks = ln.split()
        if len(toks) < 2:
            raise _UsageError(f"[model] initial: cannot parse line {ln!r}")
        initial_spec[toks[0]] = toks[1:]
    vector = np.ones(1)
    for entry in basis:
        dim = 2 if isinstance(entry, BasisHalfSpin) else entry.nbas
        spec = initial_spec.pop(entry.dof, ["0"])
        if spec[0] == "coherent":
            if isinstance(entry, BasisHalfSpin) or len(spec) != 2:
                raise _UsageError("[model] initial: coherent <alpha> is only "
                                  "valid for sho registers")
            local = coherent_state(float(spec[1]), dim)
        else:
            try:
                level = int(spec[0])
            except ValueError:
                raise _UsageError(f"[model] initial: bad level {spec[0]!r}")
            if not 0 <= level < dim:
                raise _UsageError(f"[model] initial: level {level} out of "
                                  f"range for {entry.dof!r}")
            local = np.zeros(dim)
            local[level] = 1.0
        vector = np.kron(vector, local)
    if initial_spec:
        raise _UsageError(f"[model] initial: unknown dofs "
                          f"{sorted(initial_spec)}")

    observables: dict[str, list[SymbolicTerm]] = {}
    for ln in lines("observables"):
        name, _, rest = ln.partition(" ")
        if not rest.strip():
            raise _UsageError(f"[model] observables: cannot parse {ln!r}")
        observables.setdefault(name, []).append(parse_symbolic_term(rest))
    return terms, basis, vector.astype(complex), observables


def _encoded_observable(terms, basis, encoding: str) -> QubitOperator:
    enc = qubit_encode(terms, basis, encoding)
    op = enc.qubit_terms
    if enc.constant:
        op = (op + QubitOperator.identity(op.n_qubits, enc.constant))
    return op.simplify()


def _dynamics_setup(st: _Settings):
    """Returns (terms, basis, initial level vector, named observables)."""
    model = str(st.get("model", "spin-boson"))
    nbas = st.get_int("nbas", 8)
    omega = st.get_float("omega", 1.0 if model == "spin-boson" else 0.5)
    g = st.get_float("g", 0.5 if model == "spin-boson" else 1.0)
    if model == "spin-boson":
        terms, basis = spin_boson_model(
            epsilon=st.get_float("epsilon", 0.0),
            delta=st.get_float("delta", 1.0),
            omega=omega, g=g, nbas=nbas,
        )
        initial = np.kron([1.0, 0.0], coherent_state(0.0, nbas))
        observables = {"sz": [SymbolicTerm((("sigma_z", "spin"),), 1.0)]}
        return terms, basis, initial.astype(complex), observables
    if model == "marcus":
        terms, basis, initial = marcus_model(
            v=st.get_float("v", -0.1),
            dg=st.get_float("dg", -1.0),
            omega=omega, g=g, nbas=nbas,
        )
        observables = {"occ0": [
            SymbolicTerm((), 0.5),
            SymbolicTerm((("sigma_z", "charge"),), 0.5),
        ]}
        return terms, basis, initial, observables
    if model == "custom":
        return _model_from_config(st)
    raise _UsageError(f"unknown model {model!r}")


def _evolve(st: _Settings, terms, basis, initial, observables) -> Trajectory:
    encoding = str(st.get("encoding", "gray"))
    t_final = st.get_float("t_final", 10.0)
    tau = st.get_float("tau", 0.02)
    enc = qubit_encode(terms, basis, encoding)
    psi0 = encode_state(enc, initial)
    obs_ops = {name: _encoded_observable(obs_terms, basis, encoding)
               for name, obs_terms in observables.items()}
    method = str(st.get("method", "vha"))
    if method == "vha":
        ansatz = build_vha(enc, st.get_int("layers", 3), psi0)
        return time_evolve(
            enc, ansatz, np.zeros(ansatz.n_params), t_final, tau,
            integrator=str(st.get("integrator", "rk4")),
            observables=obs_ops,
            epsilon_reg=st.get_float("eps_reg", 1e-5),
        )
    if method == "exact":
        times = time_grid(t_final, tau,
                          2 * psi0.size + len(obs_ops) + 1)
        h_pauli = enc.qubit_terms.to_dense_matrix()
        states = exact_propagate(h_pauli, psi0, times)
        obs_dense = {name: op.to_dense_matrix()
                     for name, op in obs_ops.items()}
        obs_out = {
            name: np.array([float((psi.conj() @ (mat @ psi)).real)
                            for psi in states])
            for name, mat in obs_dense.items()
        }
        energies = np.array([
            float((psi.conj() @ (h_pauli @ psi)).real) + enc.constant
            for psi in states
        ])
        return Trajectory(times=times, thetas=np.zeros((len(times), 0)),
                          observables=obs_out, energies=energies)
    raise _UsageError(f"unknown method {method!r}")


def _run_dynamics(st: _Settings) -> int:
    terms, basis, initial, observables = _dynamics_setup(st)
    output = st.get("output")
    fmt = str(st.get("format", "csv"))
    if fmt not in ("csv", "json"):
        raise _UsageError(f"unknown format {fmt!r}")
    traj = _evolve(st, terms, basis, initial, observables)
    if fmt == "csv":
        _emit(trajectory_to_csv(traj), output)
    else:
        payload = {
            "t": traj.times.tolist(),
            "theta": traj.thetas.tolist(),
            "observables": {k: v.tolist()
                            for k, v in traj.observables.items()},
            "energy": traj.energies.tolist(),
        }
        _emit(_json_text(payload), output)
    return 0


def _run_hubbard(st: _Settings) -> int:
    sites = st.get_int("sites")
    if not sites:
        raise _UsageError("--sites is required")
    s = build_hubbard(sites, st.get_float("t", 1.0), st.get_float("u", 4.0),
                      periodic=st.get_bool("periodic", False))
    s_canonical = canonicalize_integrals(s)
    problem, label = _build_problem(st, s_canonical)
    maxiter = st.get_int("maxiter")
    result = kernel(problem, maxiter=maxiter) if maxiter else kernel(problem)
    space = make_ci_space(s.n_orb, s.n_elec)
    e_fci = fci_ground_state(space, s)[0]
    e_hf = hf_energy(s_canonical)
    lines = [
        f"Hubbard chain: {sites} sites, t={st.get_float('t', 1.0):g}, "
        f"U={st.get_float('u', 4.0):g}, "
        f"{'periodic' if st.get_bool('periodic', False) else 'open'}",
        f"E(HF)  = {e_hf:+.10f}",
        f"E({label}) = {result.e:+.10f}",
        f"E(FCI) = {e_fci:+.10f}   ucc error = "
        f"{1000.0 * (result.e - e_fci):+.6f} mH",
    ]
    text = "\n".join(lines)
    print(text, file=_human_stream(st))
    payload = {
        "sites": sites,
        "t": st.get_float("t", 1.0),
        "u": st.get_float("u", 4.0),
        "hf": e_hf,
        "ucc": float(result.e),
        "fci": float(e_fci),
        "converged": bool(result.converged),
        "ansatz": str(st.get("ansatz", "uccsd")),
    }
    keys = ["sites", "t", "u", "hf", "ucc", "fci"]
    return _finish(st, payload, keys, [[payload[k] for k in keys]], text)


def _run_convert(st: _Settings) -> int:
    to = str(st.get("to", ""))
    output = st.get("output")
    if not to:
        raise _UsageError("--to is required "
                          "(fcidump, fermion, jw, parity, parity-reduced, "
                          "state-json)")
    if to == "state-json":
        path = st.get("load_state")
        if not path:
            raise _UsageError("--to state-json requires --load-state")
        if not Path(path).exists():
            raise _UsageError(f"state file not found: {path}")
        v = load_civector(path)
        payload = {
            "n_orb": v.space.n_orb,
            "n_alpha": v.space.n_alpha,
            "n_beta": v.space.n_beta,
            "dim": v.space.dim,
            "amplitudes": v.amplitudes.tolist(),
        }
        _emit(_json_text(payload), output)
        return 0
    s = _resolve_integrals(st)
    if to == "fcidump":
        _emit(write_fcidump(s), output)
    elif to == "fermion":
        _emit(build_fermion_hamiltonian(s).format_text() + "\n", output)
    elif to in ("jw", "parity", "parity-reduced"):
        _emit(_qubit_hamiltonian(s, to).format_text() + "\n", output)
    else:
        raise _UsageError(f"unknown conversion target {to!r}")
    return 0


# -- sweep ------------------------------------------------------------------

def _sweep_noise(st: _Settings) -> tuple[list[str], list[list]]:
    s = _resolve_integrals(st)
    h = _qubit_hamiltonian(s, str(st.get("transform", "parity-reduced")))
    layer_list = _int_list(st.get("layers", "1,2,3"), "layers")
    p_grid = _float_grid(st.get("p_grid", "0:0.8:0.1"), "p-grid")
    gate = str(st.get("gate", "CNOT"))
    header = ["p"] + [f"e_layers{layers}" for layers in layer_list]
    columns = []
    for layers in layer_list:
        circuit = build_ry_ansatz(h.n_qubits, layers)
        init = _hea_init_params(circuit, _reference_bitstring(h))
        columns.append([
            float(hea_kernel(circuit, init, h,
                             noise=_noise_model(gate, p, circuit)).e)
            for p in p_grid
        ])
    rows = [[p] + [col[i] for col in columns]
            for i, p in enumerate(p_grid)]
    return header, rows


def _sweep_shots(st: _Settings) -> tuple[list[str], list[list]]:
    s = _resolve_integrals(st)
    h = _qubit_hamiltonian(s, str(st.get("transform", "parity-reduced")))
    layers = st.get_int("layers", 1)
    circuit = build_ry_ansatz(h.n_qubits, layers)
    init = _hea_init_params(circuit, _reference_bitstring(h))
    optimum = hea_kernel(circuit, init, h)
    psi = simulate_state(circuit, optimum.x)
    exact = expectation(psi, h)
    shots_grid = _int_list(st.get("shots_grid",
                                  "256,512,1024,2048,4096,8192"),
                           "shots-grid")
    repeats = st.get_int("repeats", 64)
    seed = st.get_int("seed", 0)
    rows = []
    for i, shots in enumerate(shots_grid):
        samples = np.array([
            sampled_expectation(psi, h, shots,
                                seed=seed + 100_000 * i + r)
            for r in range(repeats)
        ])
        rows.append([shots, float(np.mean(samples)),
                     float(np.std(samples - exact)), float(exact)])
    return ["shots", "mean", "std", "exact"], rows


def _sweep_dg(st: _Settings) -> tuple[list[str], list[list], dict]:
    dg_grid = _float_grid(st.get("dg_grid", "0:-2:-0.25"), "dg-grid")
    omega = st.get_float("omega", 0.5)
    g = st.get_float("g", 1.0)
    v = st.get_float("v", -0.1)
    nbas = st.get_int("nbas", 8)
    window = (st.get_float("fit_start", 2.0), st.get_float("fit_stop", 8.0))
    rates = []
    for dg in dg_grid:
        sub = _Settings(argparse.Namespace(), {})
        sub.args = dict(st.args)
        sub.sections = st.sections
        sub.args.update(model="marcus", dg=dg, omega=omega, g=g, v=v,
                        nbas=nbas)
        terms, basis, initial, observables = _dynamics_setup(sub)
        traj = _evolve(sub, terms, basis, initial, observables)
        rates.append(rate_fit(traj.times, traj.observable("occ0"),
                              t_window=window))
    header = ["dg", "rate"]
    rows: list[list] = [[dg, rate] for dg, rate in zip(dg_grid, rates)]
    extra: dict = {}
    if st.get_bool("fit_beta", False):
        lam = 2.0 * g * g * omega
        betas = np.linspace(0.05, 20.0, 4000)
        residuals = [
            sum((marcus_rate_theory(abs(v), lam, dg, b) - rate) ** 2
                for dg, rate in zip(dg_grid, rates))
            for b in betas
        ]
        beta_hat = float(betas[int(np.argmin(residuals))])
        header.append("rate_theory")
        for row, dg in zip(rows, dg_grid):
            row.append(marcus_rate_theory(abs(v), lam, dg, beta_hat))
        extra["beta_hat"] = beta_hat
    argmax = dg_grid[int(np.argmax(rates))]
    extra["argmax_dg"] = argmax
    print(f"fitted rate is maximal at dg = {argmax:g}", file=sys.stderr)
    return header, rows, extra


def _sweep_files(st: _Settings) -> tuple[list[str], list[list]]:
    files = st.args.get("files") or []
    if not files:
        raise _UsageError("--kind files requires --files ...")
    rows = []
    for name in files:
        sub = _Settings(argparse.Namespace(), {})
        sub.args = dict(st.args)
        sub.sections = st.sections
        sub.args.update(fcidump=name)
        s = _resolve_integrals(sub)
        problem, _ = _build_problem(sub, s)
        fci = _fci_reference(s, sub)
        result = kernel(problem)
        e_hf = hf_energy(s)
        rows.append([
            Path(name).name, e_hf, e_hf + mp2(s).e_corr, float(result.e),
            fci if fci is not None else float("nan"),
        ])
    return ["file", "hf", "mp2", "ucc", "fci"], rows


def _run_sweep(st: _Settings) -> int:
    kind = str(st.get("kind", ""))
    extra: dict = {}
    if kind == "noise":
        header, rows = _sweep_noise(st)
    elif kind == "shots":
        header, rows = _sweep_shots(st)
    elif kind == "dg":
        header, rows, extra = _sweep_dg(st)
    elif kind == "files":
        header, rows = _sweep_files(st)
    else:
        raise _UsageError("--kind must be one of: noise, shots, dg, files")
    output = st.get("output")
    fmt = str(st.get("format", "csv"))
    if fmt == "csv":
        _emit(_csv_text(header, rows), output)
    elif fmt == "json":
        payload = {"columns": header,
                   "rows": [[(None if isinstance(x, float) and math.isnan(x)
                              else x) for x in row] for row in rows]}
        payload.update(extra)
        _emit(_json_text(payload), output)
    else:
        raise _UsageError(f"unknown format {fmt!r}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file with flag defaults")
    sub.add_argument("--output", help="write the artifact to this path "
                                      "(default: stdout)")
    sub.add_argument("--format", choices=["json", "csv", "text"],
                     help="artifact format")
    sub.add_argument("--seed", type=int, help="RNG seed (default 0)")


def _add_molecular(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--fcidump",
                     help="FCIDUMP path or bundled fixture name "
                          "(h2_sto3g, h2_sto3g_stretched, h4_sto3g, "
                          "h6_sto3g, h8_sto3g)")
    sub.add_argument("--active-space", dest="active_space",
                     help="restrict to 'n_elec,n_orb' around the Fermi level")
    sub.add_argument("--fci-reference", dest="fci_reference",
                     action=argparse.BooleanOptionalAction, default=None,
                     help="force/skip the exact reference energies: FCI, "
                          "and DOCI for pUCCD (by default skipped past "
                          f"{_REFERENCE_LIMIT:,} configurations)")


def _add_ansatz(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ansatz",
                     choices=["uccsd", "kupccgsd", "puccd", "custom"],
                     help="ansatz family (default uccsd)")
    sub.add_argument("--k", type=int, help="number of repeated blocks for "
                                           "kupccgsd (default 1)")
    sub.add_argument("--screen-eps", dest="screen_eps", type=float,
                     help="drop excitations with |initial amplitude| below "
                          "this (default 1e-8)")
    sub.add_argument("--sort", dest="sort",
                     action=argparse.BooleanOptionalAction, default=None,
                     help="order doubles by descending initial amplitude")
    sub.add_argument("--ansatz-file", dest="ansatz_file",
                     help="excitation list for --ansatz custom")
    sub.add_argument("--save-ansatz", dest="save_ansatz",
                     help="write the (optimized) excitation list here")
    sub.add_argument("--maxiter", type=int, help="optimizer iteration cap")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqchem",
        description="variational quantum chemistry and dynamics workflows",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    p_vqe = subparsers.add_parser(
        "vqe", help="unitary coupled-cluster optimization")
    _add_molecular(p_vqe)
    _add_ansatz(p_vqe)
    p_vqe.add_argument("--save-state", dest="save_state",
                       help="write the optimized CI vector here")
    _add_common(p_vqe)

    p_adapt = subparsers.add_parser(
        "adapt", help="adaptive ansatz growth")
    _add_molecular(p_adapt)
    p_adapt.add_argument("--epsilon", type=float,
                         help="pool-gradient-norm stop (default 1e-3)")
    p_adapt.add_argument("--max-iter", dest="max_iter", type=int,
                         help="growth iteration cap (default 50)")
    p_adapt.add_argument("--save-state", dest="save_state",
                         help="write the final CI vector here")
    p_adapt.add_argument("--save-ansatz", dest="save_ansatz",
                         help="write the grown excitation list here")
    _add_common(p_adapt)

    p_fci = subparsers.add_parser(
        "fci", help="exact lowest even-spin (S = 0, 2, ...) state",
        description="Exact lowest state of the CI space whose amplitudes "
        "are symmetric under alpha <-> beta exchange (C = C^T): the "
        "even-spin (S = 0, 2, ...) ground state.  A lower odd-spin state, "
        "such as a triplet, is not returned.")
    _add_molecular(p_fci)
    p_fci.add_argument("--save-state", dest="save_state",
                       help="write the ground-state CI vector here")
    p_fci.add_argument("--load-state", dest="load_state",
                       help="also report the energy/overlap of this vector")
    _add_common(p_fci)

    p_noisy = subparsers.add_parser(
        "noisy", help="hardware-efficient ansatz under depolarizing noise")
    _add_molecular(p_noisy)
    p_noisy.add_argument("--layers", type=int,
                         help="entangling layers (default 1)")
    p_noisy.add_argument("--p", type=float,
                         help="CNOT depolarizing probability (default 0)")
    p_noisy.add_argument("--noise",
                         help="noise spec, e.g. "
                              '\'{gate="CNOT", channel="depolarizing", '
                              "p=0.02}'")
    p_noisy.add_argument("--shots", type=int,
                         help="sample the objective with this many shots "
                              "per term")
    p_noisy.add_argument("--transform",
                         choices=["jw", "parity", "parity-reduced"],
                         help="fermion-to-qubit mapping "
                              "(default parity-reduced)")
    _add_common(p_noisy)

    p_dyn = subparsers.add_parser(
        "dynamics", help="variational real-time evolution")
    p_dyn.add_argument("--model", choices=["spin-boson", "marcus", "custom"],
                       help="model family (default spin-boson)")
    p_dyn.add_argument("--nbas", type=int,
                       help="oscillator levels per mode (default 8)")
    p_dyn.add_argument("--layers", type=int,
                       help="ansatz layers (default 3)")
    p_dyn.add_argument("--t-final", dest="t_final", type=float,
                       help="evolution time (default 10)")
    p_dyn.add_argument("--tau", type=float,
                       help="integrator step (default 0.02)")
    p_dyn.add_argument("--integrator", choices=["euler", "rk4"],
                       help="fixed-step integrator (default rk4)")
    p_dyn.add_argument("--method", choices=["vha", "exact"],
                       help="variational ansatz or exact propagation "
                            "(default vha)")
    p_dyn.add_argument("--encoding", choices=["unary", "binary", "gray"],
                       help="level-to-qubit encoding (default gray)")
    p_dyn.add_argument("--eps-reg", dest="eps_reg", type=float,
                       help="equation-of-motion regularization (default 1e-5)")
    p_dyn.add_argument("--epsilon", type=float,
                       help="spin-boson: qubit bias (default 0)")
    p_dyn.add_argument("--delta", type=float,
                       help="spin-boson: tunneling (default 1)")
    p_dyn.add_argument("--omega", type=float,
                       help="oscillator frequency (defaults: spin-boson 1, "
                            "marcus 0.5)")
    p_dyn.add_argument("--g", type=float,
                       help="coupling strength (defaults: spin-boson 0.5, "
                            "marcus 1)")
    p_dyn.add_argument("--v", type=float,
                       help="marcus: electronic coupling (default -0.1)")
    p_dyn.add_argument("--dg", type=float,
                       help="marcus: driving force (default -1)")
    _add_common(p_dyn)

    p_hub = subparsers.add_parser(
        "hubbard", help="Hubbard chain UCC vs exact")
    p_hub.add_argument("--sites", type=int, help="number of sites (required)")
    p_hub.add_argument("--t", type=float, help="hopping (default 1)")
    p_hub.add_argument("--u", type=float, help="on-site repulsion (default 4)")
    p_hub.add_argument("--periodic", action=argparse.BooleanOptionalAction,
                       default=None, help="periodic boundary conditions")
    _add_ansatz(p_hub)
    _add_common(p_hub)

    p_conv = subparsers.add_parser(
        "convert", help="format conversions")
    p_conv.add_argument("--fcidump",
                        help="FCIDUMP path or bundled fixture name")
    p_conv.add_argument("--active-space", dest="active_space",
                        help="restrict to 'n_elec,n_orb'")
    p_conv.add_argument("--to",
                        choices=["fcidump", "fermion", "jw", "parity",
                                 "parity-reduced", "state-json"],
                        help="conversion target")
    p_conv.add_argument("--load-state", dest="load_state",
                        help="CI vector file for --to state-json")
    _add_common(p_conv)

    p_sweep = subparsers.add_parser(
        "sweep", help="parameter scans producing one row per point")
    p_sweep.add_argument("--kind", choices=["noise", "shots", "dg", "files"],
                         help="sweep axis")
    _add_molecular(p_sweep)
    _add_ansatz(p_sweep)
    p_sweep.add_argument("--files", nargs="+",
                         help="FCIDUMP paths for --kind files")
    p_sweep.add_argument("--layers",
                         help="layer list for --kind noise (default 1,2,3) "
                              "or layer count otherwise")
    p_sweep.add_argument("--p-grid", dest="p_grid",
                         help="noise probabilities: 'a,b,c' or "
                              "'start:stop:step' (default 0:0.8:0.1)")
    p_sweep.add_argument("--gate", help="noisy gate kind (default CNOT)")
    p_sweep.add_argument("--transform",
                         choices=["jw", "parity", "parity-reduced"])
    p_sweep.add_argument("--shots-grid", dest="shots_grid",
                         help="shot counts (default 256,...,8192)")
    p_sweep.add_argument("--repeats", type=int,
                         help="samples per shot count (default 64)")
    p_sweep.add_argument("--dg-grid", dest="dg_grid",
                         help="driving forces (default 0:-2:-0.25)")
    p_sweep.add_argument("--v", type=float)
    p_sweep.add_argument("--omega", type=float)
    p_sweep.add_argument("--g", type=float)
    p_sweep.add_argument("--nbas", type=int)
    p_sweep.add_argument("--method", choices=["vha", "exact"],
                         help="dynamics route for --kind dg (default vha)")
    p_sweep.add_argument("--tau", type=float)
    p_sweep.add_argument("--t-final", dest="t_final", type=float)
    p_sweep.add_argument("--integrator", choices=["euler", "rk4"])
    p_sweep.add_argument("--encoding", choices=["unary", "binary", "gray"])
    p_sweep.add_argument("--eps-reg", dest="eps_reg", type=float)
    p_sweep.add_argument("--fit-start", dest="fit_start", type=float,
                         help="rate-fit window start (default 2)")
    p_sweep.add_argument("--fit-stop", dest="fit_stop", type=float,
                         help="rate-fit window stop (default 8)")
    p_sweep.add_argument("--fit-beta", dest="fit_beta",
                         action=argparse.BooleanOptionalAction, default=None,
                         help="append a least-squares theory-rate column")
    _add_common(p_sweep)

    return parser


_RUNNERS = {
    "vqe": _run_vqe,
    "adapt": _run_adapt,
    "fci": _run_fci,
    "noisy": _run_noisy,
    "dynamics": _run_dynamics,
    "hubbard": _run_hubbard,
    "convert": _run_convert,
    "sweep": _run_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config)
        settings = _Settings(args, config)
        return _RUNNERS[args.subcommand](settings)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except VqchemError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
