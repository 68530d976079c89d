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

A config file (``--config``) holds flag values.  Each ``key = value`` of
its ``[common]`` section, then of the section named after the subcommand,
is parsed as the flag ``--key value`` placed before the command line's own
flags: it gets the same types and choices, and a bad value exits 2 before
any work.  So a command-line flag wins over the subcommand's section, which
wins over ``[common]``.  Boolean options take true/false, yes/no, on/off or
1/0; ``--files`` takes whitespace-separated paths.  Keys that name no option
of the subcommand are ignored.  Custom dynamics models are described in a
``[model]`` section (see ``_model_from_config``).

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
from .vqe import (
    _MAXITER,
    civector_at,
    kernel,
    print_summary,
    result_to_json,
)
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
# Config file handling: config values become flags
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


def _config_tokens(sub: argparse.ArgumentParser,
                   config: dict[str, dict[str, str]], name: str) -> list[str]:
    """The values of ``config``'s ``[common]`` and ``[name]`` sections, in
    that order, as command-line tokens for ``sub``; keys (dash or
    underscore form) that name none of its options are skipped."""
    actions = {action.dest: action for action in sub._actions
               if action.option_strings and action.dest not in ("help",
                                                                "config")}
    tokens = []
    for section in ("common", name):
        for key, value in config.get(section, {}).items():
            action = actions.get(key.replace("-", "_"))
            if action is None:
                continue
            flag = action.option_strings[0]
            if isinstance(action, argparse.BooleanOptionalAction):
                word = value.strip().lower()
                if word not in _TRUE | _FALSE:
                    raise _UsageError(f"{flag}: expected a boolean, "
                                      f"got {value!r}")
                tokens.append(flag if word in _TRUE else "--no-" + flag[2:])
            elif action.nargs == "+":
                tokens += [flag, *value.split()]
            else:
                tokens.append(f"{flag}={value}")
    return tokens


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or config value as a usage error (exit 2);
    subparsers inherit it."""

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Small shared helpers
# ---------------------------------------------------------------------------

def _resolve_integrals(args: argparse.Namespace) -> IntegralSet:
    name = args.fcidump
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
    if args.active_space:
        try:
            n_elec, n_orb = (int(x) for x in args.active_space.split(","))
        except ValueError:
            raise _UsageError("--active-space: expected 'n_elec,n_orb'")
        s = active_space_reduce(s, n_elec, n_orb).reduced
    return s


def _nonempty(values: list, flag: str) -> list:
    if not values:
        raise _UsageError(f"--{flag}: the list is empty")
    return values


def _int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"--{flag}: expected comma-separated integers")
    return _nonempty(values, flag)


def _float_grid(text: str, flag: str) -> list[float]:
    """Comma list ``a,b,c`` or inclusive range ``start:stop:step``; an
    empty one (a range stepping away from its stop) or a range of more than
    ``_GRID_LIMIT`` points is a usage error."""
    try:
        if ":" in text:
            start, stop, step = (float(tok) for tok in text.split(":"))
            if step == 0:
                raise ValueError
            n = int(round((stop - start) / step))
            if n >= _GRID_LIMIT:
                raise _UsageError(f"--{flag}: {n + 1:,} points exceed the "
                                  f"limit of {_GRID_LIMIT:,}")
            grid = [round(start + k * step, 12) for k in range(n + 1)]
        else:
            grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, OverflowError):
        raise _UsageError(f"--{flag}: expected 'a,b,c' or 'start:stop:step'")
    return _nonempty(grid, flag)


def _at_least(low: int):
    """argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)  # argparse: "invalid int value: ..."
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


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
    return parity_transform(h_fermion, s.n_elec,
                            reduce_two_qubits=transform == "parity-reduced")


def _reference_bitstring(h: QubitOperator) -> str:
    """Computational basis state minimizing the diagonal of ``h`` (the
    mean-field-like starting point for the hardware-efficient ansatz)."""
    diag = h.diagonal().real
    return format(int(np.argmin(diag)), f"0{h.n_qubits}b")


def _hea_init_params(circuit, bitstring: str) -> np.ndarray:
    """Angles that make the whole circuit prepare ``bitstring`` when every
    later rotation is zero.  Each CNOT ladder (control j, target j+1,
    ascending) maps bits to their prefix parities, so the first rotation
    layer prepares the index b un-laddered (b ^= b >> 1) once per ladder."""
    n = circuit.n_qubits
    b = int(bitstring, 2)
    for _ in range(circuit.n_params // n - 1):
        b ^= b >> 1
    init = np.zeros(circuit.n_params)
    init[:n] = np.pi * np.array([int(c) for c in format(b, f"0{n}b")])
    return init


_REFERENCE_LIMIT = 200_000  # the largest reference solved by default


def _reference(args: argparse.Namespace, dim: int, solve) -> float | None:
    """The energy of ``solve()``, a ground-state solver's result on ``dim``
    configurations; None on ``--no-fci-reference`` and, unless the flag
    forces it, past ``_REFERENCE_LIMIT``.  Runners call this before any
    optimisation, so a forced reference the solver refuses costs none."""
    want = args.fci_reference
    if want is False or (want is None and dim > _REFERENCE_LIMIT):
        return None
    return solve()[0]


def _fci_reference(s: IntegralSet,
                   args: argparse.Namespace) -> float | None:
    space = make_ci_space(s.n_orb, s.n_elec)
    return _reference(args, space.dim, lambda: fci_ground_state(space, s))


def _build_problem(args: argparse.Namespace, s: IntegralSet):
    if args.ansatz == "uccsd":
        return make_uccsd_problem(s, screen_eps=args.screen_eps,
                                  sort=args.sort), "UCCSD"
    if args.ansatz == "kupccgsd":
        return make_kupccgsd_problem(s, k=args.k, seed=args.seed), \
            f"{args.k}-UpCCGSD"
    if args.ansatz == "puccd":
        return make_puccd_problem(s), "pUCCD"
    path = args.ansatz_file
    if not path:
        raise _UsageError("--ansatz custom requires --ansatz-file")
    if not Path(path).exists():
        raise _UsageError(f"ansatz file not found: {path}")
    return load_ansatz(path, s), "custom"


def _format(args: argparse.Namespace) -> str:
    """``--format`` where its default depends on ``--output``: json with
    an output file, text without."""
    return args.format or ("json" if args.output else "text")


def _human_stream(args: argparse.Namespace):
    """Stream for progress/summary narration.

    When a machine-readable artifact (json/csv) is bound for stdout, stdout
    must stay parseable, so narration moves to stderr.  Otherwise narration
    stays on stdout."""
    if args.output or _format(args) == "text":
        return sys.stdout
    return sys.stderr


def _finish(args: argparse.Namespace, json_payload, csv_header: list[str],
            csv_rows: list[list], text: str) -> int:
    """Write the requested artifact.  Human-readable lines have already been
    printed; JSON/CSV go to stdout only when explicitly requested."""
    fmt = _format(args)
    if fmt == "json":
        _emit(_json_text(json_payload), args.output)
    elif fmt == "csv":
        _emit(_csv_text(csv_header, csv_rows), args.output)
    elif args.output:
        _emit(text if text.endswith("\n") else text + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def _check_state_size(args: argparse.Namespace, s: IntegralSet) -> None:
    """``--save-state`` writes a full determinant-space vector, so its size
    is checked before any optimisation."""
    if args.save_state:
        check_vector_dim(s.n_orb, s.n_elec)


def _run_vqe(args: argparse.Namespace) -> int:
    s = _resolve_integrals(args)
    _check_state_size(args, s)
    problem, label = _build_problem(args, s)
    fci = _fci_reference(s, args)
    doci, engine = None, problem.engine
    if engine.ground_state:  # DOCI bounds a pair ansatz from below
        doci = _reference(args, engine.space.n_strings_alpha,
                          lambda: engine.ground_state(s))
    result = kernel(problem, maxiter=args.maxiter)
    report = print_summary(problem, result, fci_reference=fci,
                           method_label=label, stream=_human_stream(args))
    if args.save_state:
        save_civector(args.save_state, civector_at(problem, result.x))
    if args.save_ansatz:
        save_ansatz(args.save_ansatz, problem)
    record = result_to_json(problem, result, fci=fci, doci=doci)
    keys = ["hf", "mp2", "ucc", "fci"]
    row = [record["energies"][key] for key in keys]
    return _finish(args, record, keys,
                   [[float("nan") if e is None else e for e in row]],
                   report.text)


def _run_adapt(args: argparse.Namespace) -> int:
    s = _resolve_integrals(args)
    _check_state_size(args, s)
    pool = build_operator_pool(s.n_orb, s.n_elec)
    epsilon, max_iter = args.epsilon, args.max_iter
    fci = _fci_reference(s, args)
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
    print(text, file=_human_stream(args))
    if args.save_state:
        save_civector(args.save_state,
                      civector_at(problem, problem.init_guess))
    if args.save_ansatz:
        save_ansatz(args.save_ansatz, problem)
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
    return _finish(args, payload, ["iteration", "energy"],
                   [[i, float(e)] for i, e in enumerate(trajectory)], text)


def _run_fci(args: argparse.Namespace) -> int:
    s = _resolve_integrals(args)
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
    loaded = args.load_state
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
    print(text, file=_human_stream(args))
    if args.save_state:
        save_civector(args.save_state, ground)
    keys = sorted(payload)
    return _finish(args, payload, keys, [[payload[k] for k in keys]], text)


def _noise_from_args(args: argparse.Namespace) -> tuple[str, float]:
    """(gate, p) from ``--noise`` or ``--p``; noiseless CNOTs by default."""
    if args.noise and args.p is not None:
        raise _UsageError("give either --noise or --p, not both")
    if args.noise:
        return _parse_noise_spec(args.noise)
    return "CNOT", (args.p if args.p is not None else 0.0)


def _run_noisy(args: argparse.Namespace) -> int:
    s = _resolve_integrals(args)
    transform, layers, shots = args.transform, args.layers, args.shots
    h = _qubit_hamiltonian(s, transform)
    circuit = build_ry_ansatz(h.n_qubits, layers)
    reference = _reference_bitstring(h)
    init = _hea_init_params(circuit, reference)
    gate, p = _noise_from_args(args)
    result = hea_kernel(circuit, init, h,
                        noise=_noise_model(gate, p, circuit),
                        shots=shots, seed=args.seed)
    noise_text = f"{gate} depolarizing p={p:g}" if p else "none"
    lines = [
        f"ansatz: {h.n_qubits} qubits, {layers} layer(s), "
        f"{circuit.n_params} parameters, reference |{reference}>",
        f"noise: {noise_text}" + (f", shots={shots}" if shots else ""),
        f"E = {result.e:+.10f}  converged={result.converged}  "
        f"nit={result.nit}",
    ]
    text = "\n".join(lines)
    print(text, file=_human_stream(args))
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
    return _finish(args, payload, ["p", "layers", "energy"],
                   [[p, layers, float(result.e)]], text)


# -- dynamics ---------------------------------------------------------------

def _model_from_config(args: argparse.Namespace):
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
    section = _read_config(args.config).get("model")
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


def _omega_g(args: argparse.Namespace) -> tuple[float, float]:
    """``--omega`` and ``--g``, whose defaults depend on ``--model``:
    1 and 0.5 for spin-boson, 0.5 and 1 otherwise."""
    omega, g = (1.0, 0.5) if args.model == "spin-boson" else (0.5, 1.0)
    return (omega if args.omega is None else args.omega,
            g if args.g is None else args.g)


def _dynamics_setup(args: argparse.Namespace):
    """Returns (terms, basis, initial level vector, named observables)."""
    model, nbas = args.model, args.nbas
    omega, g = _omega_g(args)
    if model == "spin-boson":
        terms, basis = spin_boson_model(
            epsilon=args.epsilon, delta=args.delta,
            omega=omega, g=g, nbas=nbas,
        )
        initial = np.kron([1.0, 0.0], coherent_state(0.0, nbas))
        observables = {"sz": [SymbolicTerm((("sigma_z", "spin"),), 1.0)]}
        return terms, basis, initial.astype(complex), observables
    if model == "marcus":
        terms, basis, initial = marcus_model(
            v=args.v, dg=args.dg, omega=omega, g=g, nbas=nbas,
        )
        observables = {"occ0": [
            SymbolicTerm((), 0.5),
            SymbolicTerm((("sigma_z", "charge"),), 0.5),
        ]}
        return terms, basis, initial, observables
    return _model_from_config(args)


def _evolve(args: argparse.Namespace, terms, basis, initial,
            observables) -> Trajectory:
    encoding, t_final, tau = args.encoding, args.t_final, args.tau
    enc = qubit_encode(terms, basis, encoding)
    psi0 = encode_state(enc, initial)
    obs_ops = {name: _encoded_observable(obs_terms, basis, encoding)
               for name, obs_terms in observables.items()}
    if args.method == "vha":
        ansatz = build_vha(enc, args.layers, psi0)
        return time_evolve(
            enc, ansatz, np.zeros(ansatz.n_params), t_final, tau,
            integrator=args.integrator,
            observables=obs_ops,
            epsilon_reg=args.eps_reg,
        )
    times = time_grid(t_final, tau, 2 * psi0.size + len(obs_ops) + 1)
    states = exact_propagate(enc.qubit_terms.to_dense_matrix(), psi0, times)
    obs_out = {name: np.array([expectation(psi, op) for psi in states])
               for name, op in obs_ops.items()}
    energies = np.array([expectation(psi, enc.qubit_terms) + enc.constant
                         for psi in states])
    return Trajectory(times=times, thetas=np.zeros((len(times), 0)),
                      observables=obs_out, energies=energies)


def _run_dynamics(args: argparse.Namespace) -> int:
    terms, basis, initial, observables = _dynamics_setup(args)
    traj = _evolve(args, terms, basis, initial, observables)
    if args.format == "csv":
        _emit(trajectory_to_csv(traj), args.output)
    else:
        payload = {
            "t": traj.times.tolist(),
            "theta": traj.thetas.tolist(),
            "observables": {k: v.tolist()
                            for k, v in traj.observables.items()},
            "energy": traj.energies.tolist(),
        }
        _emit(_json_text(payload), args.output)
    return 0


def _run_hubbard(args: argparse.Namespace) -> int:
    if args.sites is None:
        raise _UsageError("--sites is required")
    if args.sites >= 2:  # below that, build_hubbard's InvalidModel
        check_vector_dim(args.sites, args.sites)  # before the n^4 integrals
    s = build_hubbard(args.sites, args.t, args.u, periodic=args.periodic)
    s_canonical = canonicalize_integrals(s)
    problem, label = _build_problem(args, s_canonical)
    e_fci = fci_ground_state(make_ci_space(s.n_orb, s.n_elec), s)[0]
    result = kernel(problem, maxiter=args.maxiter)
    e_hf = hf_energy(s_canonical)
    lines = [
        f"Hubbard chain: {args.sites} sites, t={args.t:g}, U={args.u:g}, "
        f"{'periodic' if args.periodic else 'open'}",
        f"E(HF)  = {e_hf:+.10f}",
        f"E({label}) = {result.e:+.10f}",
        f"E(FCI) = {e_fci:+.10f}   ucc error = "
        f"{1000.0 * (result.e - e_fci):+.6f} mH",
    ]
    text = "\n".join(lines)
    print(text, file=_human_stream(args))
    payload = {
        "sites": args.sites,
        "t": args.t,
        "u": args.u,
        "hf": e_hf,
        "ucc": float(result.e),
        "fci": float(e_fci),
        "converged": bool(result.converged),
        "ansatz": args.ansatz,
    }
    keys = ["sites", "t", "u", "hf", "ucc", "fci"]
    return _finish(args, payload, keys, [[payload[k] for k in keys]], text)


def _run_convert(args: argparse.Namespace) -> int:
    to, output = args.to, args.output
    if not to:
        raise _UsageError("--to is required "
                          "(fcidump, fermion, jw, parity, parity-reduced, "
                          "state-json)")
    if to == "state-json":
        path = args.load_state
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
    s = _resolve_integrals(args)
    if to == "fcidump":
        _emit(write_fcidump(s), output)
    elif to == "fermion":
        _emit(build_fermion_hamiltonian(s).format_text() + "\n", output)
    else:
        _emit(_qubit_hamiltonian(s, to).format_text() + "\n", output)
    return 0


# -- sweep ------------------------------------------------------------------

# ``--layers`` per kind: a list for noise, a count otherwise
_SWEEP_LAYERS = {"noise": "1,2,3", "shots": "1", "dg": "3"}
_GRID_LIMIT = 10_000  # points of one start:stop:step range of a grid flag


def _sweep_noise(args: argparse.Namespace) -> tuple[list[str], list[list]]:
    p_grid = _float_grid(args.p_grid, "p-grid")
    s = _resolve_integrals(args)
    h = _qubit_hamiltonian(s, args.transform)
    header = ["p"] + [f"e_layers{layers}" for layers in args.layers]
    columns = []
    for layers in args.layers:
        circuit = build_ry_ansatz(h.n_qubits, layers)
        init = _hea_init_params(circuit, _reference_bitstring(h))
        columns.append([
            float(hea_kernel(circuit, init, h,
                             noise=_noise_model(args.gate, p, circuit)).e)
            for p in p_grid
        ])
    rows = [[p] + [col[i] for col in columns]
            for i, p in enumerate(p_grid)]
    return header, rows


def _sweep_shots(args: argparse.Namespace) -> tuple[list[str], list[list]]:
    shots_grid = _int_list(args.shots_grid, "shots-grid")
    s = _resolve_integrals(args)
    h = _qubit_hamiltonian(s, args.transform)
    circuit = build_ry_ansatz(h.n_qubits, args.layers)
    init = _hea_init_params(circuit, _reference_bitstring(h))
    optimum = hea_kernel(circuit, init, h)
    psi = simulate_state(circuit, optimum.x)
    exact = expectation(psi, h)
    rows = []
    for i, shots in enumerate(shots_grid):
        samples = np.array([
            sampled_expectation(psi, h, shots,
                                seed=args.seed + 100_000 * i + r)
            for r in range(args.repeats)
        ])
        rows.append([shots, float(np.mean(samples)),
                     float(np.std(samples - exact)), float(exact)])
    return ["shots", "mean", "std", "exact"], rows


def _sweep_dg(args: argparse.Namespace
              ) -> tuple[list[str], list[list], dict]:
    dg_grid = _float_grid(args.dg_grid, "dg-grid")
    marcus = argparse.Namespace(**{**vars(args), "model": "marcus"})
    omega, g = _omega_g(marcus)
    v = args.v
    window = (args.fit_start, args.fit_stop)
    rates = []
    for dg in dg_grid:
        point = argparse.Namespace(**{**vars(marcus), "dg": dg})
        terms, basis, initial, observables = _dynamics_setup(point)
        traj = _evolve(point, terms, basis, initial, observables)
        rates.append(rate_fit(traj.times, traj.observable("occ0"),
                              t_window=window))
    header = ["dg", "rate"]
    rows: list[list] = [[dg, rate] for dg, rate in zip(dg_grid, rates)]
    extra: dict = {}
    if args.fit_beta:
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


def _sweep_files(args: argparse.Namespace) -> tuple[list[str], list[list]]:
    if not args.files:
        raise _UsageError("--kind files requires --files ...")
    rows = []
    for name in args.files:
        point = argparse.Namespace(**{**vars(args), "fcidump": name})
        s = _resolve_integrals(point)
        problem, _ = _build_problem(point, s)
        fci = _fci_reference(s, point)
        result = kernel(problem, maxiter=args.maxiter)
        e_hf = hf_energy(s)
        rows.append([
            Path(name).name, e_hf, e_hf + mp2(s).e_corr, float(result.e),
            fci if fci is not None else float("nan"),
        ])
    return ["file", "hf", "mp2", "ucc", "fci"], rows


def _run_sweep(args: argparse.Namespace) -> int:
    kind = args.kind
    if not kind:
        raise _UsageError("--kind is required (noise, shots, dg, files)")
    if kind in _SWEEP_LAYERS:
        layers = _int_list(args.layers or _SWEEP_LAYERS[kind], "layers")
        if kind != "noise":
            if len(layers) != 1:
                raise _UsageError(f"--layers: expected one layer count for "
                                  f"--kind {kind}")
            layers = layers[0]
        args = argparse.Namespace(**{**vars(args), "layers": layers})
    extra: dict = {}
    if kind == "noise":
        header, rows = _sweep_noise(args)
    elif kind == "shots":
        header, rows = _sweep_shots(args)
    elif kind == "dg":
        header, rows, extra = _sweep_dg(args)
    else:
        header, rows = _sweep_files(args)
    payload = {"columns": header, **extra,
               "rows": [[(None if isinstance(x, float) and math.isnan(x)
                          else x) for x in row] for row in rows]}
    return _finish(args, payload, header, rows, "")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, formats=("json", "csv", "text"),
                default_format=None) -> None:
    sub.add_argument("--config",
                     help="config file whose values act as flags placed "
                          "before the command line's own")
    sub.add_argument("--output", help="write the artifact to this path "
                                      "(default: stdout)")
    if formats:
        default = ("%(default)s" if default_format
                   else "json with --output, else text")
        sub.add_argument("--format", choices=formats, default=default_format,
                         help=f"artifact format (default: {default})")


def _add_seed(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0,
                     help="RNG seed (default: %(default)s)")


def _add_transform(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--transform", default="parity-reduced",
                     choices=["jw", "parity", "parity-reduced"],
                     help="fermion-to-qubit mapping (default: %(default)s)")


def _add_molecular(sub: argparse.ArgumentParser,
                   reference: bool = False) -> None:
    sub.add_argument("--fcidump",
                     help="FCIDUMP path or bundled fixture name "
                          "(h2_sto3g, h2_sto3g_stretched, h4_sto3g, "
                          "h6_sto3g, h8_sto3g)")
    sub.add_argument("--active-space", dest="active_space",
                     help="restrict to 'n_elec,n_orb' around the Fermi level")
    if reference:
        sub.add_argument("--fci-reference", dest="fci_reference",
                         action=argparse.BooleanOptionalAction,
                         help="force/skip the exact reference energies: "
                              "FCI, and DOCI for pUCCD (by default skipped "
                              f"past {_REFERENCE_LIMIT:,} configurations)")


def _add_ansatz(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ansatz", default="uccsd",
                     choices=["uccsd", "kupccgsd", "puccd", "custom"],
                     help="ansatz family (default: %(default)s)")
    sub.add_argument("--k", type=int, default=1,
                     help="number of repeated blocks for kupccgsd "
                          "(default: %(default)s)")
    sub.add_argument("--screen-eps", dest="screen_eps", type=float,
                     default=1e-8,
                     help="drop excitations with |initial amplitude| below "
                          "this (default: %(default)s)")
    sub.add_argument("--sort", dest="sort", default=True,
                     action=argparse.BooleanOptionalAction,
                     help="order doubles by descending initial amplitude "
                          "(default: %(default)s)")
    sub.add_argument("--ansatz-file", dest="ansatz_file",
                     help="excitation list for --ansatz custom")
    sub.add_argument("--maxiter", type=_at_least(0), default=_MAXITER,
                     help="optimizer iteration cap (default: %(default)s)")
    _add_seed(sub)


def _add_evolution(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--nbas", type=int, default=8,
                     help="oscillator levels per mode (default: %(default)s)")
    sub.add_argument("--t-final", dest="t_final", type=float, default=10.0,
                     help="evolution time (default: %(default)s)")
    sub.add_argument("--tau", type=float, default=0.02,
                     help="integrator step (default: %(default)s)")
    sub.add_argument("--integrator", choices=["euler", "rk4"], default="rk4",
                     help="fixed-step integrator (default: %(default)s)")
    sub.add_argument("--method", choices=["vha", "exact"], default="vha",
                     help="variational ansatz or exact propagation "
                          "(default: %(default)s)")
    sub.add_argument("--encoding", choices=["unary", "binary", "gray"],
                     default="gray",
                     help="level-to-qubit encoding (default: %(default)s)")
    sub.add_argument("--eps-reg", dest="eps_reg", type=float, default=1e-5,
                     help="equation-of-motion regularization "
                          "(default: %(default)s)")
    sub.add_argument("--omega", type=float,
                     help="oscillator frequency (default: spin-boson 1, "
                          "marcus 0.5)")
    sub.add_argument("--g", type=float,
                     help="coupling strength (default: spin-boson 0.5, "
                          "marcus 1)")
    sub.add_argument("--v", type=float, default=-0.1,
                     help="marcus: electronic coupling "
                          "(default: %(default)s)")


def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The ``vqchem`` parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="vqchem",
        description="variational quantum chemistry and dynamics workflows",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    p_vqe = subparsers.add_parser(
        "vqe", help="unitary coupled-cluster optimization")
    _add_molecular(p_vqe, reference=True)
    _add_ansatz(p_vqe)
    p_vqe.add_argument("--save-ansatz", dest="save_ansatz",
                       help="write the optimized excitation list here")
    p_vqe.add_argument("--save-state", dest="save_state",
                       help="write the optimized CI vector here")
    _add_common(p_vqe)

    p_adapt = subparsers.add_parser(
        "adapt", help="adaptive ansatz growth")
    _add_molecular(p_adapt, reference=True)
    p_adapt.add_argument("--epsilon", type=float, default=1e-3,
                         help="pool-gradient-norm stop "
                              "(default: %(default)s)")
    p_adapt.add_argument("--max-iter", dest="max_iter", type=_at_least(0),
                         default=50,
                         help="growth iteration cap (default: %(default)s)")
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
    p_noisy.add_argument("--layers", type=int, default=1,
                         help="entangling layers (default: %(default)s)")
    p_noisy.add_argument("--p", type=float,
                         help="CNOT depolarizing probability (default: 0)")
    p_noisy.add_argument("--noise",
                         help="noise spec, e.g. "
                              '\'{gate="CNOT", channel="depolarizing", '
                              "p=0.02}'")
    p_noisy.add_argument("--shots", type=int,
                         help="sample the objective with this many shots "
                              "per term")
    _add_transform(p_noisy)
    _add_seed(p_noisy)
    _add_common(p_noisy)

    p_dyn = subparsers.add_parser(
        "dynamics", help="variational real-time evolution")
    p_dyn.add_argument("--model", choices=["spin-boson", "marcus", "custom"],
                       default="spin-boson",
                       help="model family (default: %(default)s)")
    p_dyn.add_argument("--layers", type=int, default=3,
                       help="ansatz layers (default: %(default)s)")
    _add_evolution(p_dyn)
    p_dyn.add_argument("--epsilon", type=float, default=0.0,
                       help="spin-boson: qubit bias (default: %(default)s)")
    p_dyn.add_argument("--delta", type=float, default=1.0,
                       help="spin-boson: tunneling (default: %(default)s)")
    p_dyn.add_argument("--dg", type=float, default=-1.0,
                       help="marcus: driving force (default: %(default)s)")
    _add_common(p_dyn, ("csv", "json"), "csv")

    p_hub = subparsers.add_parser(
        "hubbard", help="Hubbard chain UCC vs exact")
    p_hub.add_argument("--sites", type=int, help="number of sites (required)")
    p_hub.add_argument("--t", type=float, default=1.0,
                       help="hopping (default: %(default)s)")
    p_hub.add_argument("--u", type=float, default=4.0,
                       help="on-site repulsion (default: %(default)s)")
    p_hub.add_argument("--periodic", action=argparse.BooleanOptionalAction,
                       default=False, help="periodic boundary conditions "
                                           "(default: %(default)s)")
    _add_ansatz(p_hub)
    _add_common(p_hub)

    p_conv = subparsers.add_parser(
        "convert", help="format conversions")
    _add_molecular(p_conv)
    p_conv.add_argument("--to",
                        choices=["fcidump", "fermion", "jw", "parity",
                                 "parity-reduced", "state-json"],
                        help="conversion target")
    p_conv.add_argument("--load-state", dest="load_state",
                        help="CI vector file for --to state-json")
    _add_common(p_conv, formats=())

    p_sweep = subparsers.add_parser(
        "sweep", help="parameter scans producing one row per point")
    p_sweep.add_argument("--kind", choices=["noise", "shots", "dg", "files"],
                         help="sweep axis")
    _add_molecular(p_sweep, reference=True)
    _add_ansatz(p_sweep)
    p_sweep.add_argument("--files", nargs="+",
                         help="FCIDUMP paths for --kind files")
    p_sweep.add_argument("--layers",
                         help="layer list for --kind noise (default: 1,2,3), "
                              "or layer count (default: shots 1, dg 3)")
    p_sweep.add_argument("--p-grid", dest="p_grid", default="0:0.8:0.1",
                         help="noise probabilities: 'a,b,c' or "
                              "'start:stop:step' (default: %(default)s)")
    p_sweep.add_argument("--gate", default="CNOT",
                         help="noisy gate kind (default: %(default)s)")
    _add_transform(p_sweep)
    p_sweep.add_argument("--shots-grid", dest="shots_grid",
                         default="256,512,1024,2048,4096,8192",
                         help="shot counts (default: %(default)s)")
    p_sweep.add_argument("--repeats", type=_at_least(1), default=64,
                         help="samples per shot count (default: %(default)s)")
    p_sweep.add_argument("--dg-grid", dest="dg_grid", default="0:-2:-0.25",
                         help="driving forces (default: %(default)s)")
    _add_evolution(p_sweep)
    p_sweep.add_argument("--fit-start", dest="fit_start", type=float,
                         default=2.0,
                         help="rate-fit window start (default: %(default)s)")
    p_sweep.add_argument("--fit-stop", dest="fit_stop", type=float,
                         default=8.0,
                         help="rate-fit window stop (default: %(default)s)")
    p_sweep.add_argument("--fit-beta", dest="fit_beta", default=False,
                         action=argparse.BooleanOptionalAction,
                         help="append a least-squares theory-rate column "
                              "(default: %(default)s)")
    _add_common(p_sweep, ("csv", "json"), "csv")

    return parser, subparsers.choices


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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _read_config(args.config)
        if config:  # config values go before the command line's own flags
            tokens = _config_tokens(commands[args.subcommand], config,
                                    args.subcommand)
            args = parser.parse_args(argv[:1] + tokens + argv[1:])
        return _RUNNERS[args.subcommand](args)
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
