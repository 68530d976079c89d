"""One repetition of one benchmark workload, in a fresh process.

    python3 bench/worker.py '<request JSON>' RESULT.json

``run.py`` starts this script once per repetition; the workload runs under
the address-space cap named in the request.  Interpreter start plus
``import vqchem`` is the set-up; the program calls of the workload are the
solve, timed on their own so the benchmark's own work (reading answers back,
building the exact dynamics reference) is left out.  The script writes its
timings, its peak RSS, the program's answers and any error class to
RESULT.json and leaves the checks to ``run.py``.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import numpy as np
import vqchem
import vqchem.cli

READY = time.monotonic()  # end of the set-up: interpreter start plus imports

HEA_LAYERS = 2
HEA_NOISE_P = 0.02


class ProgramError(Exception):
    """The command line returned non-zero; carries the error class it named."""

    def __init__(self, error_class: str, message: str):
        super().__init__(message)
        self.error_class = error_class


class Clock:
    """Accumulates the wall time spent inside ``with clock:`` blocks."""

    solve_s = 0.0

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.solve_s += time.perf_counter() - self._start


def _cli(clock: Clock, argv: list[str], output: str) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), clock:
        code = vqchem.cli.main(argv + ["--output", output])
    if code != 0:
        lines = err.getvalue().strip().splitlines() or [f"exit {code}"]
        head, _, _ = lines[-1].partition(":")
        error_class = ("UsageError" if head == "usage error"
                       else head if head.isidentifier() else f"Exit{code}")
        raise ProgramError(error_class, lines[-1])
    with open(output, encoding="utf-8") as fh:
        return json.load(fh)


def ucc_h8(req: dict, clock: Clock) -> dict:
    out = _cli(clock, ["vqe", "--fcidump", req["fcidump"]],
               req["out_prefix"] + "vqe.json")
    energies = out["energies"]
    return {"e_ucc": energies["ucc"], "e_fci": energies["fci"],
            "e_hf": energies["hf"], "converged": out["converged"],
            "nit": out["nit"]}


def fci_h10(req: dict, clock: Clock) -> dict:
    out = _cli(clock, ["fci", "--fcidump", req["fcidump"]],
               req["out_prefix"] + "fci.json")
    # not converging raises SolverFailed, which fails the repetition
    return {"e_fci": out["fci"], "e_hf": out["hf"], "dim": out["dim"]}


def _reference_angles(h, circuit) -> np.ndarray:
    """First-layer angles that make the ansatz prepare the basis state with
    the lowest Z-diagonal energy (the Hartree-Fock determinant).  Each CNOT
    ladder (control j, target j+1, ascending) maps bits to their prefix
    parities, so the bits are un-laddered once per layer."""
    n = h.n_qubits
    index = np.arange(1 << n)
    diag = np.zeros(1 << n)
    for term, coeff in h.terms.items():
        if all(letter == "Z" for _, letter in term):
            signs = np.ones(1 << n)
            for q, _ in term:
                signs = signs * (1.0 - 2.0 * ((index >> (n - 1 - q)) & 1))
            diag += coeff.real * signs
    bits = [int(b) for b in format(int(np.argmin(diag)), f"0{n}b")]
    for _ in range(HEA_LAYERS):
        bits = [bits[0]] + [bits[q] ^ bits[q - 1] for q in range(1, n)]
    angles = np.zeros(circuit.n_params)
    angles[:n] = np.pi * np.array(bits)
    return angles


def hea_h4(req: dict, clock: Clock) -> dict:
    with clock:
        s = vqchem.load_fcidump(req["fcidump"])
        h = vqchem.parity_transform(vqchem.build_fermion_hamiltonian(s),
                                    s.n_elec, reduce_two_qubits=True)
        circuit = vqchem.build_ry_ansatz(h.n_qubits, HEA_LAYERS)
    init = _reference_angles(h, circuit)
    with clock:
        ideal = vqchem.hea_kernel(circuit, init, h)
        noise = vqchem.NoiseModel(
            {"CNOT": vqchem.depolarizing_channel(HEA_NOISE_P, 2)})
        rho = vqchem.simulate_density(circuit, ideal.x, noise)
        e_noisy = vqchem.expectation(rho, h)
        grad = vqchem.parameter_shift_gradient(circuit, ideal.x, h, noise)
    return {"e_hea": ideal.e, "converged": bool(ideal.converged),
            "nit": ideal.nit, "nfev": ideal.nfev, "e_noisy": e_noisy,
            "noisy_grad_finite": bool(np.all(np.isfinite(grad)))}


def dynamics_sb(req: dict, clock: Clock) -> dict:
    flags = ["dynamics", "--g", repr(req["g"]), "--format", "json"]
    vha = _cli(clock, flags, req["out_prefix"] + "vha.json")
    return {"sz": vha["observables"]["sz"]}


def dynamics_sb_finish(req: dict, outcome: dict) -> dict:
    """Compares the variational curve with exact propagation, untimed."""
    exact = _cli(Clock(), ["dynamics", "--g", repr(req["g"]), "--format",
                           "json", "--method", "exact"],
                 req["out_prefix"] + "exact.json")
    sz, sz_exact = np.array(outcome.pop("sz")), np.array(
        exact["observables"]["sz"])
    outcome.update({
        "n_points": int(sz.size),
        "finite": bool(np.all(np.isfinite(sz))),
        "sz_abs_max": float(np.max(np.abs(sz))),
        "sz_err": (float(np.max(np.abs(sz - sz_exact)))
                   if sz.shape == sz_exact.shape else float("inf")),
    })
    return outcome


WORKLOADS = {
    "ucc-h8": ucc_h8,
    "fci-h10": fci_h10,
    "hea-h4": hea_h4,
    "dynamics-sb": dynamics_sb,
}
FINISH = {"dynamics-sb": dynamics_sb_finish}


def main() -> int:
    request = json.loads(sys.argv[1])
    cap = request["cap_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    result = {"ready": READY, "error": None}
    name = request["workload"]
    if name in WORKLOADS:
        tracer = None
        if request.get("spans"):
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        clock = Clock()
        try:
            outcome = WORKLOADS[name](request, clock)
            result["peak_rss_mb"] = (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            if tracer is not None:
                tracer.restore()
            if name in FINISH:
                outcome = FINISH[name](request, outcome)
            result["outcome"] = outcome
        except ProgramError as exc:
            result["error"] = {"class": exc.error_class, "message": str(exc)}
        except Exception as exc:  # noqa: BLE001  every failure is recorded
            result["error"] = {"class": type(exc).__name__,
                               "message": str(exc)[:500],
                               "traceback": traceback.format_exc()[-2000:]}
        result["solve_s"] = clock.solve_s
        result.setdefault("peak_rss_mb", resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.restore()
            result["trace"] = tracer.summary()
            with open(request["spans"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 1 if result["error"] else 0


if __name__ == "__main__":
    sys.exit(main())
