"""Variational optimizers and result reporting.

This module holds every optimizer of the package, both in numpy.  Exact
objectives run L-BFGS (history 10) on the analytic reverse-sweep gradient:
the unconstrained path of L-BFGS-B (Byrd, Lu, Nocedal & Zhu, 1995) with a
strong-Wolfe line search.  :func:`kernel` starts its quasi-Newton model from
each parameter's Epstein-Nesbet curvature at the reference, which halves
the evaluations of UCCSD on the bundled h6 and h8.  Without that curvature,
as for the hardware-efficient ansatz, the driver takes the iteration and
evaluation counts of scipy's L-BFGS-B on the UCCSD and hardware-efficient
problems of the test suite.  It stops when the largest gradient component
is at most 1e-6, the same test that reports convergence, or after 200
iterations, and no randomness enters it.  Sampled objectives run SPSA
(Spall, 1992) for a fixed 200 iterations, with its perturbations drawn from
a seeded generator.  Identical problems and seeds produce identical
results.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .ansatz import (UCCProblem, _problem_curvature,
                     problem_energy_and_gradient)
from .civector import CIVector, check_vector_dim, make_ci_space, ucc_state
from .errors import InvalidParams
from .integrals import hf_energy, mp2

# Where L-BFGS stops and what counts as converged.  Much below it, the
# energy a step can still gain falls under the energy's rounding error: the
# line search fails and the evaluation count follows last-digit rounding.
_GRAD_TOL = 1e-6
_MAXITER = 200
_HISTORY = 10
# Strong-Wolfe constants and evaluation cap of L-BFGS-B's line search, and
# the machine epsilon of its curvature test for skipping a pair.
_C1, _C2 = 1e-3, 0.9
_MAX_SEARCH = 20
_EPS = float(np.finfo(float).eps)
# SPSA's gains a_k = a / (k + 1 + A)^alpha and c_k = c / (k + 1)^gamma,
# with Spall's standard exponents, and its fixed budget of iterations.
_SPSA_A, _SPSA_STABILITY, _SPSA_ALPHA = 0.2, 20, 0.602
_SPSA_C, _SPSA_GAMMA, _SPSA_ITERS = 0.2, 0.101, 200


@dataclass
class OptResult:
    """Outcome of one variational minimization."""

    e: float
    x: np.ndarray
    init_guess: np.ndarray
    nit: int
    nfev: int
    njev: int
    grad_at_opt: np.ndarray
    converged: bool
    message: str
    opt_time: float


def kernel(problem: UCCProblem, maxiter: int = _MAXITER) -> OptResult:
    """Minimize the ansatz energy starting from ``problem.init_guess``.

    L-BFGS is preconditioned with each parameter's Epstein-Nesbet curvature
    at the reference (:func:`vqchem.ansatz._problem_curvature`); when some
    parameter has none, as k-UpCCGSD's generalized excitations, it runs
    unpreconditioned.  Optimizer failures are not raised: the best point
    found is returned, and ``converged`` reports whether it is stationary
    within tolerance.
    """
    return _minimize_lbfgs(
        lambda x: problem_energy_and_gradient(problem, x),
        problem.init_guess.copy(), maxiter, _problem_curvature(problem))


def _minimize_lbfgs(objective, x0: np.ndarray, maxiter: int = _MAXITER,
                    curvature: np.ndarray | None = None) -> OptResult:
    """L-BFGS on ``objective(x) -> (energy, gradient)`` from ``x0``, the
    driver of :func:`kernel` and :func:`vqchem.gates.hea_kernel`.

    This is the unconstrained path of L-BFGS-B (Byrd, Lu, Nocedal & Zhu,
    SIAM J. Sci. Comput. 16, 1190 (1995)) in numpy, so that importing the
    package loads no ``scipy.optimize``.  The direction comes from the
    two-loop recursion with H0 = (s.y / y.y) I, or H0 = diag(1/curvature)
    when a positive ``curvature`` per parameter is given; a pair with
    s.y <= eps * (-g.s) is skipped.  The first trial step is
    min(1/|d|, 1e10) without ``curvature`` and 1 with it, later ones 1, and
    a strong-Wolfe search (:func:`_wolfe_search`) accepts it.  A failed
    search restarts once from steepest descent (scaled by 1/curvature, if
    given) with the history cleared; a failure with no history stops at the
    lowest point evaluated since the last accepted step, that step's
    iterate included.  The run also stops when max|grad| is at most
    ``_GRAD_TOL``, after ``maxiter`` iterations, or when an iteration
    lowers the energy by at most 1e-18 relative.  A point is converged when
    max|grad| is at most ``_GRAD_TOL``, whichever stop was taken."""
    t0 = time.perf_counter()
    e, grad = objective(x0)
    nfev, nit = 1, 0
    if x0.size == 0:
        return OptResult(
            e=float(e), x=x0, init_guess=x0.copy(), nit=0, nfev=1, njev=1,
            grad_at_opt=np.zeros(0), converged=True,
            message="nothing to optimize: zero parameters",
            opt_time=time.perf_counter() - t0,
        )
    x, e, grad = x0.copy(), float(e), np.asarray(grad, dtype=float)
    pairs: deque = deque(maxlen=_HISTORY)
    stuck = (x, e, grad)  # the lowest point since the last accepted step
    small_gain = False
    while True:
        if np.max(np.abs(grad)) <= _GRAD_TOL:
            message = f"converged: max|grad| <= {_GRAD_TOL:g}"
            break
        if small_gain:
            message = "stopped: relative energy reduction <= 1e-18"
            break
        if nit >= maxiter:
            message = f"stopped: iteration limit {maxiter} reached"
            break
        d = _lbfgs_direction(grad, pairs, curvature)
        step = (min(1.0 / np.linalg.norm(d), 1e10)
                if nit == 0 and curvature is None else 1.0)
        found, lowest, evals = _wolfe_search(objective, x, e, grad, d, step)
        nfev += evals
        if found is None:
            stuck = min(stuck, lowest, key=lambda p: p[1])
            if not pairs:
                message = "stopped: line search failed along steepest descent"
                x, e, grad = stuck
                break
            pairs.clear()
            continue
        nit += 1
        s, y = found[0] - x, found[2] - grad
        small_gain = e - found[1] <= 1e-18 * max(abs(e), abs(found[1]), 1.0)
        if float(s @ y) > _EPS * -float(grad @ s):
            pairs.append((s, y, 1.0 / float(s @ y)))
        x, e, grad = stuck = found
    return OptResult(
        e=e, x=x, init_guess=x0, nit=nit, nfev=nfev, njev=nfev,
        grad_at_opt=grad,
        converged=float(np.max(np.abs(grad))) <= _GRAD_TOL,
        message=message,
        opt_time=time.perf_counter() - t0,
    )


def _minimize_spsa(objective, x0: np.ndarray, seed: int) -> OptResult:
    """SPSA (Spall, IEEE TAC 37, 332 (1992)) on a sampled ``objective(x)``
    from ``x0``: ``_SPSA_ITERS`` steps of a_k along the gradient estimate
    of two evaluations at x +/- c_k delta, the signs delta drawn from
    ``np.random.default_rng(seed)``, then one evaluation at the last x.
    ``e`` is that sample, ``grad_at_opt`` the last estimate, and
    ``converged`` False: a sampled objective has no convergence test."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    x, grad = x0, np.zeros(x0.size)
    for k in range(_SPSA_ITERS):
        c_k = _SPSA_C / (k + 1) ** _SPSA_GAMMA
        delta = rng.choice((-1.0, 1.0), size=x.size)
        grad = (objective(x + c_k * delta)
                - objective(x - c_k * delta)) / (2.0 * c_k) * delta
        x = x - _SPSA_A / (k + 1 + _SPSA_STABILITY) ** _SPSA_ALPHA * grad
    return OptResult(
        e=float(objective(x)), x=x, init_guess=x0, nit=_SPSA_ITERS,
        nfev=2 * _SPSA_ITERS + 1, njev=0, grad_at_opt=grad, converged=False,
        message="stopped: SPSA has no convergence test on a sampled objective",
        opt_time=time.perf_counter() - t0)


def _lbfgs_direction(grad: np.ndarray, pairs, curvature) -> np.ndarray:
    """-H grad by the two-loop recursion (Nocedal & Wright, Algorithm 7.4)
    over the stored ``(s, y, 1/s.y)`` pairs, oldest first, from
    H0 = diag(1/curvature) if given, else (s.y / y.y) I of the newest pair
    (I without one)."""
    q = -grad
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(s @ q))
        q = q - alphas[-1] * y
    if curvature is not None:
        q = q / curvature
    elif pairs:
        s, y, rho = pairs[-1]
        q = q / (rho * float(y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - rho * float(y @ q)) * s
    return q


def _wolfe_search(objective, x, e0, g0, d, step):
    """A step along ``d`` that meets the strong Wolfe conditions with
    c1 = 1e-3 and c2 = 0.9, the constants of L-BFGS-B's line search
    (Nocedal & Wright, Algorithms 3.5 and 3.6).  Returns ``(accepted,
    lowest, evaluations)``, each point as ``(x, e, grad)``: ``accepted`` is
    None after ``_MAX_SEARCH`` evaluations without an acceptable step or
    when ``d`` is not a descent direction, and ``lowest`` is the lowest
    point evaluated, the start included."""
    lowest = (x, e0, g0)
    slope0 = float(g0 @ d)
    if not slope0 < 0.0:
        return None, lowest, 0
    evals = 0

    def at(a):
        nonlocal evals, lowest
        evals += 1
        xa = x + a * d
        ea, ga = objective(xa)
        point = (xa, float(ea), np.asarray(ga, dtype=float))
        lowest = min(lowest, point, key=lambda p: p[1])
        return a, point[1], float(point[2] @ d), point

    def armijo(p):
        return p[1] <= e0 + _C1 * p[0] * slope0

    def curvature(p):
        return abs(p[2]) <= -_C2 * slope0

    prev = (0.0, e0, slope0, None)
    lo = hi = None
    while evals < _MAX_SEARCH:
        if hi is None:
            cur = at(step)
            if not armijo(cur) or (prev[0] > 0.0 and cur[1] >= prev[1]):
                lo, hi = prev, cur
            elif curvature(cur):
                return cur[3], lowest, evals
            elif cur[2] >= 0.0:
                lo, hi = cur, prev
            else:
                # extrapolate: the cubic's step, kept 1.1 to 4 times the
                # last increment beyond the current trial
                width = cur[0] - prev[0]
                trial = _cubic_min(prev, cur)
                step = cur[0] + 4.0 * width
                if not math.isnan(trial):
                    step = min(max(trial, cur[0] + 1.1 * width), step)
                step, prev = min(step, 1e10), cur
            continue
        # zoom: the cubic's step, or the midpoint when that falls outside
        # the bracket or within 1e-3 of its width of an end
        low, high = sorted((lo[0], hi[0]))
        trial = _cubic_min(lo, hi)
        margin = 1e-3 * (high - low)
        if not low + margin <= trial <= high - margin:
            trial = 0.5 * (low + high)
        cur = at(trial)
        if not armijo(cur) or cur[1] >= lo[1]:
            hi = cur
        elif curvature(cur):
            return cur[3], lowest, evals
        else:
            if cur[2] * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = cur
    return None, lowest, evals


def _cubic_min(p, q) -> float:
    """Minimizer of the cubic through the values and slopes of ``p`` and
    ``q`` (Nocedal & Wright, eq. 3.59); NaN when the cubic has none."""
    (a0, f0, d0, _), (a1, f1, d1, _) = p, q
    if a0 == a1:
        return math.nan
    c1 = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
    disc = c1 * c1 - d0 * d1
    if not disc >= 0.0:
        return math.nan
    c2 = math.copysign(math.sqrt(disc), a1 - a0)
    denom = d1 - d0 + 2.0 * c2
    if denom == 0.0:
        return math.nan
    return a1 - (a1 - a0) * (d1 + c2 - c1) / denom


# ---------------------------------------------------------------------------
# State and energy evaluation at explicit parameters
# ---------------------------------------------------------------------------

def _check_params(problem: UCCProblem, params) -> np.ndarray:
    params = np.asarray(params, dtype=float).ravel()
    if params.size != problem.n_params:
        raise InvalidParams(
            f"expected {problem.n_params} parameters, got {params.size}"
        )
    if not np.all(np.isfinite(params)):
        raise InvalidParams("parameters must be finite")
    return params


def civector_at(problem: UCCProblem, params) -> CIVector:
    """The prepared state in the full determinant space (exact also for
    pair-restricted problems, whose excitations are valid there); SizeLimit
    past :func:`vqchem.civector.check_vector_dim` comes before any work."""
    params = _check_params(problem, params)
    s = problem.integrals
    check_vector_dim(s.n_orb, s.n_elec)
    space = make_ci_space(s.n_orb, s.n_elec)
    return ucc_state(space, problem.ex_ops, params, problem.param_ids)


# ---------------------------------------------------------------------------
# Summary reporting
# ---------------------------------------------------------------------------

@dataclass
class SummaryReport:
    ansatz: dict
    energies: dict
    excitations: list
    optimization: dict
    text: str = field(repr=False, default="")


def _configuration_bitstring(problem: UCCProblem, ex) -> str:
    """Bitstring of the determinant that G = g - g-dagger reaches from the
    reference, in qubit order (qubit 0 leftmost).  Spin orbital k is bit k
    (alpha string above beta string); in the pair space spatial orbital p is
    bit p.  g acts when its annihilators are occupied and its creators are
    free after them, otherwise g-dagger may; "-" when neither acts, or when
    creators and annihilators are one set (g is Hermitian, so G = 0)."""
    s = problem.integrals
    n = s.n_orb
    width = n if problem.hard_core_boson else 2 * n
    occupied = (1 << s.n_elec // 2) - 1
    ref = occupied if problem.hard_core_boson else occupied | occupied << n
    half = len(ex) // 2
    creators, annihilators = (
        sum({1 << (i % width) for i in part}) for part in (ex[:half], ex[half:]))
    if creators != annihilators:
        for src, dst in ((annihilators, creators), (creators, annihilators)):
            if ref & src == src and (ref ^ src) & dst == 0:
                return format(ref ^ src | dst, f"0{width}b")
    return "-" * width


def print_summary(problem: UCCProblem, result: OptResult,
                  fci_reference: float | None = None,
                  method_label: str = "UCCSD",
                  stream: TextIO | None = None) -> SummaryReport:
    """Render the standard result summary and return it structured.

    ``error (mH)`` is (E_method - E_FCI)*1000 and the correlation-energy
    percentage is (E_method - E_HF)/(E_FCI - E_HF)*100.  Without
    ``fci_reference`` both are None, and so is the FCI row; the text shows
    a dash for each.  The text goes to ``stream`` (stdout by default),
    followed by the wall-clock ``opt_time`` line; the report's ``text``
    leaves that line out, so writing it to a file gives the same bytes on
    every run.
    """
    s = problem.integrals
    e_hf = hf_energy(s)
    e_mp2 = e_hf + mp2(s).e_corr
    e_fci = None if fci_reference is None else float(fci_reference)

    def row(e):
        if e_fci is None:
            return {"energy": e, "error_mH": None, "corr_pct": None}
        denom = e_fci - e_hf
        corr = (e - e_hf) / denom * 100.0 if denom != 0.0 else float("nan")
        return {"energy": e, "error_mH": (e - e_fci) * 1000.0,
                "corr_pct": corr}

    energies = {
        "HF": row(e_hf),
        "MP2": row(e_mp2),
        "CCSD": None,  # out of scope; rendered as a dash
        method_label: row(result.e),
        "FCI": None if e_fci is None else row(e_fci),
    }
    excitations = []
    for ex, pid in zip(problem.ex_ops, problem.param_ids):
        excitations.append({
            "excitation": ex,
            "configuration": _configuration_bitstring(problem, ex),
            "parameter": float(result.x[pid]) if result.x.size else 0.0,
            "init_guess": float(problem.init_guess[pid]),
        })
    ansatz = {
        "n_qubits": problem.n_qubits,
        "n_params": problem.n_params,
        "n_excitations": len(problem.ex_ops),
        "initial_condition": "MP2" if np.any(problem.init_guess) else "zeros",
    }
    optimization = {
        "e": result.e, "x": result.x.tolist(), "nit": result.nit,
        "nfev": result.nfev, "njev": result.njev,
        "grad_at_opt": result.grad_at_opt.tolist(),
        "converged": result.converged, "message": result.message,
        "opt_time": result.opt_time,
    }

    lines = []
    bar = "#" * 20
    lines.append(f"{bar} Ansatz {bar}")
    lines.append(f" {'n_qubits':>18}: {ansatz['n_qubits']}")
    lines.append(f" {'n_params':>18}: {ansatz['n_params']}")
    lines.append(f" {'n_excitations':>18}: {ansatz['n_excitations']}")
    lines.append(f" {'initial condition':>18}: {ansatz['initial_condition']}")
    lines.append(f"{bar} Circuit {bar}")
    lines.append(" gate counting is out of scope for this package")
    lines.append(f"{bar} Energy {bar}")
    lines.append(f" {'':>6} {'energy (Hartree)':>18} {'error (mH)':>12} "
                 f"{'correlation energy (%)':>24}")
    for name, data in energies.items():
        data = data or {}
        e, error, corr = ("-" if data.get(key) is None
                          else format(data[key], spec)
                          for key, spec in (("energy", ".10f"),
                                            ("error_mH", ".3f"),
                                            ("corr_pct", ".3f")))
        lines.append(f" {name:>6} {e:>18} {error:>12} {corr:>24}")
    lines.append(f"{bar} Excitations {bar}")
    lines.append(f" {'excitation':>22} {'configuration':>16} "
                 f"{'parameter':>14} {'initial guess':>14}")
    for exrow in excitations:
        tup = "(" + ", ".join(str(i) for i in exrow["excitation"]) + ")"
        lines.append(
            f" {tup:>22} {exrow['configuration']:>16} "
            f"{exrow['parameter']:>14.8f} {exrow['init_guess']:>14.8f}"
        )
    lines.append(f"{bar} Optimization Result {bar}")
    lines.append(f" {'converged':>12}: {result.converged}")
    lines.append(f" {'message':>12}: {result.message}")
    lines.append(f" {'e':>12}: {result.e:.12f}")
    lines.append(f" {'x':>12}: {np.array2string(result.x, precision=8)}")
    lines.append(f" {'grad':>12}: "
                 f"{np.array2string(result.grad_at_opt, precision=2)}")
    lines.append(f" {'nit':>12}: {result.nit}")
    lines.append(f" {'nfev':>12}: {result.nfev}")
    lines.append(f" {'njev':>12}: {result.njev}")
    text = "\n".join(lines)
    print(f"{text}\n {'opt_time':>12}: {result.opt_time:.4f} s", file=stream)
    return SummaryReport(ansatz=ansatz, energies=energies,
                         excitations=excitations, optimization=optimization,
                         text=text)


def result_to_json(problem: UCCProblem, result: OptResult,
                   fci: float | None = None,
                   doci: float | None = None) -> dict:
    """The JSON payload written by the command-line tools; a pair
    (hard-core-boson) problem also reports its DOCI energy."""
    s = problem.integrals
    e_hf = hf_energy(s)
    e_mp2 = e_hf + mp2(s).e_corr
    energies = {"hf": e_hf, "mp2": e_mp2, "ucc": result.e, "fci": fci}
    if problem.hard_core_boson:
        energies["doci"] = doci
    return {
        "energies": energies,
        "params": result.x.tolist(),
        "ex_ops": [list(ex) for ex in problem.ex_ops],
        "param_ids": list(problem.param_ids),
        "nit": result.nit,
        "converged": result.converged,
    }
