#!/usr/bin/env python3
"""vqchem benchmark: set-up time, time to solution and peak memory of four
workloads, checked against stored references, plus a per-layer trace.

    python3 bench/run.py                      # every workload, seed 0
    python3 bench/run.py --workload ucc-h8 --seed 3 --seconds 10 --trace 0

Each repetition of a workload runs in a fresh worker process (``worker.py``)
with one BLAS thread and an address-space cap.  A run sweeps its workload
over the input points of the grid in ``references.json``, starting at the
point its seed picks, until ``--seconds`` have passed and it has made its
minimum number of repetitions (in whole sweeps where the points differ in
cost), and reports medians; with ``--trace 1`` it alternates untraced and
traced repetitions of the seed's point and reports per-layer metrics instead.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
Details of every repetition, the environment and the trace spans are written
under ``.bench_run/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRIPTS = ROOT / "scripts"
RUN_DIR = ROOT / ".bench_run"
REFERENCES = BENCH / "references.json"

THREAD_CAP = 1          # BLAS threads per worker; at or below any nproc
MIN_TRACE_PAIRS = 2     # two traced repetitions show the counts repeat
RUN_LIMIT_S = 170.0     # workers still running at this point are killed
LAST_START_MARGIN_S = 30.0  # no repetition starts this close to the limit
THREAD_VARS = ("CIVEC_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

# Answer checks, in Hartree unless noted.
FCI_TOL = 1e-8          # exact energies against their stored value
VARIATIONAL_TOL = 1e-6  # an optimum reached along another optimizer path
ORDER_TOL = 1e-9        # slack in E_FCI <= E_method <= E_HF
SZ_TOL = 1e-6           # largest <sigma_z> error against its stored value
WRONG_SHIFT = 1e-3      # --wrong-reference moves every stored value by this


@dataclass(frozen=True)
class Workload:
    name: str
    atoms: int | None   # hydrogen-chain length; None for the spin-boson model
    cap_mb: int         # address-space cap of each worker process
    error_metric: str   # the accuracy figure printed beside the timings
    min_reps: int = 4   # short repetitions get more samples per run
    # whether every grid point costs the same, so a run may stop within a
    # sweep; otherwise it stops only between whole sweeps
    even_cost: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("ucc-h8", 8, 2048, "energy_err_mh"),
    Workload("fci-h10", 10, 5120, "energy_err_mh", min_reps=3,
             even_cost=True),
    Workload("hea-h4", 4, 1024, "energy_err_mh", min_reps=12),
    Workload("dynamics-sb", None, 1024, "sz_err", min_reps=8,
             even_cost=True),
)}

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
ERROR_UNITS = {"energy_err_mh": "mH", "sz_err": "1"}


def load_references() -> list[dict]:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["points"]


def write_input(workload: Workload, point: dict, workdir: Path) -> dict:
    """The program's inputs at one grid point (``{"spacing_angstrom": x}``
    or ``{"spin_boson_g": g}``), generated before timing."""
    if workload.atoms is None:
        return {"g": point["spin_boson_g"]}
    spacing = point["spacing_angstrom"]
    path = workdir / f"h{workload.atoms}_{spacing:.4f}.fcidump"
    if not path.exists():
        if str(SCRIPTS) not in sys.path:
            sys.path.insert(0, str(SCRIPTS))
        import make_fixtures

        h_mo, eri_mo, e_nuc, *_ = make_fixtures.hydrogen_chain(
            workload.atoms, spacing)
        make_fixtures.write_fcidump(path, h_mo, eri_mo, e_nuc,
                                    workload.atoms)
    return {"fcidump": str(path)}


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREAD_CAP)
    path = [str(SRC), str(BENCH)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def _exit_class(code: int) -> str:
    if code < 0:
        try:
            return signal.Signals(-code).name
        except ValueError:
            return f"Signal{-code}"
    return f"Exit{code}"


def run_worker(request: dict, result_path: Path, deadline: float) -> dict:
    """Runs one worker process; returns its result with ``setup_s`` added,
    or an ``error`` when it was killed, timed out or wrote nothing."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(request),
             str(result_path)],
            cwd=ROOT, env=_worker_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(5.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return {"error": {"class": "Timeout",
                          "message": "worker killed at the run deadline"}}
    if not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": {"class": _exit_class(proc.returncode),
                          "message": tail[0][:500]}}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - start
    return result


def check(workload: str, out: dict, ref: dict) -> tuple[list[str], float]:
    """Failed checks of one answer, and its accuracy figure."""
    failures = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    if "converged" in out:
        need(out["converged"], "not converged")
    if workload == "ucc-h8":
        e = out["e_ucc"]
        need(abs(out["e_fci"] - ref["e_fci"]) <= FCI_TOL,
             f"E_FCI {out['e_fci']!r} != stored {ref['e_fci']!r}")
        need(abs(out["e_hf"] - ref["e_hf"]) <= FCI_TOL,
             f"E_HF {out['e_hf']!r} != stored {ref['e_hf']!r}")
        need(abs(e - ref["e_ucc"]) <= VARIATIONAL_TOL,
             f"E_UCC {e!r} != stored {ref['e_ucc']!r}")
        need(ref["e_fci"] - ORDER_TOL <= e <= out["e_hf"] + ORDER_TOL,
             "E_FCI <= E_UCC <= E_HF violated")
        return failures, 1000.0 * (e - ref["e_fci"])
    if workload == "fci-h10":
        e = out["e_fci"]
        need(out["dim"] == ref["dim"], f"dimension {out['dim']}")
        need(abs(e - ref["e_fci"]) <= FCI_TOL,
             f"E_FCI {e!r} != stored {ref['e_fci']!r}")
        need(e <= out["e_hf"] + ORDER_TOL, "E_FCI > E_HF")
        return failures, 1000.0 * abs(e - ref["e_fci"])
    if workload == "hea-h4":
        e = out["e_hea"]
        need(abs(e - ref["e_hea"]) <= VARIATIONAL_TOL,
             f"E_HEA {e!r} != stored {ref['e_hea']!r}")
        need(ref["e_fci"] - ORDER_TOL <= e <= ref["e_hf"] + ORDER_TOL,
             "E_FCI <= E_HEA <= E_HF violated")
        need(abs(out["e_noisy"] - ref["e_noisy"]) <= VARIATIONAL_TOL,
             f"noisy E {out['e_noisy']!r} != stored {ref['e_noisy']!r}")
        need(out["noisy_grad_finite"], "noisy gradient not finite")
        return failures, 1000.0 * (e - ref["e_fci"])
    # dynamics-sb
    need(out["finite"] and out["sz_abs_max"] <= 1.0 + ORDER_TOL,
         "<sigma_z> outside [-1, 1]")
    need(out["n_points"] == ref["n_points"], f"{out['n_points']} points")
    need(abs(out["sz_err"] - ref["sz_err"]) <= SZ_TOL,
         f"sz_err {out['sz_err']!r} != stored {ref['sz_err']!r}")
    return failures, out["sz_err"]


def shifted(ref: dict) -> dict:
    """A deliberately wrong reference, to exercise the failure path."""
    return {k: (v + WRONG_SHIFT if isinstance(v, float) else v)
            for k, v in ref.items()}


def schedule(workload: Workload, seed: int, n_points: int, traced: bool):
    """(grid point, traced) of each repetition, and whether a run may stop
    before it.  An untraced run sweeps every grid point in turn, starting at
    the seed's point, and makes at least ``min_reps`` repetitions; unless its
    points cost the same it stops only between whole sweeps, so all runs of
    a workload measure the same inputs.  A traced run alternates untraced
    and traced repetitions of the seed's point."""
    j = 0
    while True:
        if traced:
            yield seed % n_points, j % 2 == 1, j >= 2 * MIN_TRACE_PAIRS \
                and j % 2 == 0
        else:
            yield (seed + j) % n_points, False, j >= workload.min_reps \
                and (workload.even_cost or j % n_points == 0)
        j += 1


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            wrong_reference: bool, workdir: Path, run_start: float) -> dict:
    """All repetitions of one workload in one run."""
    from layertrace import COUNT_METRICS

    points = load_references()
    deadline = run_start + RUN_LIMIT_S
    reps = []
    start = time.monotonic()
    for j, (k, is_traced, may_stop) in enumerate(
            schedule(workload, seed, len(points), traced)):
        now = time.monotonic()
        if (may_stop and now - start >= seconds) or (
                j > 0 and now >= deadline - LAST_START_MARGIN_S):
            break
        ref = points[k][workload.name]
        request = {"workload": workload.name, "cap_mb": workload.cap_mb,
                   "out_prefix": str(workdir / f"rep{j}-"),
                   **write_input(workload, ref["input"], workdir)}
        if wrong_reference:
            ref = shifted(ref)
        if is_traced:
            request["spans"] = str(
                RUN_DIR / f"spans-{workload.name}-seed{seed}-rep{j}.json")
        result = run_worker(request, workdir / f"rep{j}.json", deadline)
        rep = {"rep": j, "point": k, "traced": is_traced,
               "setup_s": result.get("setup_s"),
               "solve_s": result.get("solve_s"),
               "peak_rss_mb": result.get("peak_rss_mb"),
               "error": result.get("error"), "failures": [],
               "trace": result.get("trace")}
        if rep["error"] is None:
            rep["failures"], rep["accuracy"] = check(
                workload.name, result["outcome"], ref)
            rep["outcome"] = result["outcome"]
        if is_traced and rep["trace"] is not None:
            first = next(r["trace"] for r in reps + [rep]
                         if r["traced"] and r["trace"] is not None)
            moved = [m for m in COUNT_METRICS if rep["trace"][m] != first[m]]
            if moved:
                rep["failures"].append(
                    f"trace counts differ between repetitions: {moved}")
        rep["ok"] = rep["error"] is None and not rep["failures"]
        reps.append(rep)
    return summarize(workload, reps, traced)


def _median(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(workload: Workload, reps: list[dict], traced: bool) -> dict:
    ok = [r for r in reps if r["ok"]]
    basis = ok or reps
    summary = {
        "workload": workload.name,
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "errors": sorted(
            (r["error"]["class"] if r["error"] else "CheckFailed")
            for r in reps if not r["ok"]),
        "reps": reps,
    }
    untraced = [r for r in basis if not r["traced"]]
    metrics = {
        "setup_s": _median([r["setup_s"] for r in reps]),
        "solve_s": _median([r["solve_s"] for r in untraced]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
    }
    accuracy = _median([r.get("accuracy") for r in basis])
    summary["end_to_end"] = metrics
    summary["accuracy"] = {workload.error_metric: accuracy}
    if traced:
        from layertrace import COUNT_METRICS, per_layer_units

        traces = [r["trace"] for r in basis
                  if r["traced"] and r["trace"] is not None]
        if traces:
            layer = {}
            for name in per_layer_units():
                if name == "trace.overhead_s":
                    continue
                if name in COUNT_METRICS:
                    layer[name] = traces[0][name]
                else:
                    layer[name] = statistics.median(t[name] for t in traces)
            traced_solve = _median([r["solve_s"] for r in basis
                                    if r["traced"]])
            if None not in (traced_solve, metrics["solve_s"]):
                layer["trace.overhead_s"] = traced_solve - metrics["solve_s"]
            summary["per_layer"] = layer
    return summary


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "vqchem").rglob("*.py")))
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "thread_cap": THREAD_CAP,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }


def _fmt(value, digits: int = 4) -> str:
    return "-" if value is None else f"{value:.{digits}g}"


def print_summary(summary: dict) -> None:
    m = summary["end_to_end"]
    (acc_name, acc), = summary["accuracy"].items()
    errors = ", ".join(summary["errors"]) or "none"
    print(f"{summary['workload']:<12} "
          f"attempted={summary['attempted']} failed={summary['failed']} "
          f"setup_s={_fmt(m['setup_s'])} s  solve_s={_fmt(m['solve_s'])} s  "
          f"peak_rss_mb={_fmt(m['peak_rss_mb'])} MB  "
          f"{acc_name}={_fmt(acc)} {ERROR_UNITS[acc_name]}  "
          f"errors: {errors}")
    for rep in summary["reps"]:
        if not rep["ok"]:
            what = rep["error"] or rep["failures"]
            print(f"  rep {rep['rep']} (point {rep['point']}) failed: {what}")
    layer = summary.get("per_layer")
    if layer:
        for name, value in layer.items():
            if value:
                print(f"  {name:<44} {value:.6g}")


def parse_args(argv=None) -> argparse.Namespace:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            default_seconds = json.load(fh)["run_seconds"]
    except (OSError, ValueError, KeyError):
        default_seconds = 10
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--wrong-reference", action="store_true",
                        help="check against deliberately wrong references "
                             "(every repetition must then fail)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run_start = time.monotonic()
    missing = [p for p in (SRC / "vqchem" / "__init__.py",
                           SCRIPTS / "make_fixtures.py", REFERENCES)
               if not p.is_file()]
    if missing:
        print(f"bench: cannot run without {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        # one untimed import fills the bytecode cache of a fresh checkout
        warm = run_worker({"workload": "import", "cap_mb": 1024},
                          workdir / "import.json", run_start + RUN_LIMIT_S)
        if warm.get("error"):
            print(f"bench: the program does not import: {warm['error']}",
                  file=sys.stderr)
            return 1
        env = environment()
        print("environment: " + json.dumps(env, sort_keys=True))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        summaries = [
            measure(WORKLOADS[name], args.seed, args.seconds,
                    bool(args.trace), args.wrong_reference, workdir,
                    run_start if len(names) == 1 else time.monotonic())
            for name in names
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for summary in summaries:
        print_summary(summary)
        if args.trace:
            from layertrace import per_layer_units

            units, values = per_layer_units(), summary.get("per_layer", {})
        else:
            units, values = END_TO_END, summary["end_to_end"]
        if any(values.get(name) is None for name in units):
            print(f"bench: {summary['workload']}: no repetition finished",
                  file=sys.stderr)
            return 1
        prefix = "" if len(summaries) == 1 else summary["workload"] + "."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
        record = {"env": env, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **summary}
        path = RUN_DIR / (f"result-{summary['workload']}-seed{args.seed}-"
                          f"trace{args.trace}.json")
        path.write_text(json.dumps(record, indent=1, default=str) + "\n",
                        encoding="utf-8")

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
