"""Per-layer tracing installed from outside the program.

The tracer replaces each listed public function with a timing wrapper in
every ``vqchem`` module namespace that binds it, so calls made inside a
module (``energy_and_gradient`` -> ``apply_hamiltonian``) are caught as well
as calls across modules.  Each call becomes a span ``[name, start, end,
parent]`` kept in memory; the worker writes the list out when the workload
ends.  Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import functools
import resource
import statistics
import sys
import time
import weakref

# module -> public functions wrapped in that module
LAYERS = {
    "integrals": ("load_fcidump", "mp2", "build_fermion_hamiltonian"),
    "operators": ("parity_transform",),
    "ansatz": ("make_uccsd_problem", "problem_energy_and_gradient"),
    "civector": ("make_ci_space", "apply_hamiltonian", "ucc_state",
                 "energy_and_gradient", "apply_excitation",
                 "hamiltonian_diagonal", "fci_ground_state"),
    "vqe": ("kernel", "print_summary"),
    "gates": ("simulate_state", "simulate_density", "expectation",
              "parameter_shift_gradient", "hea_kernel"),
    "dynamics": ("qubit_encode", "build_vha", "time_evolve", "ansatz_state",
                 "assemble_eom", "solve_thetadot"),
    "cli": ("main",),
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# counts beyond calls/total/self, in the order they are reported
SPECIAL_METRICS = {
    "civector.h_builds": "count",
    "civector.h_build_s": "s",
    "civector.h_build_rss_mb": "MB",
    "civector.h_apply_ms": "ms",
    "civector.fci.h_applies": "count",
    "vqe.nit": "count",
    "vqe.nfev": "count",
    "vqe.nfev_per_nit": "ratio",
    "gates.hea.nit": "count",
    "gates.hea.nfev": "count",
}

# metrics that must repeat exactly between two traced runs of one input
COUNT_METRICS = (
    [f"{name}.calls" for name in SPAN_NAMES]
    + [name for name, unit in SPECIAL_METRICS.items() if unit == "count"]
)

_APPLY = "civector.apply_hamiltonian"
_OPTIMIZERS = {"vqe.kernel": "vqe", "gates.hea_kernel": "gates.hea"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(SPECIAL_METRICS)
    units["trace.overhead_s"] = "s"
    return units


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans and counters of one traced workload run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        # space -> ids of the integral sets already applied on it
        self._applied = weakref.WeakKeyDictionary()
        self.builds: list[tuple[int, float]] = []  # (span index, RSS growth)
        self.optimizers = {prefix: [0, 0] for prefix in _OPTIMIZERS.values()}

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "vqchem"
                                         or name.startswith("vqchem."))]
        for mod, fns in LAYERS.items():
            home = sys.modules[f"vqchem.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def restore(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _first_apply(self, args, kwargs) -> bool:
        space = args[0] if args else kwargs["space"]
        s = args[2] if len(args) > 2 else kwargs["s"]
        seen = self._applied.setdefault(space, set())
        if id(s) in seen:
            return False
        seen.add(id(s))
        return True

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            build = name == _APPLY and tracer._first_apply(args, kwargs)
            rss0 = _maxrss_mb() if build else 0.0
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if build:
                tracer.builds.append((index, _maxrss_mb() - rss0))
            prefix = _OPTIMIZERS.get(name)
            if prefix is not None:
                tracer.optimizers[prefix][0] += int(result.nit)
                tracer.optimizers[prefix][1] += int(result.nfev)
            return result

        return wrapper

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (without
        ``trace.overhead_s``, which needs an untraced run)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_s[i]

        build_spans = {i for i, _ in self.builds}
        warm = [end - start for i, (name, start, end, _)
                in enumerate(self.spans)
                if name == _APPLY and i not in build_spans]
        out["civector.h_builds"] = len(self.builds)
        out["civector.h_build_s"] = sum(
            self.spans[i][2] - self.spans[i][1] for i in build_spans)
        out["civector.h_build_rss_mb"] = sum(g for _, g in self.builds)
        out["civector.h_apply_ms"] = (1000.0 * statistics.median(warm)
                                      if warm else 0.0)
        out["civector.fci.h_applies"] = sum(
            1 for name, _, _, parent in self.spans
            if name == _APPLY and parent >= 0
            and self.spans[parent][0] == "civector.fci_ground_state")
        for prefix, (nit, nfev) in self.optimizers.items():
            out[f"{prefix}.nit"] = nit
            out[f"{prefix}.nfev"] = nfev
        nit, nfev = self.optimizers["vqe"]
        out["vqe.nfev_per_nit"] = nfev / nit if nit else 0.0
        return out
