#!/usr/bin/env python3
"""Writes bench/references.json: the input of each workload at each point of
the seed grid, and the stored answers every benchmark run is checked against.

    python3 bench/make_references.py

The values are the program's own answers at the commit that added the
benchmark (for h4 also its exact and Hartree-Fock energies).  Regenerate them
only when the grid or a workload's inputs change, never to make a failing
check pass.  Takes about a minute and a half and 3.5 GB of memory (the H10
FCI).
"""

from __future__ import annotations

import json
import sys
import time

import run

# The input of each workload at each grid point.  Seed s starts its sweep
# at point s mod 4; point 0 is the bundled 0.8 A geometry and the command
# line's default coupling g = 0.5.  The optimizers' evaluation counts are
# chaotic in the geometry, so the other spacings of the two optimizing
# workloads are ones where the optimizer does as much work as at 0.8 A
# (ucc-h8: 75 to 80 evaluations) or takes its usual path (hea-h4: 10
# iterations, 13 evaluations); see README.md.
GRIDS = {
    "ucc-h8": [{"spacing_angstrom": x} for x in (0.8, 0.826, 0.828, 0.836)],
    "fci-h10": [{"spacing_angstrom": x} for x in (0.8, 0.805, 0.81, 0.815)],
    "hea-h4": [{"spacing_angstrom": x} for x in (0.8, 0.782, 0.798, 0.816)],
    "dynamics-sb": [{"spin_boson_g": g} for g in (0.5, 0.55, 0.6, 0.65)],
}

KEEP = {
    "ucc-h8": ("e_ucc", "e_fci", "e_hf"),
    "fci-h10": ("e_fci", "e_hf", "dim"),
    "hea-h4": ("e_hea", "e_noisy"),
    "dynamics-sb": ("sz_err", "n_points"),
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import vqchem

    workdir = run.RUN_DIR / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    points = []
    for k in range(len(GRIDS["ucc-h8"])):
        point = {}
        for name, workload in run.WORKLOADS.items():
            grid_input = GRIDS[name][k]
            inputs = run.write_input(workload, grid_input, workdir)
            request = {"workload": name, "cap_mb": workload.cap_mb,
                       "out_prefix": str(workdir / f"{name}-"), **inputs}
            result = run.run_worker(request, workdir / f"{name}.json",
                                    time.monotonic() + 600)
            if result["error"]:
                print(f"{name} at {grid_input}: {result['error']}",
                      file=sys.stderr)
                return 1
            out = result["outcome"]
            ref = {"input": grid_input}
            ref.update((key, out[key]) for key in KEEP[name])
            if name == "hea-h4":
                s = vqchem.load_fcidump(inputs["fcidump"])
                space = vqchem.make_ci_space(s.n_orb, s.n_elec)
                ref["e_fci"] = vqchem.fci_ground_state(space, s)[0]
                ref["e_hf"] = vqchem.hf_energy(s)
            failures, _ = run.check(name, out, ref)
            if failures:
                print(f"{name} at {grid_input}: {failures}", file=sys.stderr)
                return 1
            point[name] = ref
            print(f"point {k} {name}: {ref}", flush=True)
        points.append(point)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"points": points}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
