"""Generated hydrogen-chain integrals and fresh-process runs for the tests
that measure memory or need sizes beyond the stored fixtures."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def chain_fcidump(tmp_path, n_atoms: int) -> Path:
    """FCIDUMP of an evenly spaced hydrogen chain (0.8 A, STO-3G)."""
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import make_fixtures
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    h_mo, eri_mo, e_nuc, *_ = make_fixtures.hydrogen_chain(n_atoms, 0.8)
    fcidump = tmp_path / f"h{n_atoms}.fcidump"
    make_fixtures.write_fcidump(fcidump, h_mo, eri_mo, e_nuc, n_atoms)
    return fcidump


def run_capped(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
