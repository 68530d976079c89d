"""Variational quantum algorithms for chemistry on configuration-space
vectors: integrals in, UCC/adaptive/hardware-efficient ground states and
variational real-time dynamics out.

The heavy lifting happens in plain numpy on compact representations
(determinant-space vectors, Pauli strings as bit-mask arrays, level-space
operators); ``CIVEC_NUM_THREADS`` caps the linear-algebra thread pool and
must be set before the first import.
"""

import os as _os

_thread_cap = _os.environ.get("CIVEC_NUM_THREADS")
if _thread_cap:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        _os.environ.setdefault(_var, _thread_cap)
del _os

from .errors import (
    DegenerateOrbitals,
    FitError,
    InvalidActiveSpace,
    InvalidChannel,
    InvalidExcitation,
    InvalidModel,
    InvalidOperator,
    InvalidParamMap,
    InvalidParams,
    InvalidProbability,
    InvalidSymbol,
    NumericalBlowup,
    ParseError,
    SizeLimit,
    SolverFailed,
    UnsupportedOpenShell,
    UnsupportedReduction,
    VqchemError,
    ZeroState,
)
from .operators import (
    FermionOperator,
    QubitOperator,
    jordan_wigner,
    parity_transform,
)
from .integrals import (
    ActiveSpaceResult,
    IntegralSet,
    MP2Result,
    active_space_reduce,
    build_fermion_hamiltonian,
    build_hubbard,
    canonicalize_integrals,
    fixture_path,
    hf_energy,
    load_fcidump,
    mp2,
    orbital_energies,
    pair_hamiltonian,
    parse_fcidump,
    write_fcidump,
)
from .civector import (
    CISpace,
    CIVector,
    apply_excitation,
    apply_hamiltonian,
    ci_space_dim,
    civector_to_statevector,
    doci_ground_state,
    energy,
    energy_and_gradient,
    fci_ground_state,
    hamiltonian_diagonal,
    hf_vector,
    load_civector,
    make_ci_space,
    save_civector,
    ucc_state,
)
from .ansatz import (
    AdaptResult,
    OperatorPool,
    UCCProblem,
    adapt_vqe,
    build_operator_pool,
    build_puccd_hamiltonian,
    generate_kupccgsd,
    generate_puccd,
    generate_uccsd,
    load_ansatz,
    make_kupccgsd_problem,
    make_puccd_problem,
    make_uccsd_problem,
    mp2_initialize,
    paired_energy_and_gradient,
    problem_energy_and_gradient,
    save_ansatz,
)
from .vqe import (
    OptResult,
    SummaryReport,
    civector_at,
    kernel,
    print_summary,
    result_to_json,
)
from .gates import (
    Circuit,
    Gate,
    NoiseModel,
    build_ry_ansatz,
    depolarizing_channel,
    expectation,
    hea_kernel,
    parameter_shift_gradient,
    sampled_expectation,
    simulate_density,
    simulate_state,
)
from .dynamics import (
    BasisHalfSpin,
    BasisSHO,
    EncodedHamiltonian,
    EOMSystem,
    SymbolicTerm,
    Trajectory,
    ansatz_state,
    assemble_eom,
    boson_matrix,
    build_vha,
    coherent_state,
    encode_state,
    exact_propagate,
    marcus_model,
    marcus_rate_theory,
    parse_symbolic_term,
    qubit_encode,
    rate_fit,
    solve_thetadot,
    spin_boson_model,
    time_evolve,
    trajectory_to_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]


def __getattr__(name):
    """``__version__``, resolved on first use (PEP 562) so that importing
    the package does not import ``importlib.metadata``."""
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import metadata

    try:
        version = metadata.version("vqchem")
    except metadata.PackageNotFoundError:  # running from a source checkout
        version = "0.0.0"
    globals()["__version__"] = version
    return version
