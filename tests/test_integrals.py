import numpy as np
import pytest

from vqchem import (
    DegenerateOrbitals,
    IntegralSet,
    InvalidActiveSpace,
    InvalidModel,
    ParseError,
    SizeLimit,
    UnsupportedOpenShell,
    active_space_reduce,
    build_fermion_hamiltonian,
    build_hubbard,
    canonicalize_integrals,
    fci_ground_state,
    fixture_path,
    hf_energy,
    load_fcidump,
    make_ci_space,
    mp2,
    orbital_energies,
    parse_fcidump,
    write_fcidump,
)
from oracles import (
    dense_fermion_operator,
    fermion_hamiltonian_terms,
    number_conserving_hamiltonian_matrix,
)

FIXTURES = ["h2_sto3g", "h2_sto3g_stretched", "h4_sto3g", "h6_sto3g"]


def random_integral_set(rng, n_orb, n_elec):
    """Random integrals with full 8-fold two-electron symmetry."""
    int1e = rng.normal(size=(n_orb, n_orb))
    int1e = (int1e + int1e.T) / 2.0
    int2e = rng.normal(size=(n_orb,) * 4)
    int2e = int2e + int2e.transpose(1, 0, 2, 3)
    int2e = int2e + int2e.transpose(0, 1, 3, 2)
    int2e = int2e + int2e.transpose(2, 3, 0, 1)
    return IntegralSet(n_orb, n_elec, int1e, int2e, float(rng.normal()))


# ---------------------------------------------------------------------------
# Parsing and round trips
# ---------------------------------------------------------------------------

def test_minimal_fcidump_parse():
    text = """&FCI NORB=1,NELEC=2,MS2=0,
&END
0.7 1 1 1 1
-1.25 1 1 0 0
0.71 0 0 0 0
"""
    s = parse_fcidump(text)
    assert s.n_orb == 1 and s.n_elec == 2
    assert s.int2e[0, 0, 0, 0] == 0.7
    assert s.int1e[0, 0] == -1.25
    assert s.e_core == 0.71


def test_parse_rejects_malformed_input():
    with pytest.raises(ParseError):
        parse_fcidump("no header here\n1.0 1 1 0 0\n")
    with pytest.raises(ParseError):
        parse_fcidump("&FCI NORB=1,NELEC=2,MS2=0,\n&END\n1.0 2 1 0 0\n")
    with pytest.raises(ParseError):
        parse_fcidump("&FCI NORB=1,NELEC=2,MS2=0,\n&END\nxyz 1 1 0 0\n")
    with pytest.raises(UnsupportedOpenShell):
        parse_fcidump("&FCI NORB=2,NELEC=3,MS2=1,\n&END\n1.0 1 1 0 0\n")


@pytest.mark.parametrize("norb", [108, 100_000])
def test_parse_refuses_integrals_past_the_limit_before_allocating(norb):
    """8 NORB^4 bytes of two-electron integrals past 1 GiB: NORB = 108 is
    the first refused."""
    with pytest.raises(SizeLimit, match=f"{8 * norb**4} bytes"):
        parse_fcidump(f"&FCI NORB={norb},NELEC=2,MS2=0, &END\n")


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_round_trip(name):
    s = load_fcidump(fixture_path(name))
    t = parse_fcidump(write_fcidump(s))
    assert t.n_orb == s.n_orb and t.n_elec == s.n_elec
    np.testing.assert_allclose(t.int1e, s.int1e, atol=1e-12)
    np.testing.assert_allclose(t.int2e, s.int2e, atol=1e-12)
    assert abs(t.e_core - s.e_core) < 1e-12


def test_random_round_trips():
    rng = np.random.default_rng(17)
    for n_orb in (1, 2, 3, 5):
        s = random_integral_set(rng, n_orb, 2)
        t = parse_fcidump(write_fcidump(s))
        np.testing.assert_allclose(t.int1e, s.int1e, atol=1e-12)
        np.testing.assert_allclose(t.int2e, s.int2e, atol=1e-12)
        assert abs(t.e_core - s.e_core) < 1e-12


def test_parse_fills_eightfold_partners():
    text = """&FCI NORB=2,NELEC=2,MS2=0,
&END
0.3 1 2 1 1
"""
    s = parse_fcidump(text)
    value = s.int2e[0, 1, 0, 0]
    for perm in [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]:
        assert s.int2e[perm] == value


# ---------------------------------------------------------------------------
# Mean field and MP2 against the independent SCF reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", FIXTURES)
def test_scf_reference_energies(name, reference_scf):
    ref = reference_scf[name]
    s = load_fcidump(fixture_path(name))
    assert abs(s.e_core - ref["e_nuc"]) < 1e-10
    assert abs(hf_energy(s) - ref["e_hf_scf"]) < 1e-9
    assert abs(hf_energy(s) + mp2(s).e_corr - ref["e_mp2_scf"]) < 1e-9
    np.testing.assert_allclose(
        orbital_energies(s), ref["orbital_energies"], atol=1e-9)


def test_integral_set_needs_an_orbital():
    with pytest.raises(InvalidModel, match="at least one orbital"):
        IntegralSet(0, 0, np.zeros((0, 0)), np.zeros((0,) * 4))


def test_hf_energy_without_two_electron_terms():
    rng = np.random.default_rng(2)
    n_orb, n_elec = 3, 4
    eps = np.sort(rng.normal(size=n_orb))
    s = IntegralSet(n_orb, n_elec, np.diag(eps), np.zeros((n_orb,) * 4), 0.25)
    assert abs(hf_energy(s) - (2 * eps[:2].sum() + 0.25)) < 1e-12
    np.testing.assert_allclose(orbital_energies(s), eps, atol=1e-12)
    res = mp2(s)
    assert res.e_corr == 0.0
    assert not res.t2.any()


def test_mp2_degenerate_orbitals_raise():
    # periodic 4-site tight binding has a degenerate half-filling gap
    s = canonicalize_integrals(build_hubbard(4, 1.0, 0.0, periodic=True))
    with pytest.raises(DegenerateOrbitals):
        mp2(s)


# ---------------------------------------------------------------------------
# Hamiltonian construction
# ---------------------------------------------------------------------------

def test_h2_fermion_hamiltonian_pinned_coefficients(h2):
    op = build_fermion_hamiltonian(h2)
    assert abs(op.terms[((0, True), (0, False))]
               - (-1.2527052599711868)) < 1e-9
    assert abs(op.terms[((0, True), (1, True), (0, False), (1, False))]
               - (-0.48227117798977825)) < 1e-9
    assert abs(op.terms[((0, True), (2, True), (0, False), (2, False))]
               - (-0.6745650967143663)) < 1e-9
    dense = dense_fermion_operator(op)
    np.testing.assert_allclose(dense, dense.conj().T, rtol=0, atol=1e-12)


def test_fermion_hamiltonian_matches_raw_integral_definition(h2):
    built = dense_fermion_operator(build_fermion_hamiltonian(h2))
    direct = number_conserving_hamiltonian_matrix(h2)
    np.testing.assert_allclose(built, direct, atol=1e-10)


def test_fermion_hamiltonian_matches_raw_integrals_random():
    rng = np.random.default_rng(31)
    s = random_integral_set(rng, 2, 2)
    np.testing.assert_allclose(
        dense_fermion_operator(build_fermion_hamiltonian(s)),
        number_conserving_hamiltonian_matrix(s),
        atol=1e-10,
    )


@pytest.mark.parametrize("case", ["h2", "h4", "h6", "hubbard", "random",
                                  "h6-active"])
def test_fermion_hamiltonian_matches_loop_oracle_bit_for_bit(case, request):
    """Keys, key order and coefficient bits equal the explicit loops: the
    qubit images' bits depend on both, and a dense comparison to 1e-10
    sees neither.  The active space of h6 carries a non-zero e_core."""
    if case == "hubbard":
        s = build_hubbard(4, 1.0, 4.0)
    elif case == "random":
        s = random_integral_set(np.random.default_rng(17), 4, 4)
    elif case == "h6-active":
        s = active_space_reduce(request.getfixturevalue("h6"), 2, 4).reduced
        assert s.e_core != 0.0
    else:
        s = request.getfixturevalue(case)
    want = fermion_hamiltonian_terms(s)
    got = build_fermion_hamiltonian(s).terms
    assert list(got) == list(want)
    for term, c in want.items():
        assert type(got[term]) is type(c)
        assert np.float64(got[term]).tobytes() == np.float64(c).tobytes()


# ---------------------------------------------------------------------------
# Hubbard model
# ---------------------------------------------------------------------------

def test_hubbard_free_fermions():
    s = build_hubbard(2, 1.0, 0.0)
    canonical = canonicalize_integrals(s)
    assert abs(hf_energy(canonical) - (-2.0)) < 1e-12
    np.testing.assert_allclose(orbital_energies(canonical), [-1.0, 1.0],
                               atol=1e-12)
    space = make_ci_space(s.n_orb, s.n_elec)
    assert abs(fci_ground_state(space, s)[0] - (-2.0)) < 1e-10


def test_hubbard_validation_and_fields():
    with pytest.raises(InvalidModel):
        build_hubbard(1, 1.0, 4.0)
    s = build_hubbard(4, 0.7, 3.0, periodic=True)
    assert s.n_elec == 4 and s.e_core == 0.0
    assert s.int1e[0, 3] == -0.7 and s.int1e[0, 1] == -0.7
    assert s.int2e[2, 2, 2, 2] == 3.0


def test_fci_is_basis_invariant_for_hubbard():
    s = build_hubbard(4, 1.0, 4.0)
    space = make_ci_space(s.n_orb, s.n_elec)
    e_site = fci_ground_state(space, s)[0]
    e_canonical = fci_ground_state(space, canonicalize_integrals(s))[0]
    assert abs(e_site - e_canonical) < 1e-9


# ---------------------------------------------------------------------------
# Active space reduction
# ---------------------------------------------------------------------------

def test_active_space_full_window_is_identity(h4):
    res = active_space_reduce(h4, h4.n_elec, h4.n_orb)
    assert res.frozen_orbitals == ()
    np.testing.assert_allclose(res.reduced.int1e, h4.int1e, atol=1e-12)
    np.testing.assert_allclose(res.reduced.int2e, h4.int2e, atol=1e-12)
    assert abs(res.reduced.e_core - h4.e_core) < 1e-12


def test_active_space_preserves_mean_field(h4):
    reduced = active_space_reduce(h4, 2, 2).reduced
    assert reduced.n_orb == 2 and reduced.n_elec == 2
    assert abs(hf_energy(reduced) - hf_energy(h4)) < 1e-9


def test_active_space_energy_above_full_fci(h4):
    reduced = active_space_reduce(h4, 2, 2).reduced
    e_active = fci_ground_state(make_ci_space(2, 2), reduced)[0]
    e_full = fci_ground_state(make_ci_space(4, 4), h4)[0]
    assert e_active > e_full
    assert e_active < hf_energy(h4)  # still captures some correlation


def test_active_space_window_validation(h4):
    with pytest.raises(InvalidActiveSpace):
        active_space_reduce(h4, 2, 5)
    with pytest.raises(InvalidActiveSpace):
        active_space_reduce(h4, 6, 2)
    with pytest.raises(InvalidActiveSpace, match="at least one active"):
        active_space_reduce(h4, 0, 0)
    with pytest.raises(InvalidActiveSpace, match="non-negative electron"):
        active_space_reduce(h4, -2, 3)
