import json
from pathlib import Path

import pytest

from vqchem import fixture_path, load_fcidump
from helpers import chain_fcidump

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def h2():
    return load_fcidump(fixture_path("h2_sto3g"))


@pytest.fixture(scope="session")
def h2_stretched():
    return load_fcidump(fixture_path("h2_sto3g_stretched"))


@pytest.fixture(scope="session")
def h4():
    return load_fcidump(fixture_path("h4_sto3g"))


@pytest.fixture(scope="session")
def h6():
    return load_fcidump(fixture_path("h6_sto3g"))


@pytest.fixture(scope="session")
def h8():
    return load_fcidump(fixture_path("h8_sto3g"))


@pytest.fixture(scope="session")
def reference_scf():
    return json.loads((DATA_DIR / "reference_scf.json").read_text())


@pytest.fixture(scope="session")
def h16_fcidump(tmp_path_factory):
    """A generated H16 chain: pair space 12,870, determinant space 165M."""
    return chain_fcidump(tmp_path_factory.mktemp("h16"), 16)
