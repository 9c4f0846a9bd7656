import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import finite_state_corpus
from pcalc.genterms import rng_from_env


@pytest.fixture(scope="session")
def corpus200():
    """The seeded 200-term finite-state corpus shared by the big suites."""
    return finite_state_corpus(rng_from_env(), 200)
