from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rfplan.discretize import build_partitions, enumerate_states
from rfplan.forest import restore
from rfplan.offline import SearchParams, preprocess
from rfplan.sas_core import CostModel, default_action_library

FIXTURES = Path(__file__).parent / "fixtures"
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def toy_forest():
    """Two trees over (gender, visits, balance); splits at 5 and 1000/1500."""
    return restore(FIXTURES / "toy_forest.json")


@pytest.fixture(scope="session")
def toy_table(toy_forest):
    return build_partitions(toy_forest)


@pytest.fixture(scope="session")
def unit_library(toy_table):
    return default_action_library(toy_table, CostModel((1.0,) * 3))


@pytest.fixture(scope="session")
def toy_params():
    return SearchParams(target=1, z=0.5)


@pytest.fixture(scope="session")
def toy_db(toy_forest, toy_table, unit_library, toy_params):
    states = list(enumerate_states(toy_table))
    return preprocess(states, unit_library, toy_forest, toy_table, toy_params)
