import os
from pathlib import Path

import pytest

import helpers

# pyproject.toml puts src on this process's import path; the tests that run
# ``python -m fuzzts`` in a subprocess get it through PYTHONPATH
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def choice_late():
    return helpers.choice_late()


@pytest.fixture
def choice_early():
    return helpers.choice_early()


@pytest.fixture
def dup_branch():
    return helpers.dup_branch()


@pytest.fixture
def twin_fork():
    return helpers.twin_fork()


@pytest.fixture
def skew_pair():
    return helpers.skew_pair()
