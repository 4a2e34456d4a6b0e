import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
DATA = pathlib.Path(__file__).resolve().parent / "data"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / f"{name}.json"


def document_path(name: str) -> pathlib.Path:
    """A fixture, or else a test document under tests/data."""
    path = fixture_path(name)
    return path if path.exists() else DATA / f"{name}.json"
