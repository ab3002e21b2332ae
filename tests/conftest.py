from __future__ import annotations

import sys
from pathlib import Path

import pytest

from gnt import Language, SuiteManifest, load_language_resources, parse_manifest
from gnt.data import demo_manifest_path, full_scale_manifest_path, lexicon_dir

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
ECHO_BACKEND = FIXTURES / "echo_backend.py"


@pytest.fixture(scope="session")
def demo_manifest() -> SuiteManifest:
    return parse_manifest(demo_manifest_path())


@pytest.fixture(scope="session")
def full_scale_manifest() -> SuiteManifest:
    return parse_manifest(full_scale_manifest_path())


@pytest.fixture(scope="session")
def es_resources():
    return load_language_resources(lexicon_dir(), Language.ES)


@pytest.fixture(scope="session")
def cs_resources():
    return load_language_resources(lexicon_dir(), Language.CS)


@pytest.fixture(scope="session")
def is_resources():
    return load_language_resources(lexicon_dir(), Language.IS)


def backend_command(*flags: str) -> str:
    parts = [sys.executable, str(ECHO_BACKEND), *flags]
    return " ".join(part if " " not in part else f'"{part}"' for part in parts)
