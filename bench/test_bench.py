"""Smoke tests of the benchmark itself (about a minute):

    python -m pytest bench/test_bench.py -q

Each workload runs once for a minimal measuring time and must report every
metric with its unit and no failed item. A backend that corrupts replies
must raise the error rate above 0, and a directory without the program must
be refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER  # noqa: E402


def _run(*args: str, cwd: Path = BENCH.parent) -> tuple[int, str, dict | None]:
    process = subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return process.returncode, process.stdout + process.stderr, result


@pytest.mark.parametrize("workload", ["bridge-cmd", "bridge-http", "evaluate-mixed"])
def test_workload_smoke_run_is_correct(workload):
    code, output, result = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0")
    assert code == 0, output
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == END_TO_END
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    code, output, result = _run("--workload", "evaluate-mixed", "--seed", "5", "--seconds", "0", "--trace", "1")
    assert code == 0, output
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == PER_LAYER
    assert result["metrics"]["classify.slots"]["value"] > 0
    assert result["metrics"]["classify.score_s"]["value"] > 0


def test_wrong_backend_reply_raises_error_rate():
    code, output, result = _run("--workload", "bridge-http", "--seed", "5", "--seconds", "0", "--wrong-replies")
    assert code == 1, output
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_directory_without_the_program_is_refused(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, output, result = _run("--workload", "bridge-cmd", "--seed", "5", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert result is None, output
