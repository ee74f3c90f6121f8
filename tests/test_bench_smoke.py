"""The benchmark runs each workload end to end and ends its output with its
result: one strict JSON line, correct, with no failed operation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject(constant: str):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("workload", ["train_clbl", "cluster_brown", "query_score"])
def test_perfbench_ends_with_a_strict_json_result(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "97", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    assert result["failed"] == 0
