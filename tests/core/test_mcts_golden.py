"""MCTS search-kernel bit-identity against ``mcts_golden.json``.

The golden snapshots whole MCTS sessions — configuration, exact costs,
``calls_used``, checkpoint history, call-log and event-stream digests,
episodes and tree size — captured before the search kernel moved to
per-node arrays. The sessions run in one child process with
``PYTHONHASHSEED=0``, the seed the golden was captured with, because
candidate generation depends on string hashing. See
``tests/fixtures/gen_mcts_golden.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
_GOLDEN = json.loads((_FIXTURES / "mcts_golden.json").read_text())


@pytest.fixture(scope="module")
def snapshots():
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(_FIXTURES / "gen_mcts_golden.py"), "--print"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


@pytest.mark.parametrize("label", sorted(_GOLDEN))
def test_mcts_matches_the_golden(snapshots, label):
    expected, snapshot = _GOLDEN[label], snapshots[label]
    # Field by field for readable failures; floats compared exactly on
    # purpose — the kernel must be bit-identical, not merely close.
    for field in expected:
        assert snapshot[field] == expected[field], field
