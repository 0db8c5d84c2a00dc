"""The demos are living documentation; keep every script runnable."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, src_env):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300, env=src_env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
