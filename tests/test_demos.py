"""Every narrative script under ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import adrank

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(Path(adrank.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", sorted((_ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    # run from an empty directory, so a demo that wrote files would leave them there
    res = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    assert res.returncode == 0, res.stderr
    assert list(tmp_path.iterdir()) == []
