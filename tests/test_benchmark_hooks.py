"""The benchmark's tracer wraps program functions by name; a name the
program no longer has would silently drop its per-layer metric."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import worker, hooks
rec = hooks.Recorder(trace=True)
hooks.install(rec)
print(rec.missing)
"""


def test_every_benchmark_hook_has_a_target():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
