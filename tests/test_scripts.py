"""The experiment scripts run end to end at a small size."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_gradient_bias_study_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    script = os.path.join(ROOT, "scripts", "gradient_bias_study.py")
    proc = subprocess.run(
        [sys.executable, script, "--datasets", "4", "--rows", "300", "--oracle-mc", "5000"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "log-log RMS slope" in proc.stdout
    assert "max |z|" in proc.stdout
