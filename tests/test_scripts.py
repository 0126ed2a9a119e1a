"""The experiment scripts run end to end at a small size."""

import os
import runpy
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _gradient_bias_study(*args):
    script = os.path.join(ROOT, "scripts", "gradient_bias_study.py")
    return subprocess.run([sys.executable, script, *args],
                          capture_output=True, text=True, env=_env(), timeout=120)


def test_gradient_bias_study_smoke():
    proc = _gradient_bias_study("--datasets", "4", "--rows", "300", "--oracle-mc", "5000")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "log-log RMS slope" in proc.stdout
    assert "corrected estimator at n=300: max |z|" in proc.stdout
    assert "naive gradient: max-coordinate bias" in proc.stdout
    assert "analytic floor" in proc.stdout


def test_gradient_bias_study_rejects_a_single_dataset_per_size():
    proc = _gradient_bias_study("--datasets", "1", "--rows", "300", "--oracle-mc", "5000")
    assert proc.returncode != 0
    assert "at least two datasets per size" in proc.stderr
    assert "nan" not in proc.stdout


def test_cli_snapshot_writes_every_run(tmp_path):
    script = os.path.join(ROOT, "scripts", "cli_snapshot.py")
    proc = subprocess.run([sys.executable, script, str(tmp_path)],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    codes = {name[:-len(".code")]: (tmp_path / name).read_text()
             for name in os.listdir(tmp_path) if name.endswith(".code")}
    names = [name for name, _argv in runpy.run_path(script)["RUNS"]]
    assert len(set(names)) == len(names)
    assert set(codes) == set(names)
    for name, code in codes.items():
        expected = ("1" if name.startswith("reject-")
                    else "2" if name == "benchmark-every-item-fails" else "0")
        assert code == expected + "\n", name
        assert (tmp_path / f"{name}.stdout").exists() and (tmp_path / f"{name}.stderr").exists()
