import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_spectrum_report_runs():
    # the README parameters are the script's defaults
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_spectrum_report.py"), "--n-modes", "8"],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert any(line.startswith("bracket threshold n0 : ")
               for line in out.stdout.splitlines())
