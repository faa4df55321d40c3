import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_convergence_study_prints_one_row_per_resolution():
    # the script runs from a source checkout with src/ on the path
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT/"src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(ROOT/"scripts"/"convergence_study.py"),
         "--resolutions", "28", "32"],
        env=env, capture_output=True, text=True, check=True, timeout=300).stdout
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["28", "32"]
    assert [row[6] for row in rows] == ["16.3317091442"]*2
