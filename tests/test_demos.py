"""Smoke test: the Python demos that exercise the public API run to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_dirichlet_map_tour.py", "02_fit_and_evaluate.py", "03_reliability_diagrams.py",
    "04_significance_test.py", "05_nested_cv_compare.py",
])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # The demos write into the working directory (03 makes ./diagram_output).
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_walkthrough_exits_cleanly(tmp_path):
    # The walkthrough calls `probcal` and `python3`; shims on PATH run them
    # with this interpreter and this checkout's sources.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, args in (("probcal", '-m probcal "$@"'), ("python3", '"$@"')):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {args}\n')
        shim.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        ["sh", str(ROOT / "demos" / "06_cli_walkthrough.sh")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert not [line for line in proc.stderr.splitlines() if line.startswith("error:")]
