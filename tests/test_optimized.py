"""Invariants hold under `python -O`: no check in the package is an assert."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import contextlib, io, json
import ar_iet.iet as iet
from ar_iet.cli import main
from ar_iet.gasket import triple

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["check", "--all", "--prefix", "12131", "--depth", "4"])

real = iet._piece_layout

def lengthen_first_domain_piece(t):
    domain, image = real(t)
    (ch, length), *rest = domain[0]
    return (((ch, length + 1), *rest), *domain[1:]), image

iet._piece_layout = lengthen_first_domain_piece
try:
    iet.build_ar9(triple(7, 4, 2))
    broken = None
except RuntimeError as e:
    broken = str(e)
print(json.dumps({"debug": __debug__, "code": code, "check": json.loads(out.getvalue()),
                  "broken": broken}))
"""


def test_checks_survive_python_O():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["debug"] is False
    assert result["code"] == 0
    assert result["check"]["ok"] is True
    assert len(result["check"]["targets"][0]["checks"]) == 5
    assert result["broken"].startswith("pieces of block 0 end at")
