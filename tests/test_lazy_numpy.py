"""The certificate half runs without executing numpy.

Each case runs in a fresh interpreter: pytest, hypothesis and conftest.py
have already imported numpy in this one."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PINS = {
    ("secrecy", "verify", "--all"): "secrecy_verify_all.json",
    ("secrecy", "gain", "--all"): "secrecy_gain_all.txt",
    ("secrecy", "table"): "secrecy_table.txt",
    ("theta", "--y", "1"): None,
}

CERTIFICATE_HALF = """
import contextlib, io, json, sys, types
import latticesec, latticesec.numfields
from latticesec.cli import main

outs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main(argv)
    outs.append([code, buf.getvalue()])
# type() reads no attribute of the module, so it executes nothing.
unexecuted = type(sys.modules["numpy"]) is not types.ModuleType
submodules = sorted(k for k in sys.modules if k.startswith("numpy."))
latticesec.load_lattice("lambda1")
print(json.dumps({
    "outs": outs, "unexecuted": unexecuted, "submodules": submodules,
    "executed": type(sys.modules["numpy"]) is types.ModuleType,
    "same": latticesec.numfields.np is sys.modules["numpy"]}))
"""

NUMPY_FIRST = """
import json, sys, types
import numpy
import latticesec
from latticesec import _numpy, constellation, numfields, theta_series
mods = (_numpy, constellation, numfields, theta_series)
print(json.dumps({
    "same": all(m.np is numpy for m in mods) and sys.modules["numpy"] is numpy,
    "executed": type(numpy) is types.ModuleType}))
"""


def _fresh(code: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_certificate_half_executes_no_numpy():
    got = _fresh(CERTIFICATE_HALF, json.dumps([list(a) for a in PINS]))
    assert got["unexecuted"] and got["submodules"] == []
    for (argv, pin), (code, out) in zip(PINS.items(), got["outs"]):
        assert code == 0, argv
        if pin is not None:
            assert out == (ROOT / "tests" / "data" / pin).read_text(), argv
    # A lattice load is the first use, and executes the one numpy.
    assert got["executed"] and got["same"]


def test_numpy_imported_first_is_handed_back():
    assert _fresh(NUMPY_FIRST) == {"same": True, "executed": True}
