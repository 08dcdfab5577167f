"""No module imports scipy: the CLI, the labeled simulate + classify path,
the pwpoly: simulate + estimate path (constrained piece solves included)
and the gm: simulate + estimate path run without it.  Nor do they load
numpy.ma (which np.median and a plain np.unique import) unless
`import numpy` already did, nor numpy.polynomial on any path, a pwpoly:
target's monomials included."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import sys, tempfile
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import numpy
MA_WITH_NUMPY = "numpy.ma" in sys.modules

def check_modules():
    assert not scipy_modules(), scipy_modules()[:5]
    assert MA_WITH_NUMPY or "numpy.ma" not in sys.modules
    assert "numpy.polynomial" not in sys.modules

import robust_batches.cli as cli
"""

SCRIPT = PRELUDE + """
check_modules()
target = "labeled:0,0.5,1|0.5,0.5|0.8,0.2"
with tempfile.TemporaryDirectory() as tmp:
    batches = str(Path(tmp) / "l.jsonl")
    assert cli.main([
        "simulate", "--target", target, "--attack", "label_flip:1.0@0,0.25",
        "--m", "20", "--n", "30", "--beta", "0.2", "--seed", "1", "--out", batches,
    ]) == 0
    check_modules()
    assert cli.main([
        "classify", "--input", batches, "--k", "2", "--beta", "0.2", "--seed", "1",
        "--trigger", "5", "--stop", "4", "--target", target,
        "--out", str(Path(tmp) / "cls.json"),
    ]) == 0
    check_modules()
    # degree-2 sampling and TV to the target
    target = "pwpoly:0,0.5,1|0 0 3;0 0 3"
    batches = str(Path(tmp) / "p.jsonl")
    assert cli.main([
        "simulate", "--target", target, "--m", "50", "--n", "20", "--beta", "0",
        "--seed", "1", "--out", batches,
    ]) == 0
    check_modules()
    assert cli.main([
        "estimate", "--input", batches, "--t", "2", "--d", "1", "--beta", "0",
        "--seed", "1", "--target", target, "--out", str(Path(tmp) / "est.json"),
    ]) == 0
    check_modules()
"""


# One quadratic through a triangle: the mass-constrained least-squares
# piece dips below zero, so the solve must hold check-points at zero.
CONSTRAINED_FIT = PRELUDE + """
target = "pwpoly:0,0.5,1|0 4;4 -4"
with tempfile.TemporaryDirectory() as tmp:
    batches = str(Path(tmp) / "tri.jsonl")
    assert cli.main([
        "simulate", "--target", target, "--m", "50", "--n", "20", "--beta", "0",
        "--seed", "1", "--out", batches,
    ]) == 0
    assert cli.main([
        "estimate", "--input", batches, "--t", "1", "--d", "2", "--beta", "0",
        "--seed", "1", "--target", target, "--out", str(Path(tmp) / "tri.json"),
    ]) == 0
    check_modules()
"""

GM = "gm:0.6N(0,1)+0.4N(3,0.5)"

# Sampling reads the numpy normal quantile; cleaning, the fit and the TV to
# the target read the math.erfc normal CDF.
GM_SCRIPT = PRELUDE + f"""
with tempfile.TemporaryDirectory() as tmp:
    batches = str(Path(tmp) / "gm.jsonl")
    assert cli.main([
        "simulate", "--target", {GM!r}, "--attack", "mean_shift:1.0@1.4,1.6",
        "--m", "200", "--n", "50", "--beta", "0.2", "--seed", "1", "--out", batches,
    ]) == 0
    check_modules()
    assert cli.main([
        "estimate", "--input", batches, "--t", "3", "--d", "1", "--beta", "0.2",
        "--seed", "1", "--trigger", "5", "--stop", "4", "--target", {GM!r},
        "--out", str(Path(tmp) / "gm.json"),
    ]) == 0
    check_modules()
"""


def run(script: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_and_labeled_path_do_not_import_scipy():
    run(SCRIPT)


def test_constrained_piecewise_fit_does_not_import_scipy():
    run(CONSTRAINED_FIT)


def test_gm_simulate_and_estimate_do_not_import_scipy():
    run(GM_SCRIPT)
