"""scipy is imported only by the functions that call it (gm: targets and
the piecewise-fit SLSQP fallback), so the CLI, the labeled simulate +
classify path and the pwpoly: simulate + estimate path run without it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys, tempfile
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import robust_batches.cli as cli
assert not scipy_modules(), scipy_modules()[:5]
target = "labeled:0,0.5,1|0.5,0.5|0.8,0.2"
with tempfile.TemporaryDirectory() as tmp:
    batches = str(Path(tmp) / "l.jsonl")
    assert cli.main([
        "simulate", "--target", target, "--attack", "label_flip:1.0@0,0.25",
        "--m", "20", "--n", "30", "--beta", "0.2", "--seed", "1", "--out", batches,
    ]) == 0
    assert not scipy_modules(), scipy_modules()[:5]
    assert cli.main([
        "classify", "--input", batches, "--k", "2", "--beta", "0.2", "--seed", "1",
        "--trigger", "5", "--stop", "4", "--target", target,
        "--out", str(Path(tmp) / "cls.json"),
    ]) == 0
    assert not scipy_modules(), scipy_modules()[:5]
    # degree-2 sampling and TV to the target; seed 1's fit keeps every
    # piece nonnegative, so the SLSQP fallback (scipy.optimize) never runs
    target = "pwpoly:0,0.5,1|0 0 3;0 0 3"
    batches = str(Path(tmp) / "p.jsonl")
    assert cli.main([
        "simulate", "--target", target, "--m", "50", "--n", "20", "--beta", "0",
        "--seed", "1", "--out", batches,
    ]) == 0
    assert not scipy_modules(), scipy_modules()[:5]
    assert cli.main([
        "estimate", "--input", batches, "--t", "2", "--d", "1", "--beta", "0",
        "--seed", "1", "--target", target, "--out", str(Path(tmp) / "est.json"),
    ]) == 0
    assert not scipy_modules(), scipy_modules()[:5]
"""


def test_cli_and_labeled_path_do_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
