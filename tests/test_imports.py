"""No module imports scipy or numpy.polynomial: every command (simulate,
clean, estimate, classify, eval) on the labeled:, pwpoly: (constrained
piece solves included) and gm: paths runs without them.  Nor do they load
numpy.ma (which np.median and a plain np.unique import) unless
`import numpy` already did.

Each script runs in a fresh interpreter behind a meta-path finder that
refuses scipy, numpy.polynomial and their submodules and records every
name it refuses, so a module that tries to import either fails its
command, even where it would catch the ImportError.  The prelude checks
that the finder refuses `import scipy`.  Every command must exit 0 and
raise no RuntimeWarning, and eval, which cleans nothing, no warning at all
(the cleaning commands may warn that m is below the batch-count guidance).

This file took over the CI step "Runs without scipy or numpy.polynomial":
its finder, its warning rules and its ten commands at m=200, n=100 (gm:
simulate -> estimate -> eval --target, clean --retained and eval --target
--subset, pwpoly: simulate -> estimate --target, labeled: simulate ->
classify -> eval --target) run here, each command in one script only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import sys, warnings

refused = []

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if any(name == m or name.startswith(m + ".") for m in ("scipy", "numpy.polynomial")):
            refused.append(name)
            raise ImportError(f"{name} is refused in this run")

sys.meta_path.insert(0, Refuse())
try:
    import scipy
except ImportError:
    pass
assert refused == ["scipy"], "the refusing finder is not in place"
refused.clear()

import numpy
MA_WITH_NUMPY = "numpy.ma" in sys.modules

def check_modules():
    assert not refused, f"tried to import {refused[:5]}"
    assert MA_WITH_NUMPY or "numpy.ma" not in sys.modules

import robust_batches.cli as cli

out = sys.argv[1]
sim = ["simulate", "--m", "200", "--n", "100", "--beta", "0.2", "--seed", "1"]
fit = ["--beta", "0.2", "--seed", "1", "--trigger", "5", "--stop", "4"]

def command(*args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(list(args))
    assert code == 0, f"{args[0]} exited {code}"
    stray = [f"{w.category.__name__}: {w.message}" for w in caught
             if args[0] == "eval" or issubclass(w.category, RuntimeWarning)]
    assert not stray, f"{args[0]}: {stray}"
    check_modules()
"""

LABELED = PRELUDE + """
labeled = "labeled:0,0.5,1|0.5,0.5|0.8,0.2"
command("simulate", "--target", labeled, "--attack", "label_flip:1.0@0,0.25",
        "--m", "20", "--n", "30", "--beta", "0.2", "--seed", "1", "--out", f"{out}/l20.jsonl")
command("classify", "--input", f"{out}/l20.jsonl", "--k", "2", *fit,
        "--target", labeled, "--out", f"{out}/classify20.json")
command(*sim, "--target", labeled, "--attack", "label_flip:1.0@0,0.25",
        "--out", f"{out}/l.jsonl")
command("classify", "--input", f"{out}/l.jsonl", "--k", "2", *fit,
        "--target", labeled, "--out", f"{out}/classify.json")
command("eval", "--input", f"{out}/l.jsonl", "--report", f"{out}/classify.json",
        "--target", labeled, "--out", f"{out}/eval-classify.json")
"""

PWPOLY = PRELUDE + """
# degree-2 sampling and TV to the target
quad = "pwpoly:0,0.5,1|0 0 3;0 0 3"
command("simulate", "--target", quad, "--m", "50", "--n", "20", "--beta", "0",
        "--seed", "1", "--out", f"{out}/q.jsonl")
command("estimate", "--input", f"{out}/q.jsonl", "--t", "2", "--d", "1", "--beta", "0",
        "--seed", "1", "--target", quad, "--out", f"{out}/q.json")
# One quadratic through a triangle: the mass-constrained least-squares
# piece dips below zero, so the solve must hold check-points at zero.
tent = "pwpoly:0,0.5,1|0 4;4 -4"
command("simulate", "--target", tent, "--m", "50", "--n", "20", "--beta", "0",
        "--seed", "1", "--out", f"{out}/tri.jsonl")
command("estimate", "--input", f"{out}/tri.jsonl", "--t", "1", "--d", "2", "--beta", "0",
        "--seed", "1", "--target", tent, "--out", f"{out}/tri.json")
command(*sim, "--target", tent, "--attack", "spike:0.5@0.25", "--out", f"{out}/p.jsonl")
command("estimate", "--input", f"{out}/p.jsonl", "--t", "2", "--d", "1", *fit,
        "--target", tent, "--out", f"{out}/estimate-pwpoly.json")
"""

# Sampling reads the numpy normal quantile; cleaning, the fit and the TV to
# the target read the math.erfc normal CDF.
GM = PRELUDE + """
gm = "gm:0.6N(0,1)+0.4N(3,0.5)"
command(*sim, "--target", gm, "--attack", "mean_shift:1.0@1.4,1.6",
        "--out", f"{out}/gm.jsonl")
command("estimate", "--input", f"{out}/gm.jsonl", "--t", "3", "--d", "1", *fit,
        "--target", gm, "--out", f"{out}/estimate.json")
command("eval", "--input", f"{out}/gm.jsonl", "--report", f"{out}/estimate.json",
        "--target", gm, "--out", f"{out}/eval-estimate.json")
command("clean", "--input", f"{out}/gm.jsonl", "--k", "2", *fit, "--target", gm,
        "--retained", f"{out}/retained.jsonl", "--out", f"{out}/clean.json")
command("eval", "--input", f"{out}/gm.jsonl", "--report", f"{out}/clean.json",
        "--target", gm, "--subset", "1,5,9", "--out", f"{out}/eval-clean.json")
"""


def run(script: str, out: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_and_labeled_path_do_not_import_scipy(tmp_path):
    run(LABELED, tmp_path)


def test_constrained_piecewise_fit_does_not_import_scipy(tmp_path):
    run(PWPOLY, tmp_path)


def test_gm_simulate_and_estimate_do_not_import_scipy(tmp_path):
    run(GM, tmp_path)
