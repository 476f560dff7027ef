"""Golden outputs: short CLI runs compared with values committed under tests/golden/.

Each case runs one command at --t-end 40 with two seeds and compares
every file it writes, its stdout, its stderr and its exit code with the
committed ones. Numbers are compared at abs 1e-12; integers, flags,
headers and all other text exactly. Bytes are not compared: the last
bits of sums and of np.abs may differ across CPUs and numpy builds.

A change that moves a golden value on purpose regenerates them with
`python tests/golden/regenerate.py` and says which values moved, by
how much and why.
"""
import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from oscconv.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
FAST = ("--t-end", "40", "--seeds", "0,1")
FRAGMENT = "{inputs}/fragment.pgm"
BANK3 = ("--bank", "{inputs}/bank3.json")
GRATING = ("featuremap", "{inputs}/grating7.pgm", "--theta-deg", "30", "--k", "0.35")

# case name -> CLI arguments, without --out-dir
CASES = {
    "match_dump": ("match", FRAGMENT, *BANK3, "--dump-traces", *FAST),
    "match_reference": ("match", FRAGMENT, *BANK3, "--reference-oscillator", "--dump-traces",
                        *FAST),
    # 6 of the 18 bank filters diverge
    "match_partial_failure": ("match", FRAGMENT, "--t-end", "40", "--rho", "0.01",
                              "--epsilon", "0.05", "--delta-omega", "0.5", "--seeds", "1,2"),
    "sweep": ("sweep-locking", "--epsilon", "0.2", "--grid", "0:0.6:0.1", "--t-end", "40"),
    "featuremap": (*GRATING, *FAST),
    # every window diverges: exit 2
    "featuremap_all_fail": (*GRATING, "--rho", "1e-3", "--epsilon", "0.5", *FAST),
}

RESULT = "result.json"
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?![\w.])|\bnan\b|\binf\b"
)
INTEGER = re.compile(r"[-+]?\d+")


def run_case(name: str, out_dir: Path) -> dict:
    """Run one case into out_dir; return its exit code, stdout and stderr."""
    argv = [arg.replace("{inputs}", str(INPUTS)) for arg in CASES[name]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out-dir", str(out_dir)])
    return {"exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def assert_same_text(got: str, want: str, where: str) -> None:
    """got equals want, except that non-integer numbers may differ by 1e-12."""
    assert NUMBER.split(got) == NUMBER.split(want), where
    for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
        if INTEGER.fullmatch(w):
            assert g == w, where
        else:
            g, w = float(g), float(w)
            assert (math.isnan(g) and math.isnan(w)) or abs(g - w) <= 1e-12, f"{where}: {g} != {w}"


@pytest.mark.parametrize("name", CASES)
def test_golden_outputs(name, tmp_path):
    want_dir = GOLDEN / name
    result = run_case(name, tmp_path)
    want = json.loads((want_dir / RESULT).read_text())
    assert result["exit_code"] == want["exit_code"]
    for stream in ("stdout", "stderr"):
        assert_same_text(result[stream], want[stream], f"{name} {stream}")
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == sorted(p.name for p in want_dir.iterdir() if p.name != RESULT)
    for file in files:
        got_lines = (tmp_path / file).read_text().splitlines()
        want_lines = (want_dir / file).read_text().splitlines()
        assert len(got_lines) == len(want_lines), f"{name}/{file}"
        for k, (g, w) in enumerate(zip(got_lines, want_lines)):
            assert_same_text(g, w, f"{name}/{file} line {k + 1}")
