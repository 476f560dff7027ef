"""Regenerate the golden outputs that tests/test_golden.py compares with.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py [--check]

Writes the input files under tests/golden/inputs/ and, for every case
in test_golden.CASES, the files the command writes plus result.json
(its exit code, stdout and stderr) under tests/golden/<case>/.

--check writes nothing: it runs every case into a temporary directory,
prints each case's largest absolute deviation of a number from the
committed files and every text mismatch, and exits 1 on a mismatch or
a deviation beyond test_golden's tolerance of 1e-12.
"""
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from oscconv import default_bank, edge_fragment, gabor_filter  # noqa: E402
from oscconv.pgm import write_pgm  # noqa: E402
from test_golden import CASES, GOLDEN, INPUTS, INTEGER, NUMBER, RESULT, run_case  # noqa: E402

TOLERANCE = 1e-12


def write_inputs() -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    fragment = edge_fragment().values.reshape(5, 5)
    write_pgm(INPUTS / "fragment.pgm", np.round((fragment + 1.0) / 2.0 * 255.0))
    # the top-left 7x7 crop of acceptance criterion 11's 16x16 image
    image = 0.9 * gabor_filter(16, 30.0, 0.35, binarized=False).values.reshape(16, 16)
    crop = image[:7, :7]
    write_pgm(INPUTS / "grating7.pgm", np.round((crop + 1.0) / 2.0 * 255.0))
    # filter 4's first-seed envelope beats, so its dump exercises the peak detector's decay
    filters = [default_bank()[i] for i in (0, 4, 14)]
    bank = [{"theta_deg": f.theta_deg, "k": f.k} for f in filters]
    (INPUTS / "bank3.json").write_text(json.dumps(bank) + "\n")


def deviation(got: str, want: str) -> float | None:
    """Largest absolute difference of the non-integer numbers in got and want,
    or None if their text, integers included, differs."""
    if NUMBER.split(got) != NUMBER.split(want):
        return None
    worst = 0.0
    for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
        if INTEGER.fullmatch(w):
            if g != w:
                return None
        elif g != w:  # a nan against a number deviates without bound
            dev = abs(float(g) - float(w))
            worst = max(worst, math.inf if math.isnan(dev) else dev)
    return worst


def check_case(name: str) -> tuple[float, list[str]]:
    """(largest numeric deviation, text mismatches) of one case against its golden files."""
    want_dir = GOLDEN / name
    with tempfile.TemporaryDirectory() as tmp:
        got_dir = Path(tmp)
        result = run_case(name, got_dir)
        want = json.loads((want_dir / RESULT).read_text())
        pairs = [("exit code", str(result["exit_code"]), str(want["exit_code"]))]
        pairs += [(stream, result[stream], want[stream]) for stream in ("stdout", "stderr")]
        got_files = sorted(p.name for p in got_dir.iterdir())
        want_files = sorted(p.name for p in want_dir.iterdir() if p.name != RESULT)
        mismatches = [] if got_files == want_files else [f"files {got_files} != {want_files}"]
        for file in sorted(set(got_files) & set(want_files)):
            got_lines = (got_dir / file).read_text().splitlines()
            want_lines = (want_dir / file).read_text().splitlines()
            if len(got_lines) != len(want_lines):
                mismatches.append(f"{file}: {len(got_lines)} lines != {len(want_lines)}")
            pairs += [(f"{file} line {k + 1}", g, w)
                      for k, (g, w) in enumerate(zip(got_lines, want_lines))]
    worst = 0.0
    for where, got, want in pairs:
        dev = deviation(got, want)
        if dev is None:
            mismatches.append(f"{where}: {got!r} != {want!r}")
        else:
            worst = max(worst, dev)
    return worst, mismatches


def check() -> int:
    failed = False
    for name in CASES:
        worst, mismatches = check_case(name)
        print(f"{name}: largest deviation {worst:.3g}, {len(mismatches)} text mismatches")
        for mismatch in mismatches:
            print(f"  {mismatch}")
        failed |= bool(mismatches) or worst > TOLERANCE
    return int(failed)


def main() -> None:
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    write_inputs()
    for name in CASES:
        out = GOLDEN / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        result = run_case(name, out)
        (out / RESULT).write_text(json.dumps(result, indent=1) + "\n")
        print(f"{name}: exit {result['exit_code']}, {len(list(out.iterdir())) - 1} files")


if __name__ == "__main__":
    main()
