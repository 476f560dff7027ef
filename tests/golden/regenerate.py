"""Regenerate the golden outputs that tests/test_golden.py compares with.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Writes the input files under tests/golden/inputs/ and, for every case
in test_golden.CASES, the files the command writes plus result.json
(its exit code, stdout and stderr) under tests/golden/<case>/.
"""
import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from oscconv import default_bank, edge_fragment, gabor_filter  # noqa: E402
from oscconv.pgm import write_pgm  # noqa: E402
from test_golden import CASES, GOLDEN, INPUTS, RESULT, run_case  # noqa: E402


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


def main() -> None:
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
