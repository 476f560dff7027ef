"""Record the reference outputs the benchmark checks every pass against.

    python3 perfbench/record.py

Runs one untraced pass of each command workload for every input variant
and writes its numeric outputs to perfbench/reference/<workload>-v<k>.json.
The files in the repository were recorded at the seed commit; re-record
only when a change to the outputs is intended, and say so where the
change is described. oracle_maps needs no file: it is checked against a
numpy reference computed in run.py.
"""
import json
import shutil
import sys

import run


def main() -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    ok = True
    for workload in ("bank_match", "locking_sweep", "featuremap"):
        for variant in range(run.VARIANTS):
            tmp = run.WORK / f"record-{workload}-{variant}"
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                argv_for = run.make_inputs(workload, variant, tmp / "inputs")
                out = tmp / "out"
                result = run.run_worker({"workload": workload, "mode": "pass", "trace": False,
                                         "out_dir": str(out), **argv_for(out)}, tmp, "record")
                if result["exit_code"] != 0:
                    print(f"{workload} v{variant}: command exited {result['exit_code']}")
                    ok = False
                    continue
                outputs = run.parse_outputs(workload, out)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            checks = run.fidelity(workload, outputs)
            misses = [name for name, (_, met, _) in checks.items() if not met]
            ok &= not misses
            path = run.REFERENCE / f"{workload}-v{variant}.json"
            path.write_text(json.dumps(outputs, indent=1) + "\n")
            print(f"{workload} v{variant}: wall {result['wall_s']:.2f} s, "
                  + ", ".join(f"{k}={v[0]:.4f}" for k, v in checks.items())
                  + (f"  MISSED {misses}" if misses else "") + f" -> {path.name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
