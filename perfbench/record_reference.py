"""Record the canary outputs that every later run is compared against.

    python3 perfbench/record_reference.py

Runs each workload's canary inputs (fixed ``inputs.CANARY_SEED``) once and
writes ``perfbench/reference.json``: for the two frame workloads the score
threshold, a fingerprint of the detections and the printed eval figures; for
train-toy-64 the loss curve and evaluation of one round.  Re-record only when
a change to the program is meant to change its outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from inputs import BLAS_ENV, CANARY_SEED, REFERENCE, SRC, WORKLOADS, prepare  # noqa: E402
from run import WORK, machine, spawn  # noqa: E402


def main() -> int:
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import verify

    reference = {"canary_seed": CANARY_SEED, "recorded_at": machine()["commit"]}
    for workload in WORKLOADS:
        work = WORK / "reference" / workload
        manifest = prepare(workload, 0, work / "inputs", None)
        result = spawn(work / "inputs" / "manifest.json", work / "main.json", 0, 0)
        canary = [o for o in result["ops"] if o["role"] == "canary"]
        if any(o["rc"] != 0 for o in canary):
            print(f"{workload}: canary op failed", file=sys.stderr)
            return 1
        if workload == "train-toy-64":
            data = json.loads(Path(canary[-1]["out"]).read_text(encoding="utf-8"))
            reference[workload] = {"round": {"losses": data["losses"], "eval": data["eval"]}}
        else:
            frame = next(o for o in canary if o["kind"] == "frame")
            records, problems = verify.read_records(frame["out"])
            if problems:
                print(f"{workload}: {problems}", file=sys.stderr)
                return 1
            reference[workload] = {"threshold": manifest["canary"]["thresholds"][0],
                                   "frame": verify.fingerprint(records)}
            for ev in (o for o in canary if o["kind"] == "eval"):
                values, problems = verify.parse_eval(Path(ev["out"]).read_text(encoding="utf-8"))
                if problems:
                    print(f"{workload}: {problems}", file=sys.stderr)
                    return 1
                reference[workload]["eval"] = values
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
