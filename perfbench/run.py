"""firedet benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds its inputs from
``--seed`` (see ``inputs.py``), starts a fresh worker process that runs the
workload for ``--seconds`` (see ``worker.py``), repeats set-up in further
fresh processes, checks every output (see ``verify.py``) and prints, as its
last stdout line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones of
``tracer.PER_LAYER``.  Full results, with machine information and the seed,
go to ``.bench_work/results/``.

Workloads (single process, sequential ops, closed loop of one caller):

- ``detect-640``: full variant at 640 px, a handful of detections per frame.
- ``eval-256-dense``: the full variant at 256 px on the same kind of frames
  at score threshold 0.001 (all 1,344 cells are candidates), each frame's
  detections scored with ``eval``.
- ``train-toy-64``: toy config, 8 images of 64 px, rounds of full-batch
  AdamW steps each followed by ``train.evaluate_model``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from inputs import (BLAS_ENV, REFERENCE, ROOT, SRC, TOY_STEPS_PER_ROUND,  # noqa: E402
                    WORKLOADS, prepare)

WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_work"
WORKER_TIMEOUT_S = 170
# Set-up is repeated in fresh processes until there are SETUP_SAMPLES samples
# or SETUP_BUDGET_S seconds of set-up (wall time) were spent; the median is
# reported.  One set-up is a single op, so three samples spread by 11-16%
# over ten seeds.
SETUP_SAMPLES = 5
SETUP_BUDGET_S = 10.0
TAIL_BEYOND = 10

# Times are CPU time of the measuring process (see worker.py); the wall
# times of the same ops go to the results file.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_cpu_ms_p50", "ms"),
              ("op_cpu_ms_tail", "ms"), ("eval_cpu_s", "s"))


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to an output failing a check)."""


def spawn(manifest: Path, result: Path, seconds: float, trace: int,
          setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its result.

    The worker inherits the environment, so callers set ``BLAS_ENV`` first."""
    cmd = [sys.executable, str(WORKER), "--manifest", str(manifest),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(started)], stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    samples above it, by nearest rank.  Below 2 * TAIL_BEYOND samples that
    percentile lies under the median (with 11 samples it is the minimum), so
    the maximum is reported instead, as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def check_ops(workload: str, manifest: dict, reference: dict, main: dict,
              probes: list[dict]) -> tuple[int, int, list[str]]:
    """Check every op of the worker and the set-up probes.

    Returns (attempted, failed, problems)."""
    import verify
    from firedet.fileio import load_config

    config = load_config(manifest["config"])
    ref = reference[workload]
    ops = main["ops"]
    first_seen: dict[tuple, dict] = {}
    problems: list[str] = []
    failed = 0

    def op_problems(op: dict) -> list[str]:
        p = []
        if op["rc"] != 0 or op.get("error"):
            p.append(f"exit code {op['rc']}" + (f": {op['error'].splitlines()[-1]}"
                                                 if op.get("error") else ""))
            return p
        entry = manifest[op["role"]]
        if op["kind"] == "frame":
            records, p = verify.read_records(op["out"])
            if records is None:
                return p
            image = Path(entry["frames"][op["input"]]).name
            p += verify.check_frame(records, image, entry["thresholds"][op["input"]], config)
            if op["role"] == "canary":
                p += verify.compare_fingerprint(verify.fingerprint(records), ref["frame"])
        elif op["kind"] == "eval" and workload != "train-toy-64":
            values, p = verify.parse_eval(Path(op["out"]).read_text(encoding="utf-8"))
            if values is not None and op["role"] == "canary":
                p += verify.compare_values(values, ref["eval"], verify.EVAL_ATOL)
        elif op["kind"] == "eval":
            data = json.loads(Path(op["out"]).read_text(encoding="utf-8"))
            p += verify.check_round(data, TOY_STEPS_PER_ROUND)
            if not p and op["role"] == "canary":
                p += verify.compare_round(data, ref["round"])
        elif not isinstance(op["loss"], float) or op["loss"] != op["loss"]:
            p.append(f"loss {op['loss']!r}")
        return p

    def same_output(a: dict, b: dict) -> bool:
        if a["kind"] == "step":
            return a["loss"] == b["loss"]
        return verify.same_bytes(a["out"], b["out"])

    for op in ops:
        p = op_problems(op)
        if not p:
            # The same input must give byte-identical output: repeats, and the
            # traced twin of an untraced op (tracing must not change results).
            twin = ops[op["twin"]] if "twin" in op else None
            key = (op["kind"], op["role"], op["input"], op["setup"])
            earlier = twin or first_seen.setdefault(key, op)
            if earlier is not op and not same_output(op, earlier):
                p.append("output differs from " + ("its untraced twin" if twin
                                                   else f"op {earlier['id']} on the same input"))
        if p:
            failed += 1
            problems.append(f"op {op['id']} ({op['kind']} {op['role']} {op['input']}): "
                            + "; ".join(p[:3]))
    attempted = len(ops)
    for k, probe in enumerate(probes):
        for op, twin in zip(probe["ops"], ops):
            attempted += 1
            p = op_problems(op)
            if not p and not same_output(op, twin):
                p.append("set-up output differs from the worker's")
            if p:
                failed += 1
                problems.append(f"set-up probe {k + 1} op {op['id']}: " + "; ".join(p[:3]))
    for chk in main.get("mac_checks", []):
        if chk["trace_macs"] != chk["count_macs"]:
            problems.append(f"traced MACs {chk['trace_macs']} != profiler.count_macs "
                            f"{chk['count_macs']} for input {chk['shape']}")
    return attempted, failed, problems


def machine() -> dict:
    """Where the numbers come from."""
    import numpy as np

    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": None, "python": platform.python_version(),
            "numpy": np.__version__, "blas": None, "blas_env": BLAS_ENV, "commit": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        pass
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "src"],
                                   capture_output=True, text=True, check=False).stdout
            info["commit"] = out.stdout.strip() + ("+dirty-src" if dirty.strip() else "")
    return info


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    os.environ.update(BLAS_ENV)  # before NumPy loads, so inputs see the workers' BLAS
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    work = WORK / workload
    manifest = prepare(workload, seed, work / "inputs", reference)
    manifest_path = work / "inputs" / "manifest.json"
    main = spawn(manifest_path, work / "main.json", seconds, trace)
    probes = []
    while (not trace and len(probes) + 1 < SETUP_SAMPLES
           and sum(p["setup_wall_s"] for p in [main] + probes) < SETUP_BUDGET_S):
        probes.append(spawn(manifest_path, work / f"probe{len(probes) + 1}.json", 0, 0,
                            setup_only=True))
    setups = [p["setup_s"] for p in [main] + probes]
    attempted, failed, problems = check_ops(workload, manifest, reference, main, probes)

    ops = main["ops"]

    def samples(kind: str, field: str) -> list[float]:
        return [o[field] for o in ops if o["kind"] == kind and not o["setup"] and not o["traced"]]

    primary = samples(main["primary"], "cpu_ms")
    evals = samples("eval", "cpu_ms")
    tail_ms, tail_pct = tail(primary)
    wall = {"setup_s": statistics.median(p["setup_wall_s"] for p in [main] + probes),
            "op_ms_p50": statistics.median(samples(main["primary"], "ms")),
            "op_ms_tail": tail(samples(main["primary"], "ms"))[0],
            "eval_s": statistics.median(samples("eval", "ms")) / 1e3}
    if trace:
        from tracer import PER_LAYER
        metrics = {name: {"value": main["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {"setup_s": statistics.median(setups), "peak_rss_mb": main["peak_rss_mb"],
                  "op_cpu_ms_p50": statistics.median(primary), "op_cpu_ms_tail": tail_ms,
                  "eval_cpu_s": statistics.median(evals) / 1e3}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "summary": {"correct": failed == 0 and not problems, "attempted": attempted,
                    "failed": failed, "metrics": metrics},
        "workload": workload, "seed": seed, "canary_seed": manifest["canary_seed"],
        "seconds": seconds, "trace": trace, "primary_op": main["primary"],
        "op_samples": len(primary), "op_ms_tail_percentile": tail_pct,
        "eval_samples": len(evals), "setup_samples_s": setups, "wall": wall,
        "measure_s": main.get("measure_s"), "problems": problems,
        "trace_roots": main.get("trace_roots"), "mac_checks": main.get("mac_checks"),
        "spans_recorded": main.get("spans"),
        "ops": [{k: o[k] for k in ("id", "kind", "role", "input", "ms", "cpu_ms", "setup",
                                   "traced")}
                for o in ops],
        "machine": {**machine(), "worker_blas_threads": main["blas_threads"]},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    missing = [str(x) for x in (SRC / "firedet" / "cli.py", REFERENCE) if not x.exists()]
    if missing:
        print(f"perfbench: not a firedet source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    for line in result["problems"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['op_samples']} {result['primary_op']} ops, tail = "
          f"p{result['op_ms_tail_percentile']:.1f}, {result['eval_samples']} evals, "
          f"set-up samples {[round(s, 3) for s in result['setup_samples_s']]}; "
          f"details in {out.relative_to(ROOT)}")
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
