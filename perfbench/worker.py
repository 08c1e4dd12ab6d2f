"""The measured process: runs one workload's ops in-process and times them.

Started fresh by ``run.py`` for every measurement, so that set-up time
(interpreter start, import, config, build, weight and dataset load and the
first-call costs of the first op) is what a one-shot CLI user pays.  It
calls the user-facing entry points: ``firedet.cli.main`` for ``infer`` (one
call per frame) and ``eval``, and ``train.train_toy`` with its per-step
``log`` callback followed by ``train.evaluate_model``.

Each op is timed twice: wall time (``ms``) and the CPU time of this process
(``cpu_ms``, user plus system time of all its threads).  Ops are
single-threaded (BLAS is pinned to one thread), so on an idle core the two
agree; on a shared host wall time also counts the time the hypervisor gives
the vCPU to other guests (steal), which comes and goes in phases: over
seven seeds of the dense workload at 320 px the median frame's wall time
spread by 17.5% and its CPU time by 6.2%.

The worker only runs and times; ``run.py`` checks every output afterwards,
so the checks add nothing to the worker's time or memory.

Usage (from ``run.py``)::

    python3 perfbench/worker.py --manifest M --seconds S --trace 0|1
        --spawned-at T --result R [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))
from inputs import SRC, TOY_EVAL_THRESHOLD, TOY_LR, TOY_STEPS_PER_ROUND  # noqa: E402


class Runner:
    """Shared op bookkeeping; ``tracer`` is None when tracing is off."""

    def __init__(self, manifest: dict, out_dir: Path, tracer):
        self.m = manifest
        self.out = out_dir
        self.tracer = tracer
        self.ops: list[dict] = []
        self.t_setup: float | None = None
        self.cpu_setup: float | None = None

    def timed(self, kind: str, traced: bool, fn):
        """Run ``fn`` as one op; returns (result, {"ms", "cpu_ms"}, error)."""
        tr = self.tracer if traced else None
        if tr is not None:
            tr.on = True
            idx = tr.open(f"op.{kind}")
        c, t = process_time(), perf_counter()
        try:
            result, error = fn(), None
        except Exception:  # a crashing op is a failed op, not a crashed benchmark
            result, error = None, traceback.format_exc()
            print(error, file=sys.stderr)
        finally:
            times = {"ms": 1e3 * (perf_counter() - t), "cpu_ms": 1e3 * (process_time() - c)}
            if tr is not None:
                tr.close(idx)
                tr.on = False
        return result, times, error

    def mark_setup(self) -> None:
        """The first op just ended: set-up is over."""
        self.t_setup = time.monotonic()
        self.cpu_setup = process_time()

    def record(self, **op) -> dict:
        op.setdefault("setup", False)
        op["id"] = len(self.ops)
        self.ops.append(op)
        return op


class FrameRunner(Runner):
    """detect-640 and eval-256-dense: infer one frame, then eval its detections."""

    primary = "frame"

    def __init__(self, *a):
        super().__init__(*a)
        from firedet import cli
        self.cli = cli

    def frame(self, role: str, i: int, tag: str, traced: bool, setup: bool = False) -> dict:
        e = self.m[role]
        out = self.out / f"{tag}.dets.jsonl"
        argv = ["infer", e["frames"][i], "--config", self.m["config"],
                "--weights", e["weights"], "--score-threshold", repr(e["thresholds"][i]),
                "--out", str(out)]
        rc, times, err = self.timed("frame", traced, lambda: self.cli.main(argv))
        if setup:
            self.mark_setup()
        return self.record(kind="frame", role=role, input=i, **times, rc=rc, error=err,
                           out=str(out), traced=traced, setup=setup)

    def eval(self, role: str, i: int, dets: str, tag: str, traced: bool) -> dict:
        out = self.out / f"{tag}.eval.txt"
        argv = ["eval", "--dets", dets, "--gts", self.m[role]["gts"][i]]
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return self.cli.main(argv)

        rc, times, err = self.timed("eval", traced, call)
        out.write_text(buf.getvalue(), encoding="utf-8")
        return self.record(kind="eval", role=role, input=i, **times, rc=rc, error=err,
                           out=str(out), dets=dets, traced=traced)

    def setup(self, only: bool = False) -> None:
        """The set-up op; ``only`` means the process ends after it."""
        self.canary = self.frame("canary", 0, "setup", False, setup=True)

    def unit(self, k: int, tag: str, traced: bool) -> list[dict]:
        if k == 0:
            return [self.eval("canary", 0, self.canary["out"], tag, traced)]
        i = (k - 1) % len(self.m["seeded"]["frames"])
        f = self.frame("seeded", i, tag, traced)
        return [f, self.eval("seeded", i, f["out"], tag, traced)]


class TrainRunner(Runner):
    """train-toy-64: rounds of full-batch steps, each followed by evaluate_model."""

    primary = "step"

    def __init__(self, *a):
        super().__init__(*a)
        from firedet import fileio, model, rng, train, weights
        self.fileio, self.model, self.rng, self.train, self.weights = fileio, model, rng, train, weights
        config = fileio.load_config(self.m["config"])
        self.datasets = {role: train.load_dataset(self.m[role]["data"], config)
                         for role in ("canary", "seeded")}

    def round(self, role: str, tag: str, traced: bool, setup: bool = False,
              steps: int = TOY_STEPS_PER_ROUND) -> list[dict]:
        """``steps`` train steps, then (for a whole round) evaluate_model."""
        e = self.m[role]

        def prepare():
            config = self.fileio.load_config(self.m["config"])
            net = self.model.build(config, self.rng.Rng(0))
            self.weights.load_weights(Path(e["weights"]).read_bytes(), net)
            return config, net

        (config, net), _, _ = self.timed("prepare", traced, prepare)
        tr = self.tracer if traced else None
        ops: list[dict] = []
        clock = {}

        def begin(kind):
            if tr is not None:
                tr.on = True
                clock["span"] = tr.open(f"op.{kind}")
            clock["cpu"], clock["t"] = process_time(), perf_counter()

        def log(step, loss):
            times = {"ms": 1e3 * (perf_counter() - clock["t"]),
                     "cpu_ms": 1e3 * (process_time() - clock["cpu"])}
            if tr is not None:
                tr.close(clock["span"])
            first = setup and step == 1
            if first:
                self.mark_setup()
            ops.append(self.record(kind="step", role=role, input=step, **times, rc=0,
                                   error=None, loss=loss, traced=traced, setup=first))
            begin("step")

        begin("step")
        try:
            result = self.train.train_toy(net, config, self.datasets[role],
                                          steps=steps, lr=TOY_LR, log=log)
        except Exception:
            result = None
            print(traceback.format_exc(), file=sys.stderr)
        if tr is not None:  # the span opened after the last step covers only the return
            tr.spans[clock["span"]][0] = "op.glue"
            tr.close(clock["span"])
            tr.on = False
        if steps < TOY_STEPS_PER_ROUND:
            return ops
        ev, times, err = self.timed("eval", traced, lambda: self.train.evaluate_model(
            net, config, self.datasets[role], score_threshold=TOY_EVAL_THRESHOLD))
        out = self.out / f"{tag}.round.json"
        out.write_text(json.dumps({
            "losses": None if result is None else result.losses,
            "box_losses": None if result is None else result.box_losses,
            "cls_losses": None if result is None else result.cls_losses,
            "eval": None if ev is None else {k: getattr(ev, k) for k in (
                "precision", "recall", "f1", "map50", "map75", "map50_95")},
        }), encoding="utf-8")
        rc = 0 if result is not None and len(ops) == TOY_STEPS_PER_ROUND else 1
        ops.append(self.record(kind="eval", role=role, input=0, **times, rc=rc, error=err,
                               out=str(out), traced=traced))
        return ops

    def setup(self, only: bool = False) -> None:
        """Round 0 on the canary; its first step is the set-up op."""
        self.round("canary", "setup", False, setup=True,
                   steps=1 if only else TOY_STEPS_PER_ROUND)

    def unit(self, k: int, tag: str, traced: bool) -> list[dict]:
        return self.round("seeded", tag, traced)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--manifest", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    out_dir = Path(args.result).parent / (Path(args.result).stem + ".out")
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    cls = TrainRunner if manifest["workload"] == "train-toy-64" else FrameRunner
    runner = cls(manifest, out_dir, tracer)
    runner.setup(only=args.setup_only)
    result = {"setup_wall_s": runner.t_setup - args.spawned_at if runner.t_setup else None,
              "setup_s": runner.cpu_setup}
    if not args.setup_only:
        t0 = perf_counter()
        k = 0
        while True:
            twins = runner.unit(k, f"u{k}", False)
            if tracer is not None:
                for plain, traced in zip(twins, runner.unit(k, f"u{k}t", True)):
                    traced["twin"] = plain["id"]
            k += 1
            # Stop after --seconds, but not before one primary op was measured,
            # unless ops keep failing.
            measured = any(o["kind"] == runner.primary and not o["setup"] for o in runner.ops)
            if perf_counter() - t0 >= args.seconds and (measured or k >= 3):
                break
        result["measure_s"] = perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["blas_threads"] = blas_threads()
    result["primary"] = runner.primary
    result["ops"] = runner.ops
    if tracer is not None:
        result.update(trace_summary(tracer, manifest, runner))
        tracer.write(out_dir / "spans.jsonl")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that NumPy loaded, or None if it is not OpenBLAS."""
    import ctypes
    libs = sorted({ln.split()[-1] for ln in Path("/proc/self/maps").read_text().splitlines()
                   if "openblas" in ln and ln.split()[-1].endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def trace_summary(tracer, manifest: dict, runner: Runner) -> dict:
    """Per-layer metrics, the MAC cross-check and the traced/untraced timing."""
    import statistics

    from firedet.fileio import load_config
    from firedet.model import build
    from firedet.profiler import count_macs
    from firedet.rng import Rng
    from tracer import aggregate, forward_macs, layer_metrics

    config = load_config(manifest["config"])
    expected: dict[tuple, int] = {}
    mac_checks = []
    for info, macs in forward_macs(tracer):
        n, _, h, w = info["shape"]
        key = (n, h, w)
        if key not in expected:
            expected[key] = count_macs(build(config, Rng(0)), h)[1] * n
        mac_checks.append({"shape": info["shape"], "trace_macs": macs,
                           "count_macs": expected[key]})
    primary = runner.primary
    plain = [o["cpu_ms"] for o in runner.ops
             if o["kind"] == primary and not o["traced"] and not o["setup"]]
    traced = [o["cpu_ms"] for o in runner.ops if o["kind"] == primary and o["traced"]]
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    agg = aggregate(tracer)
    n_steps = sum(1 for o in runner.ops if o["kind"] == "step" and o["traced"])
    layers = layer_metrics(agg, primary, n_steps, overhead, len(mac_checks))
    return {"layers": layers, "mac_checks": mac_checks,
            "trace_roots": agg["roots"], "spans": len(tracer.spans)}


if __name__ == "__main__":
    sys.exit(main())
