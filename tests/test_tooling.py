"""Repository tooling under ``scripts/`` runs and reports what it promises."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from firedet.model import ModelConfig

REPO = Path(__file__).resolve().parent.parent


def test_code_size_prints_one_json_line_of_three_counts():
    # Run with NumPy made unimportable: the script reads the source as text.
    script = REPO / "scripts" / "code_size.py"
    code = ("import runpy, sys; sys.modules['numpy'] = None; "
            f"runpy.run_path({str(script)!r}, run_name='__main__')")
    out = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.count("\n") == 1
    counts = json.loads(out)
    assert sorted(counts) == ["config_fields", "defaulted_params", "src_lines"]
    assert all(isinstance(v, int) and v > 0 for v in counts.values())
    assert counts["config_fields"] == len(dataclasses.fields(ModelConfig))
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (REPO / "src" / "firedet").rglob("*.py"))
    assert counts["src_lines"] == lines


def test_benchmark_tracer_finds_every_function_it_wraps():
    # perfbench/tracer.py wraps firedet functions and methods by name, so a
    # deleted or renamed one fails here, not first in a traced benchmark run.
    code = (f"import sys; sys.path[:0] = [{str(REPO / 'perfbench')!r}, {str(REPO / 'src')!r}]; "
            "from tracer import Tracer, install; install(Tracer())")
    run = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_package_runs_as_a_program():
    # ``python -m firedet`` starts through ``__main__.py``: help lists the
    # six verbs and exits 0; argparse rejects an unknown verb or scope with 2.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "firedet", *args], cwd=REPO, env=env,
                              capture_output=True, text=True, timeout=60)

    shown = run("--help")
    assert shown.returncode == 0, shown.stderr
    assert "{infer,profile,gradcheck,eval,synth,train-toy}" in shown.stdout
    unknown = run("detect")
    assert unknown.returncode == 2 and "invalid choice: 'detect'" in unknown.stderr
    scope = run("gradcheck", "--scope", "nope")
    assert scope.returncode == 2 and "invalid choice: 'nope'" in scope.stderr
