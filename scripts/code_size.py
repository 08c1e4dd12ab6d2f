#!/usr/bin/env python3
"""Print the size of the firedet source as one JSON line.

    python3 scripts/code_size.py [SRC_DIR]

Three counts, all from the files under ``SRC_DIR`` (default ``src/firedet``
beside this script's parent directory), without importing the package:

- ``src_lines``: physical lines of every ``.py`` file;
- ``defaulted_params``: parameters with a default value, positional and
  keyword-only, summed over every ``def`` (``ast``);
- ``config_fields``: fields of the ``ModelConfig`` dataclass.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path


def code_size(src: Path) -> dict:
    lines = defaulted = fields = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaulted += len(node.args.defaults)
                defaulted += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and node.name == "ModelConfig":
                fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return {"src_lines": lines, "defaulted_params": defaulted, "config_fields": fields}


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "firedet"
    print(json.dumps(code_size(src)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
