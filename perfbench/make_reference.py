"""Regenerate ``reference.json``: the values the simulate workloads are held to.

    python3 perfbench/make_reference.py

Runs each seed-independent simulate workload once through
``releasesim.cli.main`` and stores the final-sample rows of ``matrix.csv``
and ``tissue.csv``, the ``metrics.json`` scalars and the artifact hashes.
Only regenerate it when the program's numbers are meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from releasesim import cli  # noqa: E402


def main() -> int:
    workdir = HERE / "_runs" / "reference"
    stored = {}
    try:
        for name in ("reference_simulate", "fine_grid"):
            spec = workloads.build(name, 0, workdir)
            out = workdir / name
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(spec["commands"][0] + ["--out", str(out)])
            if rc != 0:
                print(f"error: {name} exited {rc}", file=sys.stderr)
                return 1
            stored[name] = checks.reference_values(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps({"workloads": stored}, indent=1, sort_keys=True)
    # one CSV row per line
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    (HERE / "reference.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
