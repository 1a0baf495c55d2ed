"""Rewrite `digests.json` from the current code.

Runs every config in this directory through the `hetfed` CLI (`pool`,
`partition` and `run`) and records the sha256 of each output. Run it only
for a deliberate change of output, and name each moved file in CHANGES.md:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import tempfile

from hetfed.cli import EXIT_OK, main

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def golden_digests(out_root: str) -> dict[str, str]:
    """sha256 of every output of every golden config, keyed
    `<config>/<file>`: each file `hetfed run` writes into
    `out_root/<config>`, and the stdout of `hetfed pool` and
    `hetfed partition` as `pool.csv` and `partition.csv`."""
    digests = {}
    for path in sorted(glob.glob(os.path.join(HERE, "*.cfg"))):
        name = os.path.splitext(os.path.basename(path))[0]
        out = os.path.join(out_root, name)
        for command, args in (("pool", []), ("partition", []), ("run", ["--out", out])):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([command, path, *args])
            if code != EXIT_OK:
                raise RuntimeError(f"hetfed {command} {name}.cfg exited {code}")
            if command != "run":
                digests[f"{name}/{command}.csv"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        for file in sorted(os.listdir(out)):
            with open(os.path.join(out, file), "rb") as fh:
                digests[f"{name}/{file}"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


if __name__ == "__main__":
    # The environment overrides would move the seed or the output directory.
    for var in ("HETFED_SEED", "HETFED_OUT"):
        os.environ.pop(var, None)
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(tmp)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
