"""Print the exit code and the sha256 of stdout and of stderr of a fixed
set of ckverify commands, one line per command, so that two checkouts
compare by a diff of this script's output:

    python3 tools/digests.py > a.txt     # in one checkout
    python3 tools/digests.py > b.txt     # in the other
    diff a.txt b.txt

Each line is `exit stdout-sha256 stderr-sha256 argv`.  The commands, 254
in all:

- `verify` of each claim, `--symbolic` and at b = 2, 3, 7 and 100, as
  text and with `--certificates --format json` (60 commands);
- `sweep --from 2 --to 100` as text and as json;
- `check-file --involution-stability` on the 96 files of one ckbench
  `files` pass at seed 1 and at seed 5 (192 commands), generated by
  `ckbench/workloads.py` into a temporary directory and named relative
  to it, so that argv reads the same in every checkout.

Every command is one call of `ckverify.cli.main` in this process, imported
from the `src/` beside this directory.  The script uses only the standard
library and takes no arguments.  It takes about a minute on 2 vCPUs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULI = (2, 3, 7, 100)
FILE_SEEDS = (1, 5)


def commands(workloads, directory: Path) -> list:
    """The argv of every command, in the order they are printed; the
    check-file inputs are written under directory, and their paths are
    relative to it."""
    out = []
    for claim in workloads.CLAIMS:
        for mode in (["--symbolic"], *(["--b", str(b)] for b in MODULI)):
            out.append(["verify", claim, *mode])
            out.append(["verify", claim, *mode, "--certificates",
                        "--format", "json"])
    sweep = ["sweep", "--from", "2", "--to", "100"]
    out += [sweep, sweep + ["--format", "json"]]
    for seed in FILE_SEEDS:
        (directory / f"seed{seed}").mkdir()
        for name, text, _ in workloads.files_inputs(random.Random(seed)):
            path = f"seed{seed}/{name}"
            (directory / path).write_text(text, encoding="utf-8")
            out.append(["check-file", path, "--involution-stability"])
    return out


def run(main, argv) -> str:
    """The line of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    digest = [hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest()
              for s in (out, err)]
    return f"{code} {digest[0]} {digest[1]} {shlex.join(argv)}"


def main() -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT / "ckbench"))
    import ckverify
    import workloads
    from ckverify.cli import main as cli_main
    if Path(ckverify.__file__).resolve().parent != SRC / "ckverify":
        print(f"imported ckverify from {ckverify.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        argvs = commands(workloads, Path(directory))
        os.chdir(directory)
        try:
            for argv in argvs:
                print(run(cli_main, argv), flush=True)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
