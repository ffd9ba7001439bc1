"""Write a fixed set of CLI artifacts so two checkouts can be compared byte
for byte.

Run from each checkout, then compare the two directories:

    python3 benchmarks/golden.py --out /tmp/golden-a
    python3 benchmarks/golden.py --out /tmp/golden-b     # other checkout
    diff -r /tmp/golden-a /tmp/golden-b

The script imports ``engel_lab`` from the ``src/`` of its own checkout and
runs every command in-process through ``engel_lab.cli.main``, each into its
own subdirectory ``NNN/``.  ``NNN/console.txt`` holds the command line, the
exit code, stdout and stderr, with the output directory written as ``OUT``.

The commands are: the tasks of the four benchmark workloads
(``perfbench/workloads.py``) at fixed seeds, ``classify`` for every chart
preset at the CLI defaults, and chart and Lie orbits as JSON and CSV.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from engel_lab import cli  # noqa: E402
from engel_lab.presets import preset_names  # noqa: E402
from perfbench import workloads  # noqa: E402

WORKLOAD_SEEDS = (1, 2)
ORBITS = (
    ["--preset", "lorentz-magnetic", "--kappa", "-0.5", "-T", "5"],
    ["--preset", "lorentz-product", "--kappa", "0", "-T", "2"],
    ["--preset", "darboux", "-T", "1"],
    ["--preset", "propellor-cat", "-T", "1", "--dt", "0.01"],
    ["--preset", "lorentz-magnetic-lie", "--kappa", "-1", "-T", "10"],
    ["--preset", "lorentz-product-lie", "--kappa", "0.5", "-T", "10"],
)


def commands() -> list:
    cmds = []
    for name in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            cmds += [task.argv for task in workloads.build(name, seed).tasks]
    cmds += [["classify", "--preset", p] for p in preset_names() if not p.endswith("-lie")]
    for args in ORBITS:
        cmds += [["orbit", *args], ["orbit", *args, "--format", "csv"]]
    return cmds


def run(argv: list, out: Path) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main([*argv, "--out", str(out)])
    text = (f"$ engel-lab {' '.join(argv)}\nexit {rc}\n"
            f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")
    return text.replace(str(out), "OUT")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="directory to write the artifacts into")
    args = parser.parse_args(argv)
    root = Path(args.out)
    cmds = commands()
    for i, cmd in enumerate(cmds):
        out = root / f"{i:03d}"
        out.mkdir(parents=True, exist_ok=True)
        (out / "console.txt").write_text(run(cmd, out))
    print(f"golden: {len(cmds)} commands -> {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
