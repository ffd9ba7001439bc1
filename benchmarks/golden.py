"""Write a fixed set of CLI artifacts so two checkouts can be compared byte
for byte.

Run from each checkout, then compare the two directories:

    python3 benchmarks/golden.py --out /tmp/golden-a
    python3 benchmarks/golden.py --out /tmp/golden-b     # other checkout
    diff -r /tmp/golden-a /tmp/golden-b                  # byte for byte
    python3 benchmarks/golden.py --compare /tmp/golden-a /tmp/golden-b

``--compare A B`` reads every JSON and CSV number of the two trees as a
float (``%.17g`` writes 5.2e16 as integer text) and allows a relative
deviation up to ``RTOL``, with two typed rules: an error-type field (a key
ending in ``_error``) within ``ERROR_FLOOR`` of the other deviates by 0,
and an entry of ``lines`` deviates by its angle to the other line, as
``line_angle`` measures it.  Keys, strings, booleans, nulls, the file list
and every other file, ``console.txt`` included, must match exactly, and a
NaN against a number is a difference.  It prints each file that differs
with its largest deviation and where it occurs, and exits 1 on any
difference past the bound.

No artifact may depend on the BLAS kernel.  To check, run the script twice
in one checkout, once on OpenBLAS's non-FMA Prescott kernel and once on the
kernel it detects; ``diff -r`` of the two trees must be empty:

    OPENBLAS_CORETYPE=Prescott python3 benchmarks/golden.py --out /tmp/golden-prescott
    python3 benchmarks/golden.py --out /tmp/golden-detected
    diff -r /tmp/golden-prescott /tmp/golden-detected

The script imports ``engel_lab`` from the ``src/`` of its own checkout and
runs every command in-process through ``engel_lab.cli.main``, each into its
own subdirectory ``NNN/``.  ``NNN/console.txt`` holds the command line, the
exit code, stdout and stderr, with the output directory written as ``OUT``.

The commands are: the tasks of the four benchmark workloads
(``perfbench/workloads.py``) at fixed seeds, ``classify`` for every chart
preset at the CLI defaults, chart and Lie orbits as JSON and CSV, two
``rigidity`` runs at edge-case trial counts, and the ``report`` table as CSV.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from engel_lab import cli  # noqa: E402
from engel_lab.engel_verify import line_angle  # noqa: E402
from engel_lab.presets import preset_names  # noqa: E402
from perfbench import workloads  # noqa: E402

WORKLOAD_SEEDS = (1, 2)
RTOL = 1e-9     # --compare: the largest relative deviation of a number
ERROR_FLOOR = 4 * sys.float_info.epsilon    # --compare: error-type fields this close are equal
ORBITS = (
    ["--preset", "lorentz-magnetic", "--kappa", "-0.5", "-T", "5"],
    ["--preset", "lorentz-product", "--kappa", "0", "-T", "2"],
    ["--preset", "darboux", "-T", "1"],
    ["--preset", "propellor-cat", "-T", "1", "--dt", "0.01"],
    ["--preset", "lorentz-magnetic-lie", "--kappa", "-1", "-T", "10"],
    ["--preset", "lorentz-product-lie", "--kappa", "0.5", "-T", "10"],
    ["--preset", "magnetic-bump", "-T", "2"],
)
# rigidity edge cases: fewer trials than the 100 integral-identity curves,
# and a trial count that is no multiple of the probe's block
RIGIDITY = (["--trials", "60", "--seed", "3"], ["--trials", "250", "--seed", "5"])


def commands() -> list:
    cmds = []
    for name in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            cmds += [task.argv for task in workloads.build(name, seed).tasks]
    cmds += [["classify", "--preset", p] for p in preset_names() if not p.endswith("-lie")]
    for args in ORBITS:
        cmds += [["orbit", *args], ["orbit", *args, "--format", "csv"]]
    cmds += [["rigidity", *args] for args in RIGIDITY]
    cmds += [["report", "--format", "csv"]]
    return cmds


def run(argv: list, out: Path) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main([*argv, "--out", str(out)])
    text = (f"$ engel-lab {' '.join(argv)}\nexit {rc}\n"
            f"--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}")
    return text.replace(str(out), "OUT")


def _deviation(a: float, b: float) -> float | None:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    dev = abs(a - b) / max(abs(a), abs(b))
    return None if math.isnan(dev) else dev     # NaN or inf against a number


def _walk(a, b, where: str, key: str = ""):
    """Yield ``(where, deviation)`` for each pair of numbers in two parsed
    JSON values, and ``(where, None)`` for each other difference.  The
    deviation is relative, but 0 for an error-type field within
    ``ERROR_FLOOR`` and the angle between the lines for an entry of
    ``lines``.  ``key`` is the dict key the values sit under, through lists."""
    if type(a) is float and type(b) is float:
        floor = ERROR_FLOOR if key.endswith("_error") else 0.0
        yield where, 0.0 if abs(a - b) <= floor else _deviation(a, b)
    elif (key == "lines" and isinstance(a, list) and isinstance(b, list) and a and a != b
          and len(a) == len(b) and all(type(x) is float for x in a + b)):
        angle = float(line_angle(np.array(a), np.array(b))[0])
        yield where, None if math.isnan(angle) else angle
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            yield f"{where} keys", None
        else:
            for k in a:
                yield from _walk(a[k], b[k], f"{where}.{k}" if where else k, k)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{where} length", None
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from _walk(x, y, f"{where}[{i}]", key)
    elif type(a) is not type(b) or a != b:
        yield where, None


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[:1] + [[_cell(c) for c in row] for row in rows[1:]]


def _differences(a: Path, b: Path):
    """The ``_walk`` pairs of two artifacts: numbers in JSON and CSV, and
    the first differing line of any other file."""
    if a.suffix == ".json":
        load = lambda p: json.loads(p.read_text(), parse_int=float)
        return _walk(load(a), load(b), "")
    if a.suffix == ".csv":
        return _walk(_csv_rows(a), _csv_rows(b), "rows")
    lines = zip_longest(a.read_text().splitlines(), b.read_text().splitlines())
    return [(f"line {i + 1}", None) for i, (x, y) in enumerate(lines) if x != y][:1]


def compare(root_a: Path, root_b: Path) -> int:
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    failed = 0
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {root_a if rel in files_a else root_b}")
        failed += 1
    same = 0
    for rel in sorted(files_a & files_b):
        a, b = root_a / rel, root_b / rel
        if a.read_bytes() == b.read_bytes():
            same += 1
            continue
        worst, where, other = 0.0, "", []
        for w, dev in _differences(a, b):
            if dev is None:
                other.append(w)
            elif dev > worst:
                worst, where = dev, w
        bad = bool(other) or worst > RTOL
        failed += bad
        parts = [f"largest deviation {worst:.3g} at {where}"] if where else []
        parts += [f"differs at {', '.join(other[:5])}"] if other else []
        print(f"{rel}: {'; '.join(parts) or 'same numbers'}" + (" FAIL" if bad else ""))
    total = len(files_a | files_b)
    print(f"golden compare: {total} files, {same} identical, {total - same - failed} within "
          f"relative {RTOL:g}, {failed} failing")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="directory to write the artifacts into")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="compare two artifact trees instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        roots = [Path(d) for d in args.compare]
        if missing := [str(d) for d in roots if not d.is_dir()]:
            parser.error(f"not a directory: {', '.join(missing)}")
        return compare(*roots)
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
