#!/usr/bin/env python3
"""Byte-compare the output files of this checkout's program with another's.

    python scripts/compare_outputs.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout. The default synthetic
corpus is generated once; then each side runs the same commands with the
same config, into the same paths (so the config fingerprints match), and its
outputs are kept apart:

  pipeline  cluster, select, score --ids 0,5,9,100,2000, report at the
            config of ``run_end_to_end.py``;
  sketch    cluster, then select with influence.use_sketch=true and
            influence.sketch_dim=64;
  oracle    oracle-check at its defaults;
  simulate  simulate-bandit at its defaults.

Every file that differs, or that only one side wrote, is listed; the exit
code is 1 if there is any, else 0. A CSV or JSONL file that differs only in
its numbers is marked "numbers only", with the largest relative difference
between two of its numbers.
"""

import argparse
import filecmp
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run_end_to_end import CONFIG_TEMPLATE  # noqa: E402

SCORE_IDS = "0,5,9,100,2000"
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
TEXT_SUFFIXES = (".csv", ".jsonl")
STAGES = [
    ("pipeline", [], [["cluster"], ["select"], ["score", "--ids", SCORE_IDS], ["report"]]),
    ("sketch", ["influence.use_sketch=true", "influence.sketch_dim=64"],
     [["cluster"], ["select"]]),
    ("oracle", [], [["oracle-check"]]),
    ("simulate", [], [["simulate-bandit"]]),
]


def run_side(src: str, cfg_path: str, out: str) -> None:
    """Every stage's commands with ``src`` on the path, each stage into
    ``out/<stage>``; exits 1 naming the first command that fails."""
    env = {**os.environ, "PYTHONPATH": src}
    for stage, overrides, commands in STAGES:
        sets = [f"paths.output_dir={os.path.join(out, stage)}", *overrides]
        for cmd in commands:
            argv = [sys.executable, "-m", "influence_select", *cmd, "--config", cfg_path,
                    *(arg for kv in sets for arg in ("--set", kv))]
            if subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode:
                sys.exit(f"{src}: {stage} `{' '.join(cmd)}` failed")


def files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def differing_files(a: str, b: str) -> list[str]:
    """Relative paths of the files under ``a`` and ``b`` that differ in bytes
    or exist on one side only, sorted."""
    fa, fb = files(a), files(b)
    return sorted(p for p in fa | fb if p not in fa or p not in fb or not filecmp.cmp(
        os.path.join(a, p), os.path.join(b, p), shallow=False))


def numbers_moved(a: str, b: str) -> float | None:
    """The largest relative difference between the numbers of text files
    ``a`` and ``b`` when they differ only in their numbers, else None."""
    with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
        text_a, text_b = fa.read(), fb.read()
    if NUMBER.sub("#", text_a) != NUMBER.sub("#", text_b):
        return None
    pairs = ((float(x), float(y)) for x, y in zip(NUMBER.findall(text_a), NUMBER.findall(text_b)))
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y), default=0.0)


def describe(a: str, b: str, path: str) -> str:
    """``path``, marked "numbers only" with the largest relative difference
    when it is a text output on both sides that differs only in its numbers."""
    pa, pb = os.path.join(a, path), os.path.join(b, path)
    if path.endswith(TEXT_SUFFIXES) and os.path.exists(pa) and os.path.exists(pb):
        moved = numbers_moved(pa, pb)
        if moved is not None:
            return f"{path} (numbers only, largest relative difference {moved:.3g})"
    return path


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("other_src", metavar="OTHER_SRC", help="src directory of the other checkout")
    args = ap.parse_args()
    sides = [os.path.join(os.path.dirname(HERE), "src"), os.path.abspath(args.other_src)]
    if not os.path.isdir(os.path.join(sides[1], "influence_select")):
        sys.exit(f"{args.other_src}: no influence_select package in it")

    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as work:
        data, out, cfg_path = (os.path.join(work, n) for n in ("data", "out", "run.cfg"))
        subprocess.run([sys.executable, os.path.join(HERE, "make_synthetic_data.py"),
                        "--out", data], env={**os.environ, "PYTHONPATH": sides[0]},
                       stdout=subprocess.DEVNULL, check=True)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(CONFIG_TEMPLATE.format(data=data, out=out))
        kept = []
        for i, src in enumerate(sides):
            run_side(src, cfg_path, out)
            kept.append(os.path.join(work, f"side{i}"))
            shutil.move(out, kept[-1])
        n_files = len(files(kept[0]) | files(kept[1]))
        diff = [describe(*kept, path) for path in differing_files(*kept)]

    for line in diff:
        print(f"differs: {line}")
    print(f"{len(diff)} of {n_files} files differ ({sides[0]} vs {sides[1]})")
    sys.exit(1 if diff else 0)


if __name__ == "__main__":
    main()
