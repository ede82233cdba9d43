"""Output checks and quality figures, read from the files the program writes.

Each check returns a list of problems; an empty list means the output is
correct. The parsers follow the byte formats documented in the README and do
not import the program, so a broken reader in the program cannot hide a
broken writer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np


def hash_dir(path: str) -> dict:
    """sha256 of every file in ``path``, by name."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def digest(obj) -> str:
    """sha256 of a JSON-serializable value."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of every source file under ``root``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _data_rows(path: str) -> list[str]:
    """Non-comment lines of a text output, header included."""
    with open(path, "r", encoding="utf-8") as fh:
        return [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]


def read_assignment(out_dir: str):
    """(k, assignment) from clusters.bin: magic, k, dim, count, centroids, assignment."""
    with open(os.path.join(out_dir, "clusters.bin"), "rb") as fh:
        data = fh.read()
    if data[:4] != b"KMC1" or len(data) < 28:
        raise ValueError("clusters.bin: bad magic or header")
    k, dim, count = struct.unpack_from("<QQQ", data, 4)
    off = 28 + 8 * k * dim
    if len(data) != off + 4 * count:
        raise ValueError("clusters.bin: payload size does not match header")
    return k, np.frombuffer(data, dtype="<u4", count=count, offset=off)


def read_selection(out_dir: str) -> list[int]:
    return [int(x) for x in _data_rows(os.path.join(out_dir, "selection.txt"))]


def read_ledger(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "ledger.jsonl"), "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_clusters(out_dir: str, k: int, count: int) -> list[str]:
    try:
        got_k, assignment = read_assignment(out_dir)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    if got_k != k or assignment.size != count:
        return [f"clusters.bin: k={got_k} count={assignment.size}, expected k={k} count={count}"]
    if assignment.max(initial=0) >= k:
        return ["clusters.bin: assignment out of range"]
    empty = int(np.sum(np.bincount(assignment, minlength=k) == 0))
    return [f"clusters.bin: {empty} empty clusters"] if empty else []


def check_selection(out_dir: str, budget: int, count: int) -> list[str]:
    try:
        selected = read_selection(out_dir)
        summary = read_ledger(out_dir)[-1]
    except (OSError, ValueError, IndexError) as exc:
        return [f"selection: {exc}"]
    problems = []
    if len(set(selected)) != len(selected):
        problems.append("selection.txt: duplicate ids")
    if any(i < 0 or i >= count for i in selected):
        problems.append("selection.txt: id outside the pool")
    if len(selected) < budget and not summary.get("truncated"):
        problems.append(f"selection.txt: {len(selected)} < budget {budget} and not truncated")
    if summary.get("selected_total") != len(selected):
        problems.append("ledger.jsonl: selected_total disagrees with selection.txt")
    return problems


def check_scores(out_dir: str, ids: list[int]) -> list[str]:
    try:
        rows = [r.split(",") for r in _data_rows(os.path.join(out_dir, "scores.csv"))[1:]]
        got = [(int(r[0]), float(r[1])) for r in rows]
    except (OSError, ValueError, IndexError) as exc:
        return [f"scores.csv: {exc}"]
    if [i for i, _ in got] != ids:
        return ["scores.csv: ids differ from the requested ids or their order"]
    if not all(math.isfinite(s) for _, s in got):
        return ["scores.csv: non-finite score"]
    return []


def read_losses(out_dir: str) -> list[tuple[str, float]]:
    rows = [r.split(",") for r in _data_rows(os.path.join(out_dir, "report_loss.csv"))[1:]]
    return [(name, float(val)) for name, val in rows]


def check_report(out_dir: str) -> list[str]:
    try:
        losses = read_losses(out_dir)
    except (OSError, ValueError) as exc:
        return [f"report_loss.csv: {exc}"]
    names = [name for name, _ in losses]
    if sorted(names) != ["initial", "random", "selected", "top-clusters"]:
        return [f"report_loss.csv: rows {names}, expected initial, selected, random, top-clusters"]
    if not all(math.isfinite(v) for _, v in losses):
        return ["report_loss.csv: non-finite loss"]
    return []


def distinct_scored(out_dir: str) -> int:
    """Distinct candidates the bandit scored, from the ledger's pulls."""
    ids = set()
    for rec in read_ledger(out_dir):
        for pull in rec.get("pulls", []):
            ids.update(pull["sampled_ids"])
    return len(ids)


def aligned_frac(out_dir: str, component: np.ndarray, aligned: int) -> float:
    """Share of selected ids drawn from the planted aligned components."""
    selected = read_selection(out_dir)
    return float(np.mean(component[selected] < aligned)) if selected else 0.0


def ref_loss_gain(out_dir: str) -> float:
    """Random-baseline minus selected reference loss."""
    losses = dict(read_losses(out_dir))
    return losses["random"] - losses["selected"]


def cluster_purity(out_dir: str, component: np.ndarray) -> float:
    """Share of instances whose cluster's most common component is their own."""
    k, assignment = read_assignment(out_dir)
    joint = np.zeros((k, int(component.max()) + 1), dtype=np.int64)
    np.add.at(joint, (assignment.astype(np.int64), component), 1)
    return float(joint.max(axis=1).sum() / component.size)
