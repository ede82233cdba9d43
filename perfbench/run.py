#!/usr/bin/env python3
"""Benchmark for influence-select: the real CLI, one process per command.

Run from the repository root::

    python3 perfbench/run.py --workload select-small --seed 1 --seconds 30 --trace 0

One client runs the workload's commands one after another, each in a fresh
process that starts when the previous one has exited (a closed loop with a
single client, no concurrency). A round is the workload's timed commands
once; rounds repeat while the next one is expected to end within
``--seconds`` (always at least one) and timings are medians over rounds.
BLAS/OpenMP threads of every command are pinned to ``THREADS``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes each round an
untraced then a traced iteration (see ``tracing.py``) and prints the
per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, input hashes, every sample) goes to
``.perfbench/results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

THREADS = 1  # BLAS/OpenMP threads per command; <= nproc on any machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The client's own numpy (input generation, checks, the speed probe) is pinned
# too, before it is imported: threaded BLAS spinning against other work on a
# 2-core host made the probe up to 10x slower.
os.environ.update({v: str(THREADS) for v in THREAD_VARS})

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import SCORE_IDS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3  # at least this many --help samples, one per round, topped up after
PROBE_PIECES = 2  # host-speed probe pieces before each command
PROBE_REF_S = 0.09  # a probe piece on the reference host; scaled times are times there
DEADLINE_S = 170.0  # commands still running then are killed and count as failed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
TRACER = os.path.join(ROOT, "perfbench", "tracing.py")

# End-to-end metrics in the JSON line: (name, unit). main_cmd_s and quality
# take their meaning from the workload; the human-readable lines print them
# under their own names (select_s, report_s, score_s; aligned_frac, ...).
# Throughput is printed too, but not bounded: it adds the seed-to-seed change
# in work to the timing noise.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("main_cmd_s", "s"), ("peak_rss_mb", "MB"),
              ("quality", "score")]
ITEMS = {"select": "scored_per_s", "report": "train_seq_per_s", "score": "scored_per_s"}
# Quality of the first round's outputs, and the floor it must exceed.
QUALITY = {"select": ("aligned_frac", 0.5), "report": ("ref_loss_gain", 0.0),
           "score": ("cluster_purity", 0.8)}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
    }


class SpeedProbe:
    """A fixed piece of work, timed between commands, that tracks host speed.

    The machine is shared, and its speed drifts in phases of minutes by more
    than a metric's bound, so runs made minutes apart (two commits, or two
    sets of seeds) would differ for reasons outside the program. Each piece
    mixes the kinds of work the program does: interpreted Python, small numpy
    ops, a BLAS matmul and a sweep over a 32 MB array. It is the benchmark's
    own code, so no change to the program can change it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((24, 32))
        self.w = rng.standard_normal((32, 32)) * 0.1
        self.a = rng.standard_normal((512, 64))
        self.b = rng.standard_normal((64, 512))
        self.big = rng.standard_normal(1 << 22)
        self.samples: list[float] = []

    def piece(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(3200):
            acc += float(np.tanh(self.x @ self.w).sum())
            acc += sum(j * j for j in range(80))
        for _ in range(48):
            acc += float((self.a @ self.b).max())
        for _ in range(2):
            acc += float(self.big.sum())
        return time.perf_counter() - start

    def sample(self, n: int) -> None:
        self.samples += [self.piece() for _ in range(n)]

    def scale(self) -> float:
        """Factor that brings a time measured now to the reference host's speed."""
        return PROBE_REF_S / statistics.median(self.samples)


class Session:
    """Runs one workload's commands and checks what they write."""

    def __init__(self, workload, seed: int):
        self.w = workload
        self.work = os.path.join(WORK, workload.name)
        self.out = os.path.join(self.work, "out")
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.problems: list[str] = []
        self.first_hashes = None
        self.quality = None
        self.setup: list[float] = []  # --help wall times
        self.probe = SpeedProbe()
        self._child = 0

        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.corpus = inputs.generate(workload.corpus, seed, os.path.join(self.work, "data"))
        n = workload.corpus.instances
        self.ids = [i * n // SCORE_IDS for i in range(SCORE_IDS)]
        self.ids_path = os.path.join(self.work, "ids.txt")
        with open(self.ids_path, "w", encoding="utf-8") as fh:
            fh.write(" ".join(map(str, self.ids)) + "\n")
        self.cfg = workload.config
        self.cfg_path = os.path.join(self.work, "run.cfg")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            data = os.path.join(self.work, "data")
            fh.write(f"paths.embeddings = {data}/embeddings.bin\n"
                     f"paths.tokens = {data}/tokens.tsv\n"
                     f"paths.reference = {data}/reference.tsv\n"
                     f"paths.output_dir = {self.out}\n")
            fh.writelines(f"{k} = {v}\n" for k, v in self.cfg.items())
        self.env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": "0"}

    # -------------------------------------------------------------- processes

    def _on_deadline(self, signum, frame):
        os.kill(self._child, signal.SIGKILL)  # not yet reaped: wait4 is pending

    def spawn(self, argv, log_name):
        """Run one child to completion: (exit code, wall s, peak RSS in MB)."""
        log = os.path.join(self.work, log_name)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return -signal.SIGKILL, 0.0, 0.0
        self.probe.sample(PROBE_PIECES)
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            self._child = proc.pid
            previous = signal.signal(signal.SIGALRM, self._on_deadline)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def command(self, cmd: str, spans_path: str | None = None):
        """Run one program command, check its outputs; None on failure."""
        args = [cmd, "--config", self.cfg_path]
        if cmd == "score":
            args += ["--ids-file", self.ids_path]
        argv = [TRACER, spans_path, *args] if spans_path else ["-m", "influence_select", *args]
        self.attempted += 1
        rc, wall, rss = self.spawn(argv, f"{cmd}.log")
        if rc != 0:
            with open(os.path.join(self.work, f"{cmd}.log"), "r", errors="replace") as fh:
                tail = fh.read()[-400:].strip()
            self.problems.append(f"{cmd} exited {rc}: {tail}")
            return None
        problems = self.check(cmd)
        if problems:
            self.problems += problems
            return None
        return wall, rss

    def check(self, cmd: str) -> list[str]:
        n = self.w.corpus.instances
        if cmd == "cluster":
            return checks.check_clusters(self.out, self.cfg["clustering.k"], n)
        if cmd == "select":
            return checks.check_selection(self.out, self.cfg["selection.budget"], n)
        if cmd == "score":
            return checks.check_scores(self.out, self.ids)
        return checks.check_report(self.out)

    def setup_times(self, n: int) -> list[float]:
        """CLI start-up alone: the main command with --help."""
        argv = ["-m", "influence_select", self.w.main, "--help"]
        samples = []
        for _ in range(n):
            self.attempted += 1
            rc, wall, _ = self.spawn(argv, "help.log")
            if rc != 0:
                self.problems.append(f"{self.w.main} --help exited {rc}")
                break
            samples.append(wall)
        return samples

    def prepare(self) -> bool:
        """Warm the interpreter caches, then make the untimed prerequisites."""
        return (len(self.setup_times(1)) == 1
                and all(self.command(cmd) is not None for cmd in self.w.prep))

    # -------------------------------------------------------------- iterations

    def iteration(self, traced: bool):
        """The workload's timed commands once; a record, or None on failure."""
        if not self.w.prep:
            shutil.rmtree(self.out, ignore_errors=True)
        walls, rss, layers = {}, 0.0, []
        for cmd in self.w.timed:
            spans_path = os.path.join(self.work, f"{cmd}.spans.json") if traced else None
            res = self.command(cmd, spans_path)
            if res is None:
                return None
            walls[cmd], peak = res
            rss = max(rss, peak)
            if traced:
                with open(spans_path, "r", encoding="utf-8") as fh:
                    layers.append(tracing.command_metrics(json.load(fh), walls[cmd]))
        hashes = checks.hash_dir(self.out)
        if self.first_hashes is None:
            self.first_hashes = hashes
            self.check_quality()
        elif hashes != self.first_hashes:
            differ = sorted(k for k in hashes.keys() | self.first_hashes.keys()
                            if hashes.get(k) != self.first_hashes.get(k))
            self.problems.append(f"repeat not byte-identical: {differ}")
            return None
        rec = {"walls": walls, "wall": sum(walls.values()), "peak_rss_mb": rss,
               "items": self.items()}
        if traced:
            rec["layers"] = tracing.iteration_metrics(layers)
        return rec

    def compare_with_earlier_runs(self) -> None:
        """Byte-identity across runs: the same program on the same inputs and
        config must write the same outputs as it did in any earlier run here."""
        key = checks.digest({"workload": self.w.name, "config": self.cfg,
                             "inputs": self.corpus.hashes, "program": checks.tree_digest(SRC)})
        path = os.path.join(WORK, "outputs.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                known = json.load(fh)
        except FileNotFoundError:
            known = {}
        if key not in known:
            known[key] = self.first_hashes
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(known, fh, indent=1)
        elif known[key] != self.first_hashes:
            self.problems.append("outputs differ from an earlier run of this program "
                                 "on the same inputs")

    def items(self) -> int:
        """Work done by the main command: candidates scored or sequences trained."""
        if self.w.main == "select":
            return checks.distinct_scored(self.out)
        if self.w.main == "report":
            runs = len(checks.read_losses(self.out)) - 1
            return runs * self.cfg["trainer.steps"] * self.cfg["trainer.batch_size"]
        return len(self.ids)

    def check_quality(self) -> None:
        """Quality of the first round's outputs, against its floor."""
        if self.w.main == "select":
            value = checks.aligned_frac(self.out, self.corpus.component, self.w.corpus.aligned)
        elif self.w.main == "report":
            value = checks.ref_loss_gain(self.out)
        else:
            value = checks.cluster_purity(self.out, self.corpus.component)
        name, floor = QUALITY[self.w.main]
        if not value > floor:
            self.problems.append(f"{name} {value:.6g} does not exceed its floor {floor}")
        self.quality = value

    def loop(self, seconds: float, traced_too: bool) -> list:
        """Repeat rounds while the next one should end within ``seconds``.

        With ``traced_too`` each round is an untraced then a traced iteration.
        Otherwise each round also takes one start-up sample, so that it sees
        the same phases of the host as the commands.
        """
        rounds = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            if not traced_too:
                help_samples = self.setup_times(1)
                if not help_samples:
                    break
                self.setup += help_samples
            rnd = [self.iteration(False)]
            if traced_too and rnd[0] is not None:
                rnd.append(self.iteration(True))
            if None in rnd:
                break
            rounds.append(rnd)
            now = time.monotonic()
            if now - start + (now - t0) > seconds:
                break
            if now + 1.5 * (now - t0) > self.deadline:
                break
        return rounds


def end_to_end(session: Session, its: list) -> tuple[dict, dict]:
    """(contract metrics, the same under the per-command names).

    Times are medians over rounds, scaled to the reference host's speed by
    the probe; the raw medians are printed and recorded next to them.
    """
    w = session.w
    med = statistics.median
    scale = session.probe.scale()
    raw = {"setup_s": med(session.setup), "wall_s": med(r["wall"] for r in its)}
    raw.update({f"{cmd}_s": med(r["walls"][cmd] for r in its) for cmd in w.timed})
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "wall_s": raw["wall_s"] * scale,
        "main_cmd_s": raw[f"{w.main}_s"] * scale,
        "peak_rss_mb": med(r["peak_rss_mb"] for r in its),
        "quality": session.quality,
    }
    named = {name: value * scale for name, value in raw.items()}
    named[ITEMS[w.main]] = med(r["items"] / r["walls"][w.main] for r in its) / scale
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    named["fail_frac"] = len(session.problems) / max(session.attempted, 1)
    named[QUALITY[w.main][0]] = metrics["quality"]
    named["probe_s"] = med(session.probe.samples)
    named["host_scale"] = scale
    named.update({f"raw_{name}": value for name, value in raw.items()})
    return metrics, named


def per_layer(rounds: list) -> tuple[dict, list[str]]:
    """Median per-layer metrics over traced iterations, plus count mismatches."""
    traced = [rnd[1]["layers"] for rnd in rounds]
    names = [n for n, _ in tracing.PER_LAYER if n != "trace.overhead_frac"]
    metrics = {n: statistics.median(t[n] for t in traced) for n in names}
    untraced = statistics.median(rnd[0]["wall"] for rnd in rounds)
    metrics["trace.overhead_frac"] = statistics.median(rnd[1]["wall"] for rnd in rounds) / untraced - 1.0
    problems = [f"count {n} differs between traced iterations"
                for n in tracing.EXACT_COUNTS if len({t[n] for t in traced}) > 1]
    return metrics, problems


UNITS = {**dict(END_TO_END), **dict(tracing.PER_LAYER), "fail_frac": "frac",
         "aligned_frac": "frac", "ref_loss_gain": "nats", "cluster_purity": "frac",
         "scored_per_s": "1/s", "train_seq_per_s": "1/s",
         "probe_s": "s", "host_scale": "x",
         **{f"{p}{cmd}_s": "s" for p in ("", "raw_")
            for cmd in ("setup", "wall", "cluster", "select", "score", "report")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "influence_select", "cli.py")):
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    session = Session(WORKLOADS[args.workload], args.seed)
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, digest in session.corpus.hashes.items():
        print(f"  input {name} sha256 {digest}")

    rounds = []
    if session.prepare():
        rounds = session.loop(args.seconds, traced_too=bool(args.trace))
    if rounds and not args.trace:
        missing = SETUP_SAMPLES - len(session.setup)
        if missing > 0:
            more = session.setup_times(missing)
            session.setup += more
            if len(more) < missing:
                rounds = []
    if rounds:
        session.compare_with_earlier_runs()

    if args.trace:
        metrics, problems = per_layer(rounds) if rounds else ({}, [])
        session.problems += problems
        named = metrics
        its = [it for rnd in rounds for it in rnd]
    else:
        its = [rnd[0] for rnd in rounds]
        metrics, named = end_to_end(session, its) if its else ({}, {})
    failed = len(session.problems)
    correct = failed == 0 and bool(rounds)
    wanted = tracing.PER_LAYER if args.trace else END_TO_END
    if not correct:
        metrics = {n: 0.0 for n, _ in wanted}
    for problem in session.problems:
        print(f"  FAILED {problem}")
    print(f"  {len(rounds)} rounds, {session.attempted} commands, {failed} failed")
    for name, value in named.items():
        print(f"  {name:34s} {value:14.6g} {UNITS[name]}")

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "inputs": session.corpus.hashes, "config": session.cfg,
              "setup_samples": session.setup, "probe_samples": session.probe.samples,
              "iterations": its, "problems": session.problems,
              "metrics": metrics, "named": named, "quality": session.quality}
    path = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
