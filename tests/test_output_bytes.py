"""The one byte-identity gate: the sha256 of every output file of every
``STAGES`` command, pinned in ``tests/data/outputs.sha256``.

The commands run on the default synthetic corpus (10,000 instances, the only
corpus here that reaches the multi-block k-means path) under the config of
``scripts/run_end_to_end.py``, each in a fresh ``python -m influence_select``
process, from the corpus directory with relative paths, so the config
fingerprints carry no temporary path. The ``split-cluster`` stage clusters a
20,000 x 64 pool, above ``clustering.SPLIT_MIN_ENTRIES``, where k-means runs
on two processes. Every stage runs twice against the one manifest: at full
affinity, where the commands fork, and with each command pinned to one CPU,
where none does, so the manifest is also the gate that forked children write
the one-CPU bytes. Under an environment other than the manifest's the tests
skip and say why, and on a one-CPU host the pinned run skips. ``PYTHONPATH=src python
tests/test_output_bytes.py`` rewrites the manifest with the program that
``PYTHONPATH`` selects; pointed at another checkout's ``src``, it lets this
test byte-compare the two programs.
"""

import ctypes
import dataclasses
import glob
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import influence_select
from influence_select import cli
from influence_select.corpus import EmbeddingCorpus, write_embeddings, write_tokens
from influence_select.model import ModelConfig
from influence_select.synthetic import SyntheticSpec, generate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from run_end_to_end import CONFIG_TEMPLATE  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "data" / "outputs.sha256"
REGENERATE = "PYTHONPATH=src python tests/test_output_bytes.py"
SCORE_IDS = "0,5,9,100,2000"
DEFAULT_SHAPE = [f"model.{f.name}={getattr(ModelConfig(), f.name)!r}"
                 for f in dataclasses.fields(ModelConfig)]
# stage -> (its --set overrides, its commands)
STAGES = {
    "pipeline": ([], [["cluster"], ["select"], ["score", "--ids", SCORE_IDS], ["report"]]),
    "sketch": (["influence.use_sketch=true", "influence.sketch_dim=64"],
               [["cluster"], ["select"]]),
    "default-shape": (DEFAULT_SHAPE, [["score", "--ids", SCORE_IDS]]),
    "oracle-check": ([], [["oracle-check"]]),
    "simulate-bandit": (["sim.arms=10", "sim.steps=200", "sim.trials=4"], [["simulate-bandit"]]),
    "split-cluster": (["paths.embeddings=split-pool.bin", "clustering.max_iters=10"],
                      [["cluster"]]),
}


def openblas_core() -> str:
    """The kernel set OpenBLAS chose at run time, which numpy's build config
    does not name; ``unknown`` when numpy's bundled OpenBLAS has no such call."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def environment() -> str:
    """The numpy, BLAS build, OpenBLAS core and machine the outputs are made under."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, {blas['name']} {blas['version']} "
            f"(core {openblas_core()}), {platform.machine()}")


def run_stage(root: Path, stage: str, cpu: int | None = None) -> None:
    """Runs ``stage``'s commands in ``root`` into ``out-<stage>``, each pinned
    to the CPU ``cpu`` when given; a command that fails raises, naming the
    stage, the command and its stderr."""
    sets, commands = STAGES[stage]
    src = os.path.dirname(os.path.dirname(os.path.abspath(influence_select.__file__)))
    for cmd in commands:
        argv = [sys.executable, "-m", "influence_select", *cmd, "--config", "run.cfg",
                *(arg for kv in [f"paths.output_dir=out-{stage}", *sets] for arg in ("--set", kv))]
        done = subprocess.run(argv, cwd=root, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True,
                              preexec_fn=None if cpu is None else
                              lambda: os.sched_setaffinity(0, {cpu}))
        if done.returncode:
            raise RuntimeError(f"{stage}: `{' '.join(cmd)}` exited {done.returncode}:\n"
                               f"{done.stderr}")


def output_hashes(root: Path, pinned: bool = False) -> dict[str, str]:
    """Writes the default corpus, the split pool and the end-to-end config
    into ``root``, runs every stage there, each command on one CPU when
    ``pinned``, and returns ``{out-<stage>/<name>: sha256}`` of every output."""
    data = generate(SyntheticSpec())
    write_embeddings(root / "embeddings.bin", data.embeddings)
    write_tokens(root / "tokens.tsv", data.instances)
    write_tokens(root / "reference.tsv", data.reference)
    rng = np.random.default_rng(71)  # 64 blobs in 64 dimensions
    pool = rng.normal(0.0, 4.0, size=(64, 64))[rng.integers(0, 64, size=20_000)]
    write_embeddings(root / "split-pool.bin",
                     EmbeddingCorpus(vectors=pool + rng.normal(0.0, 1.0, size=pool.shape)))
    (root / "run.cfg").write_text(CONFIG_TEMPLATE.format(data=".", out="out"))
    # two stages at a time, pinned ones to different CPUs: the pipeline stage
    # takes about as long as the others together
    cpus = sorted(os.sched_getaffinity(0)) if pinned else [None]
    with ThreadPoolExecutor(2) as pool:
        list(pool.map(lambda n, stage: run_stage(root, stage, cpus[n % len(cpus)]),
                      range(len(STAGES)), STAGES))
    return {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for stage in STAGES for p in sorted((root / f"out-{stage}").iterdir())}


def check_manifest(root: Path, pinned: bool) -> None:
    """Skips under another environment than the manifest's; else runs every
    stage in ``root`` (see ``output_hashes``) and asserts the manifest's bytes."""
    lines = MANIFEST.read_text().splitlines()
    made_under = lines[0].removeprefix("# made under: ")
    if made_under != environment():
        pytest.skip(f"{MANIFEST.name} was made under {made_under}, this is {environment()}")
    want = dict(reversed(line.split("  ")) for line in lines if not line.startswith("#"))
    got = output_hashes(root, pinned)
    changed = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not changed, (f"{', '.join(changed)} changed with every command on one CPU" if pinned
                         else f"{', '.join(changed)} changed; if on purpose, run {REGENERATE}")


def test_outputs_keep_their_bytes(tmp_path):
    check_manifest(tmp_path, pinned=False)


def test_outputs_keep_their_bytes_on_one_cpu(tmp_path):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("this host has one CPU: the full-affinity run is the one-CPU run")
    check_manifest(tmp_path, pinned=True)


def test_another_environment_skips_and_runs_nothing(tmp_path, monkeypatch):
    other = "numpy 0.0, other-blas 0.0 (core Other), other"
    manifest = tmp_path / "outputs.sha256"
    manifest.write_text(f"# made under: {other}\n")
    monkeypatch.setattr(sys.modules[__name__], "MANIFEST", manifest)
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: pytest.fail("a command ran"))
    with pytest.raises(pytest.skip.Exception) as skipped:
        test_outputs_keep_their_bytes(tmp_path)
    assert str(skipped.value) == f"outputs.sha256 was made under {other}, this is {environment()}"


def test_the_manifest_covers_every_command_and_stage():
    ran = {cmd[0] for _, commands in STAGES.values() for cmd in commands}
    assert ran == set(cli.COMMANDS)
    lines = MANIFEST.read_text().splitlines()
    assert lines[0].startswith("# made under: ") and "(core " in lines[0]
    pinned = {line.split("  ")[1].split("/")[0] for line in lines if not line.startswith("#")}
    assert pinned == {f"out-{stage}" for stage in STAGES}


def test_a_failing_command_names_itself_and_its_stderr(tmp_path):
    (tmp_path / "run.cfg").write_text(CONFIG_TEMPLATE.format(data=".", out="out"))
    with pytest.raises(RuntimeError, match=r"(?s)pipeline: `cluster` exited 2:\n"
                                           r"data error: .*embeddings\.bin"):
        run_stage(tmp_path, "pipeline")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = output_hashes(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text("".join([f"# made under: {environment()}\n",
                                 f"# regenerate: {REGENERATE}\n",
                                 *(f"{digest}  {name}\n" for name, digest in hashes.items())]))
    print(f"wrote {len(hashes)} hashes to {MANIFEST}")
