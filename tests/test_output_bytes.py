"""The output bytes of ``cluster``, ``select``, ``score`` and ``report`` at
acceptance 9's scale, pinned by their sha256 in ``tests/data/outputs.sha256``.

Each command runs in a fresh ``python -m influence_select`` process (one BLAS
thread) from the corpus directory, with relative paths, so the config
fingerprint in each file carries no temporary path. The hashes hold only under
the numpy, BLAS and machine type that the manifest names; under any other the
test skips and says which it found. A change that alters output bytes on
purpose regenerates the manifest, from the repository root, with

    PYTHONPATH=src python tests/test_output_bytes.py

which runs the commands with the ``influence_select`` that ``PYTHONPATH``
selects and rewrites the manifest.
"""

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import influence_select
from influence_select.corpus import write_embeddings, write_tokens
from influence_select.synthetic import SyntheticSpec, generate

MANIFEST = Path(__file__).resolve().parent / "data" / "outputs.sha256"
REGENERATE = "PYTHONPATH=src python tests/test_output_bytes.py"
CONFIG = (
    "paths.embeddings = embeddings.bin\n"
    "paths.tokens = tokens.tsv\n"
    "paths.reference = reference.tsv\n"
    "paths.output_dir = out\n"
    "clustering.k = 8\n"
    "model.vocab_size = 24\nmodel.hidden_dim = 16\nmodel.n_layers = 1\n"
    "model.n_heads = 2\nmodel.max_context = 16\nmodel.mlp_ratio = 2.0\n"
    "bandit.alpha = 10.0\nbandit.tau = 20.0\nbandit.gamma = 0.1\n"
    "bandit.top_k = 3\nbandit.batch_size = 6\nbandit.reward_mode = mean\n"
    "selection.budget = 40\ntrainer.steps = 5\ntrainer.batch_size = 8\n"
)
COMMANDS = [["cluster"], ["select"], ["score", "--ids", "0,3,9"], ["report"]]


def environment() -> str:
    """The numpy version, BLAS and machine type the outputs are made under."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}, {platform.machine()}"


def output_hashes(root: Path) -> dict[str, str]:
    """Writes acceptance 9's corpus and config into ``root``, runs
    ``COMMANDS`` there and returns ``{out/<name>: sha256}`` of every output."""
    data = generate(SyntheticSpec(
        n_instances=400, embed_dim=8, n_components=8, n_aligned=2, vocab_size=24,
        seq_len=10, n_reference=16, pattern_tokens=6, seed=21,
    ))
    write_embeddings(root / "embeddings.bin", data.embeddings)
    write_tokens(root / "tokens.tsv", data.instances)
    write_tokens(root / "reference.tsv", data.reference)
    (root / "run.cfg").write_text(CONFIG)
    src = os.path.dirname(os.path.dirname(os.path.abspath(influence_select.__file__)))
    for cmd in COMMANDS:
        subprocess.run([sys.executable, "-m", "influence_select", *cmd, "--config", "run.cfg"],
                       cwd=root, env=dict(os.environ, PYTHONPATH=src), check=True,
                       capture_output=True)
    return {f"out/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((root / "out").iterdir())}


def test_outputs_keep_their_bytes(tmp_path):
    lines = MANIFEST.read_text().splitlines()
    made_under = lines[0].removeprefix("# made under: ")
    if made_under != environment():
        pytest.skip(f"{MANIFEST.name} was made under {made_under}, this is {environment()}")
    want = dict(reversed(line.split("  ")) for line in lines if not line.startswith("#"))
    assert output_hashes(tmp_path) == want, f"outputs changed; if on purpose, run {REGENERATE}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = output_hashes(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text("".join([f"# made under: {environment()}\n",
                                 f"# regenerate: {REGENERATE}\n",
                                 *(f"{digest}  {name}\n" for name, digest in hashes.items())]))
    print(f"wrote {len(hashes)} hashes to {MANIFEST}")
