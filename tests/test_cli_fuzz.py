"""Mutated inputs end a command with exit 0-3 and at most one typed error line;
a command that fails leaves the output directory as it was.

Each example copies a finished cluster + select run of a tiny corpus, applies
one or two byte edits to one input or artifact, and runs, in-process, a
command that reads it. Paths and every size-bearing key are pinned by
``--set`` (which wins over the file), so a mutated config file is still
parsed and checked line by line but cannot point a command at other
directories or size an array past the test's memory.
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_select import cli
from influence_select.corpus import write_embeddings, write_tokens
from influence_select.synthetic import SyntheticSpec, generate

PINNED = {
    "clustering.k": "4",
    "clustering.max_iters": "20",
    "bandit.top_k": "2",
    "bandit.batch_size": "4",
    "bandit.max_rounds": "50",
    "selection.budget": "12",
    "model.vocab_size": "16",
    "model.hidden_dim": "8",
    "model.n_layers": "1",
    "model.n_heads": "2",
    "model.max_context": "12",
    "model.mlp_ratio": "1.0",
    "trainer.steps": "1",
    "trainer.batch_size": "4",
}
FREE = {
    "bandit.alpha": "1.0",
    "bandit.tau": "0.5",
    "bandit.gamma": "0.1",
    "bandit.reward_mode": "mean",
    "influence.damping": "0.001",
    "trainer.learning_rate": "0.001",
    "selection.seed": "3",
    "report.baseline_seed": "1",
}
CONFIG_TEXT = "".join(f"{k} = {v}\n" for k, v in {**PINNED, **FREE}.items())

# the commands that read each mutated file
READERS = {
    "run.cfg": ("cluster", "score", "select", "report"),
    "embeddings.bin": ("cluster", "score", "select", "report"),
    "tokens.tsv": ("score", "select", "report"),
    "out/clusters.bin": ("select", "report"),
    "out/selection.txt": ("report",),
    "out/ledger.jsonl": ("report",),
}
ERROR_LINE = re.compile(r"(usage error|data error|numeric failure): ")
PIECES = st.binary(min_size=1, max_size=6) | st.sampled_from([
    b"-", b"-1", b"0", b"9", b"99999999999999999999", b"1e308", b"nan", b"inf", b".",
    b"\t", b"\n", b" ", b",", b"=", b"#", b'"', b"{", b"}", b"[]", b"null", b"\xff", b"\x00",
])


def _argv(command, root):
    paths = {"paths.embeddings": root / "embeddings.bin", "paths.tokens": root / "tokens.tsv",
             "paths.reference": root / "reference.tsv", "paths.output_dir": root / "out"}
    argv = [command, "--config", str(root / "run.cfg")]
    for key, value in {**paths, **PINNED}.items():
        argv += ["--set", f"{key}={value}"]
    return argv + (["--ids", "0,7,31"] if command == "score" else [])


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = generate(SyntheticSpec(
        n_instances=40, embed_dim=4, n_components=4, n_aligned=1, vocab_size=16,
        seq_len=6, n_reference=6, pattern_tokens=4, seed=2,
    ))
    write_embeddings(root / "embeddings.bin", data.embeddings)
    write_tokens(root / "tokens.tsv", data.instances)
    write_tokens(root / "reference.tsv", data.reference)
    (root / "run.cfg").write_text(CONFIG_TEXT)
    for command in ("cluster", "select"):
        assert cli.main(_argv(command, root)) == 0
    return root


def _outputs(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@st.composite
def _mutated(draw, blob):
    for _ in range(draw(st.integers(1, 2))):
        pos = draw(st.integers(0, min(len(blob), 48)) | st.integers(0, len(blob)))
        op = draw(st.sampled_from(["truncate", "replace", "insert", "delete", "line"]))
        if op == "truncate":
            blob = blob[:pos]
        elif op == "replace":
            piece = draw(PIECES)
            blob = blob[:pos] + piece + blob[pos + len(piece):]
        elif op == "insert":
            blob = blob[:pos] + draw(PIECES) + blob[pos:]
        elif op == "delete":
            blob = blob[:pos] + blob[pos + draw(st.integers(1, 16)):]
        else:  # drop, repeat or swap whole lines
            lines = blob.splitlines(keepends=True)
            if lines:
                i = draw(st.integers(0, len(lines) - 1))
                j = draw(st.integers(0, len(lines) - 1))
                edit = draw(st.sampled_from(["drop", "repeat", "swap"]))
                if edit == "drop":
                    del lines[i]
                elif edit == "repeat":
                    lines.insert(j, lines[i])
                else:
                    lines[i], lines[j] = lines[j], lines[i]
                blob = b"".join(lines)
    return blob


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_with_one_typed_error_line(finished_run, data):
    name = data.draw(st.sampled_from(sorted(READERS)), label="file")
    command = data.draw(st.sampled_from(READERS[name]), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "run"
        shutil.copytree(finished_run, root)
        path = root / name
        path.write_bytes(data.draw(_mutated(path.read_bytes()), label="mutated"))
        before = _outputs(root / "out")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(_argv(command, root))
        after = _outputs(root / "out")
    lines = stderr.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    assert not [name for name in after if name.endswith(".partial")]
    if code:
        assert len(lines) == 1 and ERROR_LINE.match(lines[0]), lines
        assert after == before
    else:
        assert lines == []
