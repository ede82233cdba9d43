import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from influence_select.corpus import load_candidates, load_embeddings, load_reference
from influence_select.errors import DataError
from influence_select.synthetic import SyntheticSpec, generate


def test_generator_shapes_and_alignment():
    spec = SyntheticSpec(n_instances=500, embed_dim=8, n_components=16, n_aligned=4,
                         vocab_size=32, seq_len=10, n_reference=20, pattern_tokens=4, seed=0)
    data = generate(spec)
    assert data.embeddings.count == 500
    assert data.embeddings.dim == 8
    assert data.instances.ids.tolist() == list(range(500))
    assert data.reference.ids.tolist() == list(range(20))
    assert data.component.shape == (500,)
    # aligned instances use only their pattern's token slice
    for i, tokens in enumerate(data.instances):
        c = int(data.component[i])
        assert len(tokens) == 10
        if c < 4:
            lo = c * 4
            assert all(lo <= t < lo + 4 for t in tokens)
        assert max(tokens) < 32


def test_aligned_sequences_are_deterministic_bigram_chains():
    spec = SyntheticSpec(n_instances=300, n_components=8, n_aligned=2, vocab_size=16,
                         seq_len=12, pattern_tokens=6, seed=1)
    data = generate(spec)
    # within one aligned component, the successor of each token is unique
    for c in range(2):
        succ = {}
        for i, tokens in enumerate(data.instances):
            if data.component[i] != c:
                continue
            for a, b in zip(tokens, tokens[1:]):
                assert succ.setdefault(a, b) == b


def test_reference_covers_all_aligned_patterns():
    spec = SyntheticSpec(n_instances=100, n_components=8, n_aligned=4, vocab_size=32,
                         seq_len=8, n_reference=16, pattern_tokens=4, seed=2)
    data = generate(spec)
    slices = {tuple(sorted(set(t // 4 for t in seq))) for seq in data.reference}
    assert {s[0] for s in slices} == {0, 1, 2, 3}


def test_generator_deterministic():
    spec = SyntheticSpec(n_instances=200, seed=9)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.embeddings.vectors, b.embeddings.vectors)
    np.testing.assert_array_equal(a.instances.offsets, b.instances.offsets)
    np.testing.assert_array_equal(a.instances.tokens, b.instances.tokens)


def test_generator_parameter_validation():
    with pytest.raises(DataError, match="cannot exceed"):
        SyntheticSpec(n_components=4, n_aligned=5)
    with pytest.raises(DataError, match="do not fit"):
        SyntheticSpec(vocab_size=8, n_aligned=4, pattern_tokens=4)


def test_make_synthetic_data_script_writes_loadable_pinned_files(tmp_path):
    """The script's files load through the program's own loaders, and their
    bytes are pinned: a change to ``generate``'s RNG draw order shows here."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "make_synthetic_data.py"),
         "--out", str(tmp_path), "--instances", "300", "--components", "8", "--aligned", "2",
         "--vocab", "16", "--seq-len", "6", "--embed-dim", "4", "--reference", "10",
         "--seed", "3"],
        env=env, capture_output=True, check=True)
    emb = load_embeddings(tmp_path / "embeddings.bin")
    table, row_of = load_candidates(tmp_path / "tokens.tsv", count=emb.count, vocab_size=16,
                                    max_context=6, cover_all=True)
    reference = load_reference(tmp_path / "reference.tsv", vocab_size=16, max_context=6)
    assert (emb.count, emb.dim, len(table), len(reference)) == (300, 4, 300, 10)
    np.testing.assert_array_equal(row_of, np.arange(300))
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("embeddings.bin", "tokens.tsv", "reference.tsv")}
    assert digests == {
        "embeddings.bin": "ae35556d122636f4f8a41c6b3e5081f91c6e9e93f19b744ea4887963f6b76761",
        "tokens.tsv": "209025501b3b778a38dbcbf98cc37729563353b62b741509a4775c01372abbc4",
        "reference.tsv": "cb2b2e0e009b65bfae51c820713642f8a0fc97381198889152b93912bf12ace7",
    }
