import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_select.corpus import (
    CandidateInstance,
    EmbeddingCorpus,
    load_embeddings,
    load_reference,
    load_tokens,
    write_embeddings,
    write_tokens,
)
from influence_select.errors import DataError


def test_empty_binary_corpus(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(struct.pack("<QQ", 0, 16))
    corpus = load_embeddings(path)
    assert corpus.count == 0
    assert corpus.dim == 16


def test_two_row_binary_corpus(tmp_path):
    path = tmp_path / "two.bin"
    payload = np.array([[1, 0, 0], [0, 1, 0]], dtype="<f4")
    path.write_bytes(struct.pack("<QQ", 2, 3) + payload.tobytes())
    corpus = load_embeddings(path)
    assert corpus.vectors.shape == (2, 3)
    np.testing.assert_array_equal(corpus.vectors @ corpus.vectors.T, np.eye(2))


def test_binary_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(1000, 64)).astype(np.float32))
    path = tmp_path / "big.bin"
    write_embeddings(path, corpus)
    again = load_embeddings(path)
    np.testing.assert_array_equal(again.vectors, corpus.vectors)
    # write(load(x)) is byte-identical
    path2 = tmp_path / "big2.bin"
    write_embeddings(path2, again)
    assert path.read_bytes() == path2.read_bytes()


def test_truncated_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"\x01\x02\x03")
    with pytest.raises(DataError, match="malformed header"):
        load_embeddings(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.bin"
    path.write_bytes(struct.pack("<QQ", 4, 8) + b"\x00" * 10)
    with pytest.raises(DataError, match="truncated payload"):
        load_embeddings(path)


def test_nonfinite_rejected_with_row_index(tmp_path):
    mat = np.zeros((5, 2), dtype="<f4")
    mat[3, 1] = np.nan
    path = tmp_path / "nan.bin"
    path.write_bytes(struct.pack("<QQ", 5, 2) + mat.tobytes())
    with pytest.raises(DataError, match="row 3"):
        load_embeddings(path)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(20, 5)))
    path = tmp_path / "c.csv"
    write_embeddings(path, corpus, format="csv")
    again = load_embeddings(path, format="csv")
    np.testing.assert_allclose(again.vectors, corpus.vectors, rtol=0, atol=0)


def test_csv_inconsistent_dim(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="inconsistent dimension"):
        load_embeddings(path, format="csv")


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(min_value=0, max_value=40),
    dim=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_binary_round_trip_property(tmp_path_factory, count, dim, seed):
    rng = np.random.default_rng(seed)
    corpus = EmbeddingCorpus(vectors=rng.normal(size=(count, dim)).astype(np.float32))
    path = tmp_path_factory.mktemp("rt") / "x.bin"
    write_embeddings(path, corpus)
    again = load_embeddings(path)
    np.testing.assert_array_equal(again.vectors, corpus.vectors)
    assert again.count == count and again.dim == dim


def test_load_tokens_single_record(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("0\t5 7 9\n")
    instances = load_tokens(path)
    assert len(instances) == 1
    assert instances[0].tokens == [5, 7, 9]
    assert instances[0].id == 0


def test_load_tokens_duplicate_id_names_offender(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("0\t1 2\n7\t3 4\n7\t5 6\n")
    with pytest.raises(DataError, match="duplicate instance id 7"):
        load_tokens(path)


def test_load_tokens_empty_token_list(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("0\t\n")
    with pytest.raises(DataError, match="empty token list"):
        load_tokens(path)


def test_tokens_generator_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    instances = [
        CandidateInstance(id=i, tokens=[int(t) for t in rng.integers(0, 99, size=rng.integers(1, 12))],
                          embedding_row=i)
        for i in range(10000)
    ]
    path = tmp_path / "big.tsv"
    write_tokens(path, instances)
    again = load_tokens(path)
    assert len(again) == 10000
    for idx in (0, 17, 4999, 9999):
        assert again[idx].id == instances[idx].id
        assert again[idx].tokens == instances[idx].tokens


def test_load_tokens_order_preserved(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("5\t1 2\n3\t3 4\n9\t5 6\n")
    instances = load_tokens(path)
    assert [inst.id for inst in instances] == [5, 3, 9]


def test_reference_set_validation(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("0\t1 2 3\n1\t4 5\n")
    ref = load_reference(path, vocab_size=6)
    assert len(ref.sequences) == 2
    with pytest.raises(DataError, match="outside vocab"):
        load_reference(path, vocab_size=5)
    short = tmp_path / "short.tsv"
    short.write_text("0\t1\n")
    with pytest.raises(DataError, match="length 1 < 2"):
        load_reference(short, vocab_size=6)


def test_corpus_invariants():
    with pytest.raises(DataError, match="non-finite"):
        EmbeddingCorpus(vectors=np.array([[1.0, np.inf]]))
