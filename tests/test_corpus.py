import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_select import corpus
from influence_select.corpus import (
    EmbeddingCorpus,
    TokenTable,
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


def test_overlong_payload(tmp_path):
    """A payload longer than count * dim * 4 bytes is rejected too, with both
    sizes named, before any of it is read."""
    path = tmp_path / "long.bin"
    path.write_bytes(struct.pack("<QQ", 4, 8) + b"\x00" * (4 * 8 * 4 + 4))
    with pytest.raises(DataError, match=r"over-long payload \(132 bytes, expected 128 for 4x8\)"):
        load_embeddings(path)


def test_binary_embeddings_must_be_a_regular_file():
    with pytest.raises(DataError, match="not a regular file"):
        load_embeddings(os.devnull)


def test_nonfinite_rejected_with_row_index(tmp_path):
    mat = np.zeros((5, 2), dtype="<f4")
    mat[3, 1] = np.nan
    path = tmp_path / "nan.bin"
    path.write_bytes(struct.pack("<QQ", 5, 2) + mat.tobytes())
    with pytest.raises(DataError, match="row 3"):
        load_embeddings(path)


def test_nonfinite_file_value_names_file_and_row(tmp_path):
    path = tmp_path / "emb.bin"
    mat = np.ones((4, 3), dtype="<f4")
    mat[2, 0] = np.inf
    path.write_bytes(struct.pack("<QQ", 4, 3) + mat.tobytes())
    with pytest.raises(DataError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"{path}: non-finite embedding value at row 2"


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
    table = load_tokens(path)
    assert len(table) == 1
    assert table[0] == [5, 7, 9]
    assert table.ids.tolist() == [0]


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
    table = TokenTable.from_sequences(
        [rng.integers(0, 99, size=rng.integers(1, 12)) for _ in range(10000)],
        ids=rng.permutation(10000),
    )
    path = tmp_path / "big.tsv"
    write_tokens(path, table)
    again = load_tokens(path)
    assert len(again) == 10000
    np.testing.assert_array_equal(again.ids, table.ids)
    np.testing.assert_array_equal(again.offsets, table.offsets)
    np.testing.assert_array_equal(again.tokens, table.tokens)
    for idx in (0, 17, 4999, 9999):
        assert again[idx] == table[idx]


def test_load_tokens_order_preserved(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("5\t1 2\n3\t3 4\n9\t5 6\n")
    assert load_tokens(path).ids.tolist() == [5, 3, 9]


def _reference_of(tmp_path, text, vocab_size=6, max_context=4):
    """The reference table ``load_reference`` returns for a reference file ``text``."""
    path = tmp_path / "r.tsv"
    path.write_text(text)
    return load_reference(path, vocab_size=vocab_size, max_context=max_context)


def test_reference_set_validation(tmp_path):
    assert list(_reference_of(tmp_path, "0\t1 2 3\n1\t4 5\n")) == [[1, 2, 3], [4, 5]]
    for text, vocab_size, needle in [
        ("0\t1 2 3\n1\t4 5\n", 5, ": reference id 1 has token id >= vocab_size 5"),
        ("0\t1 2\n7\t1\n", 6, ": reference id 7 has length 1, outside [2, model.max_context=4]"),
        ("0\t1 2 3 4 5\n", 6, ": reference id 0 has length 5, outside [2, model.max_context=4]"),
        ("\n", 6, ": reference set is empty"),
        ("0\t1 2\n1\t3 -4\n", 6, ":2: negative token id in record 1"),
    ]:
        with pytest.raises(DataError, match=re.escape(f"{tmp_path / 'r.tsv'}{needle}")):
            _reference_of(tmp_path, text, vocab_size=vocab_size)


def test_corpus_invariants():
    with pytest.raises(DataError, match="non-finite"):
        EmbeddingCorpus(vectors=np.array([[1.0, np.inf]]))


# --------------------------------------------- byte parser vs line parser

def _line_parser(path):
    """The line-by-line parser the byte parser replaced, kept as a reference:
    ``[(id, tokens)]`` in file order, or DataError with the same texts."""
    instances = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'id<TAB>tokens'")
            try:
                inst_id = int(parts[0])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad instance id {parts[0]!r}") from exc
            if inst_id in seen:
                raise DataError(f"{path}:{lineno}: duplicate instance id {inst_id}")
            seen.add(inst_id)
            toks = parts[1].split()
            if not toks:
                raise DataError(f"{path}:{lineno}: empty token list for id {inst_id}")
            try:
                tokens = [int(t) for t in toks]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad token in record {inst_id}") from exc
            if any(t < 0 for t in tokens):
                raise DataError(f"{path}:{lineno}: negative token id in record {inst_id}")
            instances.append((inst_id, tokens))
    return instances


def _outcome(parse, path):
    try:
        return parse(path)
    except DataError as exc:
        return str(exc)


@pytest.fixture(params=[None, 40], ids=["default-block", "40-byte-block"])
def block_bytes(request, monkeypatch):
    """Parse at the module's block size and at one so small that a file
    spans many blocks, so that checks across block edges are exercised."""
    if request.param is not None:
        monkeypatch.setattr(corpus, "_BLOCK_BYTES", request.param)


def _assert_parsers_agree(path):
    want = _outcome(_line_parser, path)
    got = _outcome(load_tokens, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert list(got.ids) == [i for i, _ in want]
        assert list(got) == [t for _, t in want]
        np.testing.assert_array_equal(np.diff(got.offsets), [len(t) for _, t in want])


def test_byte_parser_equals_line_parser_on_generated_files(tmp_path, block_bytes):
    rng = np.random.default_rng(7)
    path = tmp_path / "big.tsv"
    ids = rng.permutation(10**6)[:10000]  # multi-digit ids, not in row order
    lengths = rng.integers(1, 13, size=10000)
    with open(path, "w", encoding="utf-8") as fh:
        for i, n in zip(ids, lengths):
            tokens = rng.integers(0, 10 ** rng.integers(1, 7), size=n)
            fh.write(f"{i}\t{' '.join(map(str, tokens))}\n")
    _assert_parsers_agree(path)
    assert len(load_tokens(path)) == 10000
    for seed in range(20):
        rng = np.random.default_rng(seed)
        lines = []
        for i in range(int(rng.integers(0, 30))):
            toks = rng.integers(-2 if seed % 5 == 0 else 0, 300, size=rng.integers(0, 6))
            sep = " " * int(rng.integers(1, 3))
            lines.append(f"{rng.integers(0, 40)}\t{sep.join(map(str, toks))}")
            if rng.random() < 0.2:
                lines.append("")
        path = tmp_path / f"g{seed}.tsv"
        path.write_text("\n".join(lines) + ("\n" if seed % 2 else ""))
        _assert_parsers_agree(path)


@pytest.mark.parametrize("text", [
    "0\t1 2\n5\t3 4",  # no final newline
    "\n\n0\t1 2\n\n\n5\t3 4\n\n",  # blank lines
    "0\t 1  2 \n",  # spaces around tokens
    "0\t1\t2\n",  # TAB inside the token field
    "0\t\t1 2\n",  # two TABs
    "0 1 2\n",  # no TAB
    "   \n",  # a line of spaces
    "0\t\n",  # empty token field
    "0\t   \n",
    "\t1 2\n",  # empty id field
    "x\t1 2\n",
    "0\t1 x\n",
    "0\t1 -2\n",
    "-3\t1 2\n",  # a negative id parses; the corpus check rejects it
    "0\t1 -0\n",
    "0\t1 --2\n",
    "0\t1 - 2\n",
    "0\t1 2-\n",
    "0\t1 2\n1\t3\n0\t4 5\n",  # duplicate id on line 3
    "7\t1 2\n" + "".join(f"{i}\t1 2 3 4 5 6 7 8\n" for i in range(8)) + "9\t1 x\n",
    "0\t1 x\n0\t4 5\n",  # the first error in file order wins
    "0\t007 1\n",
    "0\t9223372036854775807 1\n",  # int64 max still parses
])
def test_byte_parser_equals_line_parser_on_edge_files(tmp_path, block_bytes, text):
    path = tmp_path / "t.tsv"
    path.write_bytes(text.encode())
    _assert_parsers_agree(path)


@pytest.mark.parametrize("raw, line", [
    (b"0\t1 2\r\n1\t3 4\r\n", 1),  # CRLF line ends
    (b"0\t1 2\n1\t3 4\r", 2),
    (b"+5\t1 2\n", 1),
    (b"0\t1 +2\n", 1),
    (b"1_000\t1 2\n", 1),
    (b"0\t1_0 2\n", 1),
    ("0\t1 ٣\n".encode(), 1),  # ARABIC-INDIC DIGIT THREE
    (" 5\t1 2\n", 1),
    (b"0\t1 2\n5 \t1 2\n", 2),
    (b"0\t1 2\n1\t3 99999999999999999999\n", 2),  # too long for int64
    (b"0\t9223372036854775808\n", 1),
    (b"0\t1 2\n1\t3\xff\n", 2),  # not UTF-8
])
def test_byte_parser_narrowing_names_the_line(tmp_path, block_bytes, raw, line):
    """Inputs the line parser took through ``int()`` and ``str.split()`` but
    that are not ASCII decimal text with LF line ends."""
    path = tmp_path / "t.tsv"
    path.write_bytes(raw if isinstance(raw, bytes) else raw.encode())
    with pytest.raises(DataError, match=rf"t\.tsv:{line}: "):
        load_tokens(path)


def test_token_table_rows_and_take(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("5\t1 2\n3\t3 4 5\n9\t6 7\n")
    table = load_tokens(path)
    assert len(table) == 3
    assert table[-1] == [6, 7]
    with pytest.raises(IndexError):
        table[3]
    sub = table.take([2, 0, 2])
    assert list(sub.ids) == [9, 5, 9]
    assert list(sub) == [[6, 7], [1, 2], [6, 7]]


# ------------------------------------------------ float32-held embeddings

def test_loaded_embeddings_stay_float32(tmp_path):
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(30, 5)).astype("<f4")
    path = tmp_path / "e.bin"
    path.write_bytes(struct.pack("<QQ", 30, 5) + mat.tobytes())
    vectors = load_embeddings(path).vectors
    assert vectors.dtype == np.float32
    np.testing.assert_array_equal(vectors, mat)
    mat[[7, 19], [4, 0]] = [-np.inf, np.nan]
    path.write_bytes(struct.pack("<QQ", 30, 5) + mat.tobytes())
    with pytest.raises(DataError) as exc:
        load_embeddings(path)
    assert str(exc.value) == f"{path}: non-finite embedding value at row 7"
