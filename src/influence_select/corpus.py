"""Candidate pool and reference set: data model plus on-disk formats.

Embeddings are always ingested from files, never computed here. The binary
embedding format is:

    header   uint64 count, uint64 dim      (little-endian)
    payload  count * dim float32, row-major, little-endian

and a loaded corpus keeps the float32 values as read.

Token files are newline-delimited text records::

    <id> TAB <space-separated token ids>

Every field is an ASCII decimal integer with an optional leading ``-``,
lines end in LF, and blank lines are skipped. A token file parses into one
columnar ``TokenTable``, the one in-memory form of token records, candidate
and reference alike.

Instance ids index 1:1 into the embedding matrix (id == row).
"""

from __future__ import annotations

import itertools
import os
import stat
import struct
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DataError

HEADER = struct.Struct("<QQ")


@dataclass
class EmbeddingCorpus:
    """Dense embedding vectors for the candidate pool, one row per instance."""

    vectors: np.ndarray  # (count, dim) float32 as read from a file, else float64; row i is id i
    source: InitVar[str | None] = None  # file the vectors came from, named in errors

    def __post_init__(self, source):
        self.vectors = np.asarray(self.vectors)
        if self.vectors.dtype != np.float32:
            self.vectors = self.vectors.astype(np.float64, copy=False)
        if self.vectors.ndim != 2:
            raise DataError(f"embedding matrix must be 2-D, got shape {self.vectors.shape}")
        if not np.isfinite(self.vectors).all():
            row = int(np.argmax(~np.isfinite(self.vectors).all(axis=1)))
            where = f"{source}: " if source is not None else ""
            raise DataError(f"{where}non-finite embedding value at row {row}")

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(eq=False)
class TokenTable:
    """Token records in columns, in file order.

    Record ``r`` is instance ``ids[r]`` with the tokens
    ``tokens[offsets[r]:offsets[r + 1]]``.
    """

    ids: np.ndarray  # (n,) int64
    offsets: np.ndarray  # (n + 1,) int64, starting at 0
    tokens: np.ndarray  # (offsets[-1],) int64

    @classmethod
    def from_sequences(cls, sequences, ids=None) -> "TokenTable":
        lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        tokens = np.fromiter(itertools.chain.from_iterable(sequences), dtype=np.int64,
                             count=int(offsets[-1]))
        ids = np.arange(lengths.size) if ids is None else np.asarray(ids, dtype=np.int64)
        return cls(ids=ids, offsets=offsets, tokens=tokens)

    def __len__(self) -> int:
        return self.ids.size

    def __getitem__(self, r: int) -> list[int]:
        """Record ``r``'s tokens."""
        if not -len(self) <= r < len(self):
            raise IndexError(f"record {r} out of range for {len(self)} records")
        r %= len(self)
        return self.tokens[self.offsets[r]:self.offsets[r + 1]].tolist()

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def take(self, rows) -> "TokenTable":
        """The records at table rows ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self.lengths[rows]
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        gather = np.arange(offsets[-1]) + np.repeat(self.offsets[rows] - offsets[:-1], lengths)
        return TokenTable(ids=self.ids[rows], offsets=offsets, tokens=self.tokens[gather])


def _first(*masks) -> int | None:
    """Index of the first row that any mask flags, or None."""
    bad = np.logical_or.reduce(masks)
    return int(np.argmax(bad)) if bad.any() else None


def load_embeddings(path) -> EmbeddingCorpus:
    """Load an embedding corpus from the binary file at ``path``; its vectors
    stay float32."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):  # a pipe has no size to check the header against
            raise DataError(f"{path}: not a regular file")
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise DataError(f"{path}: malformed header (got {len(head)} bytes, need {HEADER.size})")
        count, dim = HEADER.unpack(head)
        if dim == 0:
            raise DataError(f"{path}: malformed header (dim must be positive)")
        got, want = st.st_size - HEADER.size, count * dim * 4
        if got != want:
            kind = "truncated" if got < want else "over-long"
            raise DataError(f"{path}: {kind} payload ({got} bytes, expected {want} for {count}x{dim})")
        raw = np.fromfile(fh, dtype="<f4", count=count * dim).reshape(count, dim)
    return EmbeddingCorpus(vectors=raw, source=path)


def write_embeddings(path, corpus: EmbeddingCorpus) -> None:
    """Companion writer; round-trips bitwise through float32."""
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(corpus.count, corpus.dim))
        fh.write(corpus.vectors.astype("<f4").tobytes())


_LF, _TAB, _SPACE, _CR, _MINUS = 10, 9, 32, 13, 45
_MAX_DIGITS = 19  # the widest run that can still fit int64
_BLOCK_BYTES = 1 << 20  # whole lines per block: temporaries stay small and cache-sized


def load_tokens(path) -> TokenTable:
    """Parse a token file into a TokenTable, with numpy passes over its bytes.

    The bytes are cut into blocks of whole lines (see ``_parse_block``).
    Repeated ids are found over the whole file. An error names the first
    offending line; within a line the checks run in this order: a byte
    above 0x7f or a CR, the one TAB, the id, a repeated id, an empty token
    list, a malformed token, a negative token.
    """
    with open(path, "rb") as fh:  # not np.fromfile, which cannot read a pipe
        b = np.frombuffer(fh.read(), dtype=np.uint8)
    if b.size and b[-1] != _LF:
        b = np.append(b, np.uint8(_LF))
    line_end = np.flatnonzero(b == _LF)
    if not line_end.size:
        return TokenTable.from_sequences([])
    blocks = []
    first = 0  # first line of the next block
    while first < line_end.size and (not blocks or blocks[-1].error is None):
        lo = line_end[first - 1] + 1 if first else 0
        last = min(int(np.searchsorted(line_end, lo + _BLOCK_BYTES)), line_end.size - 1)
        blocks.append(_parse_block(b[lo:line_end[last] + 1], path, first,
                                   line_end[first:last + 1] - lo))
        first = last + 1
    ids = np.concatenate([blk.ids for blk in blocks])
    lines = np.concatenate([blk.lines for blk in blocks])
    errors = [blk.error for blk in blocks if blk.error is not None]
    order = np.argsort(ids, kind="stable")
    repeat = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if repeat.size:
        r = repeat.min()
        errors.append((lines[r], 3, f"{path}:{lines[r]}: duplicate instance id {ids[r]}"))
    if errors:
        raise DataError(min(errors)[2])
    offsets = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(np.concatenate([blk.lengths for blk in blocks]), out=offsets[1:])
    return TokenTable(ids=ids, offsets=offsets,
                      tokens=np.concatenate([blk.tokens for blk in blocks]))


@dataclass
class _Block:
    ids: np.ndarray  # per record, in order
    lines: np.ndarray  # 1-based file line of each record
    lengths: np.ndarray  # token count of each record
    tokens: np.ndarray
    error: tuple | None  # (line, check order, message) of the first bad line


def _parse_block(b, path, line0: int, line_end) -> _Block:
    """Parse whole lines ``b`` (ending in LF) that start at file line ``line0 + 1``.

    A word is a run of bytes other than space, TAB and LF, and a number is
    a word of ASCII digits after an optional '-'. Values are built by Horner
    steps over the digit columns, one word width at a time; ``searchsorted``
    over the LF positions ``line_end`` (offsets into ``b``) places words, TABs
    and stray bytes on their lines.
    """
    line_start = np.zeros_like(line_end)
    line_start[1:] = line_end[:-1] + 1
    lines = np.flatnonzero(line_end > line_start)  # blank lines are skipped
    start, end = line_start[lines], line_end[lines]

    in_word = np.empty(b.size + 1, dtype=bool)  # in_word[p + 1]: byte p is in a word
    in_word[0] = False
    np.not_equal(b, _SPACE, out=in_word[1:])
    in_word[1:] &= b != _TAB
    in_word[1:] &= b != _LF
    edges = np.flatnonzero(in_word[1:] != in_word[:-1])
    w_start, w_end = edges[0::2], edges[1::2]
    digit = np.zeros(b.size + 1, dtype=np.uint8)
    np.subtract(b, 48, out=digit[:-1])  # wraps: a byte is a digit iff it reads < 10
    neg = b[w_start] == _MINUS
    d_start = w_start + neg
    width = w_end - d_start
    odd = np.flatnonzero(in_word[1:] & (digit[:-1] > 9))
    odd = odd[(b[odd] != _MINUS) | in_word[odd]]  # a '-' may only open a word
    bad = (width < 1) | (width > _MAX_DIGITS)
    bad[np.searchsorted(w_start, odd, side="right") - 1] = True
    value = digit[d_start].astype(np.uint64)
    for w in np.flatnonzero(np.bincount(np.clip(width, 0, _MAX_DIGITS))[2:]) + 2:
        rows = np.flatnonzero(width == w)  # one gather per digit column of these words
        col = d_start[rows]
        acc = value[rows]
        for j in range(1, w):
            acc = acc * np.uint64(10) + digit[col + j]
        value[rows] = acc
    bad |= value > np.uint64(np.iinfo(np.int64).max)
    value = value.view(np.int64)
    value[neg] *= -1

    # per record: the TAB, the id word and the token words
    tabs = np.flatnonzero(b == _TAB)
    first_tab = np.searchsorted(tabs, start)
    n_tabs = np.searchsorted(tabs, end) - first_tab
    tab = _take(tabs, first_tab, b.size)
    first_word = np.searchsorted(w_start, start)
    n_words = np.searchsorted(w_start, end) - first_word
    ids = _take(value, first_word, 0)
    id_ok = (n_words > 0) & (_take(w_start, first_word, -1) == start)
    id_ok &= _take(w_end, first_word, -1) == tab
    id_ok &= ~_take(bad, first_word, True)
    stray = np.flatnonzero((b > 0x7F) | (b == _CR))
    negative = np.flatnonzero(neg & ~bad & (value != 0))
    firsts = {  # first row failing each check, keyed by check order
        0: _first_row(end, stray[:1]),
        1: _first(n_tabs != 1),
        2: _first(~id_ok),
        4: _first(n_words < 2),  # 3, a repeated id, is checked over the file in load_tokens
        5: _first_row(end, w_start[bad]),
        6: _first_row(end, w_start[negative], skip=start),
    }
    row = min((r for r in firsts.values() if r is not None), default=None)
    error = None
    if row is not None:
        kind = next(k for k, r in firsts.items() if r == row)
        lineno, i = line0 + lines[row] + 1, ids[row]
        where = f"{path}:{lineno}"
        if kind == 0:
            text = (f"byte 0x{b[stray[0]]:02x} is not allowed; "
                    "token files are ASCII with LF line ends")
        elif kind == 1:
            text = "expected 'id<TAB>tokens'"
        elif kind == 2:
            text = f"bad instance id {b[start[row]:tab[row]].tobytes().decode('ascii')!r}"
        elif kind == 4:
            text = f"empty token list for id {i}"
        elif kind == 5:
            text = f"bad token in record {i}"
        else:
            text = f"negative token id in record {i}"
        error = (lineno, kind, f"{where}: {text}")
    is_token = np.ones(w_start.size, dtype=bool)
    is_token[first_word[n_words > 0]] = False
    return _Block(ids=ids, lines=line0 + lines + 1, lengths=n_words - 1,
                  tokens=value[is_token], error=error)


def _take(a, rows, fill) -> np.ndarray:
    """``a[rows]`` for ``rows`` in ``[0, a.size]``, reading ``fill`` at
    ``a.size`` (one past the end), without a copy of ``a``."""
    if not a.size:
        return np.full(rows.shape, fill, dtype=a.dtype)
    return np.where(rows < a.size, np.take(a, rows, mode="clip"), fill)


def _first_row(end, positions, skip=None) -> int | None:
    """Row of the first byte position in ``positions``, given each row's end;
    with ``skip``, positions at a row's start do not count."""
    rows = np.searchsorted(end, positions)
    if skip is not None:
        rows = rows[positions != skip[rows]]
    return int(rows.min()) if rows.size else None


def write_tokens(path, table: TokenTable) -> None:
    """Companion writer: one ``id<TAB>tokens`` line per record, in table order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:  # load_tokens rejects CR
        for i, seq in zip(table.ids.tolist(), table):
            fh.write(f"{i}\t{' '.join(map(str, seq))}\n")


def load_candidates(tokens_path, count: int, vocab_size: int, max_context: int,
                    cover_all: bool = False):
    """Parse the candidate token file and check it against a ``count``-row
    embedding corpus and the model. This and ``load_reference`` hold every
    token input check.

    Returns ``(table, row_of)``: a TokenTable, and ``row_of[i]``, the table
    row of instance id ``i`` or -1 when it has no record. Every record needs
    an embedding row for its id, a length in [2, max_context] and tokens
    below ``vocab_size``. With ``cover_all`` every embedding row must have a
    record, since the bandit and the random baseline may sample any row.
    Errors name the file and the record's id.
    """
    table = _load_checked(tokens_path, "instance", vocab_size, max_context, count)
    row_of = np.full(count, -1, dtype=np.int64)
    row_of[table.ids] = np.arange(len(table))
    if cover_all and len(table) < count:
        first = int(np.argmax(row_of < 0))
        raise DataError(f"embedding row {first} has no token record in {tokens_path!r} "
                        f"({len(table)} of {count} rows covered)")
    return table, row_of


def load_reference(path, vocab_size: int, max_context: int) -> TokenTable:
    """Parse the reference token file, checked as ``load_candidates`` checks
    a candidate's length and tokens; the set must not be empty."""
    reference = _load_checked(path, "reference id", vocab_size, max_context)
    if not len(reference):
        raise DataError(f"{path}: reference set is empty")
    return reference


def _load_checked(path, name: str, vocab_size: int, max_context: int,
                  count: int | None = None) -> TokenTable:
    """``load_tokens(path)`` with each record checked against the model and,
    given ``count``, its id against the embedding rows; ``name`` labels a
    record in errors."""
    table = load_tokens(path)
    ids, lengths = table.ids, table.lengths
    no_row = (ids < 0) | (ids >= count) if count is not None else np.zeros(len(table), bool)
    bad_len = (lengths < 2) | (lengths > max_context)
    # load_tokens leaves no record empty, so each offset starts a record's tokens
    bad_tok = np.maximum.reduceat(table.tokens, table.offsets[:-1]) >= vocab_size
    r = _first(no_row, bad_len, bad_tok)
    if r is None:
        return table
    i = ids[r]
    if no_row[r]:
        raise DataError(f"{path}: instance id {i} has no embedding row (corpus count {count})")
    if bad_len[r]:
        raise DataError(f"{path}: {name} {i} has length {lengths[r]}, "
                        f"outside [2, model.max_context={max_context}]")
    raise DataError(f"{path}: {name} {i} has token id >= vocab_size {vocab_size}")
