"""Corpus ingestion: vocabulary, per-item text features, co-occurrence graph.

Items come with pre-tokenized text; the vocabulary holds unigrams plus
bigrams of adjacent tokens (joined by "_"). The correlation graph is built
from ordered per-user consumption sequences: an item consumed right after
another becomes its neighbor, rows ranked by co-occurrence count and
truncated to a per-row cap. Per-item word indices and graph rows are held as
CSR ``Rows``, the layout ``words.bin`` and ``adjacency.bin`` store.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import binio
from .errors import ConfigError, IngestError

ADJ_MAGIC = b"ZSRADJ\x00\x01"
WORDS_MAGIC = b"ZSRWRD\x00\x01"


@dataclass(eq=False)
class Rows:
    """Sparse rows in CSR layout: row ``i`` is the view
    ``values[indptr[i]:indptr[i + 1]]``; ``indptr`` rises from 0 to
    ``len(values)`` and has one entry more than there are rows.
    """

    indptr: np.ndarray
    values: np.ndarray

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[int]]) -> "Rows":
        """Pack rows given one by one."""
        values = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64)
        return cls(np.cumsum([0] + [len(r) for r in rows], dtype=np.int64), values)

    @classmethod
    def from_coo(cls, row_ids: np.ndarray, values: np.ndarray, n_rows: int) -> "Rows":
        """Pack entries that are already sorted by ascending row id."""
        lengths = np.bincount(row_ids, minlength=n_rows)
        return cls(np.concatenate(([0], np.cumsum(lengths))), values)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        p = self.indptr
        return self.values[p[i]:p[i + 1]]

    def __iter__(self):
        return (self.values[a:b] for a, b in zip(self.indptr[:-1], self.indptr[1:]))

    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """The row index of every entry, parallel to ``values``."""
        return np.repeat(np.arange(len(self)), self.lengths())

    def transpose(self, n_cols: int) -> tuple["Rows", np.ndarray]:
        """Rows of the transpose (row ``j`` lists, ascending, the rows holding
        ``j``) and the entry order: a parallel array follows as ``a[order]``."""
        order = np.argsort(self.values, kind="stable")
        return Rows.from_coo(self.values[order], self.row_ids()[order], n_cols), order


@dataclass
class CorrelationGraph:
    """Sparse directed neighbor rows with co-occurrence counts.

    ``neighbors`` and ``counts`` are CSR ``Rows`` sharing one ``indptr``;
    ``neighbors[i]`` is sorted by ascending item index and ``counts[i]`` is
    parallel to it. Rows never exceed ``max_neighbors`` entries.
    """

    neighbors: Rows
    counts: Rows
    max_neighbors: int

    @property
    def n(self) -> int:
        return len(self.neighbors)

    @property
    def nnz(self) -> int:
        return len(self.neighbors.values)


@dataclass
class TrainingWeights:
    """Per-item row/column example weights, each rescaled to mean 1.0."""

    row: np.ndarray
    col: np.ndarray


@dataclass
class Corpus:
    """Immutable item corpus: ids, vocabulary, word lists (CSR rows), graph."""

    item_ids: list[str]
    vocab: list[str]
    word_lists: Rows  # per-item vocab indices, order and duplicates kept
    graph: CorrelationGraph
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.item_index = {t: i for i, t in enumerate(self.item_ids)}
        self.vocab_index = {t: i for i, t in enumerate(self.vocab)}

    @property
    def n(self) -> int:
        return len(self.item_ids)

    @property
    def m(self) -> int:
        return len(self.vocab)


def empty_graph(n: int, max_neighbors: int = 250) -> CorrelationGraph:
    empty = Rows.from_lists([[]] * n)
    return CorrelationGraph(empty, Rows(empty.indptr, empty.values), max_neighbors)


def _select_neighbors(src: np.ndarray, dst: np.ndarray, counts: np.ndarray,
                      n_items: int, max_neighbors: int) -> CorrelationGraph:
    """The neighbor policy for distinct (src, dst) edges: rank each row by
    (count desc, index asc), cut to ``max_neighbors``, store by index asc."""
    if max_neighbors < 1:
        raise ConfigError("max_neighbors must be >= 1")
    order = np.lexsort((dst, -counts, src))
    src, dst, counts = src[order], dst[order], counts[order]
    rank = np.arange(len(src)) - np.searchsorted(src, src)  # place within its row
    keep = np.flatnonzero(rank < max_neighbors)
    keep = keep[np.lexsort((dst[keep], src[keep]))]
    neighbors = Rows.from_coo(src[keep], dst[keep], n_items)
    return CorrelationGraph(neighbors, Rows(neighbors.indptr, counts[keep]), max_neighbors)


def tokens_with_bigrams(tokens: Sequence[str]) -> list[str]:
    """Unigrams in original order, then adjacent-pair bigrams joined by '_'."""
    out = list(tokens)
    out.extend(f"{a}_{b}" for a, b in zip(tokens, tokens[1:]))
    return out


def words_to_indices(corpus: Corpus, tokens: Sequence[str], bigrams: bool = True) -> list[int]:
    """Map query tokens to vocab indices, dropping OOV terms silently."""
    words = tokens_with_bigrams(tokens) if bigrams else list(tokens)
    vi = corpus.vocab_index
    return [vi[w] for w in words if w in vi]


def build_correlation_graph(
    sequences: Iterable[Sequence[int]],
    n_items: int,
    max_neighbors: int,
    window: int = 1,
    symmetrize: bool = False,
) -> CorrelationGraph:
    """Count (earlier, later) consumptions and keep top neighbors.

    Rows are ranked by co-occurrence count (ties broken by ascending item
    index) and truncated to ``max_neighbors``. Self-transitions are skipped.
    """
    if window < 1:
        raise ConfigError("window must be >= 1")
    seqs = list(sequences)
    lens = np.array([len(s) for s in seqs], dtype=np.int64)
    flat = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64)
    bad = flat[(flat < 0) | (flat >= n_items)]
    if len(bad):
        raise IngestError(f"item index out of range in sequence: {bad[0]}")
    seq_id = np.repeat(np.arange(len(seqs)), lens)
    keys = []
    for w in range(1, window + 1):
        q, p = flat[:-w], flat[w:]
        pair = (seq_id[:-w] == seq_id[w:]) & (q != p)
        keys.append(q[pair] * n_items + p[pair])
    if symmetrize:
        # count(q, p) + count(p, q): every transition also counts reversed
        keys += [(k % n_items) * n_items + k // n_items for k in keys]
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    return _select_neighbors(keys // n_items, keys % n_items, counts, n_items, max_neighbors)


def build_corpus(
    item_text: Mapping[str, Sequence[str]],
    min_item_count: int = 0,
    min_word_count: int = 0,
    consumption_counts: Mapping[str, int] | None = None,
) -> Corpus:
    """Build vocabulary and per-item word lists; the graph starts empty.

    ``min_word_count`` thresholds on the number of distinct items a word
    occurs in. ``min_item_count`` thresholds on consumption counts and
    requires ``consumption_counts``; without counts it is ignored.
    """
    if min_item_count < 0 or min_word_count < 0:
        raise ConfigError("thresholds must be >= 0")
    kept_ids = []
    for item_id in item_text:
        if min_item_count > 0 and consumption_counts is not None:
            if consumption_counts.get(item_id, 0) < min_item_count:
                continue
        kept_ids.append(item_id)

    per_item_words = [tokens_with_bigrams(item_text[item_id]) for item_id in kept_ids]
    doc_freq = Counter(w for words in per_item_words for w in set(words))
    # vocabulary in order of first occurrence
    vocab = [w for w in dict.fromkeys(itertools.chain.from_iterable(per_item_words))
             if doc_freq[w] >= max(min_word_count, 1)]
    vocab_index = {w: i for i, w in enumerate(vocab)}
    word_lists = Rows.from_lists([[vocab_index[w] for w in words if w in vocab_index]
                                  for words in per_item_words])
    n_empty = int(np.sum(word_lists.lengths() == 0))
    stats = {"items_with_empty_text": n_empty, "dropped_items": len(item_text) - len(kept_ids)}
    return Corpus(kept_ids, vocab, word_lists, empty_graph(len(kept_ids)), stats)


def compute_training_weights(graph: CorrelationGraph, empty_weight_one: bool = False) -> TrainingWeights:
    """1/sqrt(nnz) row/column weights, each rescaled to arithmetic mean 1.0.

    Empty rows/columns receive the maximum raw weight among the nonempty
    ones (or 1.0 when ``empty_weight_one``).
    """

    def raw_weights(nnz: np.ndarray) -> np.ndarray:
        w = np.zeros(len(nnz), dtype=np.float64)
        nonempty = nnz > 0
        w[nonempty] = 1.0 / np.sqrt(nnz[nonempty])
        fill = 1.0 if (empty_weight_one or not nonempty.any()) else float(w[nonempty].max())
        w[~nonempty] = fill
        mean = w.mean() if len(w) else 1.0
        return w / mean if mean > 0 else np.ones_like(w)

    col_nnz = np.bincount(graph.neighbors.values, minlength=graph.n)
    return TrainingWeights(raw_weights(graph.neighbors.lengths()), raw_weights(col_nnz))


# ---------------------------------------------------------------------------
# File ingestion


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """A text input opened as UTF-8, whatever the locale; bytes that do not
    decode raise ``IngestError`` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_tsv_rows(path: str | Path, n_fields: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-empty line of a text input, which
    must have ``n_fields`` tab-separated fields."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) == n_fields:
                yield lineno, parts
            elif parts != [""]:  # an empty line is skipped
                raise IngestError(f"{path}:{lineno}: expected {n_fields} tab-separated fields")


def read_jsonl_rows(path: str | Path, what: str, *keys: str) -> Iterator[tuple[int, dict, list]]:
    """(line number, record, the values of ``keys``) of each non-empty line of
    a JSON-lines input; a line without such a record raises ``IngestError``."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                values = [rec[key] for key in keys]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise IngestError(f"{path}:{lineno}: malformed {what} record: {exc}") from exc
            yield lineno, rec, values


def read_items_jsonl(path: str | Path) -> dict[str, list[str]]:
    """items.jsonl: one {"id": ..., "words": [...]} object per line."""
    items: dict[str, list[str]] = {}
    for lineno, _, (item_id, words) in read_jsonl_rows(path, "item", "id", "words"):
        if not isinstance(item_id, str) or not isinstance(words, list):
            raise IngestError(f"{path}:{lineno}: 'id' must be a string and 'words' a list")
        words = [str(w) for w in words]
        text = "".join([item_id, *words])  # stored one per line in .tsv tables
        if any(c in text for c in "\t\n\r"):
            raise IngestError(f"{path}:{lineno}: tab or line break in an id or word")
        items[item_id] = words
    return items


def read_sequences_tsv(path: str | Path) -> list[tuple[str, list[str]]]:
    """sequences.tsv: user_id TAB comma-separated ordered item ids."""
    return [(user, [s for s in seq.split(",") if s]) for _, (user, seq) in read_tsv_rows(path, 2)]


def read_graph_tsv(path: str | Path, corpus: Corpus, max_neighbors: int = 250) -> CorrelationGraph:
    """graph.tsv direct ingest: seed_id TAB neighbor_id TAB count."""
    edges: list[tuple[int, int, int]] = []
    for lineno, (seed_id, nbr_id, count_s) in read_tsv_rows(path, 3):
        for item_id in (seed_id, nbr_id):
            if item_id not in corpus.item_index:
                raise IngestError(f"{path}:{lineno}: unknown item id {item_id!r}")
        if not count_s.isdecimal() or int(count_s) < 1:
            raise IngestError(f"{path}:{lineno}: count must be an integer >= 1")
        edges.append((corpus.item_index[seed_id], corpus.item_index[nbr_id], int(count_s)))
    src, dst, counts = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    keys = np.sort(src * corpus.n + dst)
    dup = keys[1:][keys[1:] == keys[:-1]]
    if len(dup):
        raise IngestError(f"duplicate graph edge for neighbor index {dup[0] % corpus.n}")
    return _select_neighbors(src, dst, counts, corpus.n, max_neighbors)


def ingest_corpus(
    item_text: Mapping[str, Sequence[str]],
    sequences: list[tuple[str, list[str]]],
    min_item_count: int = 0,
    min_word_count: int = 0,
    max_neighbors: int = 250,
    window: int = 1,
    symmetrize: bool = False,
) -> Corpus:
    """Full pipeline: thresholds, vocabulary, and sequence-derived graph."""
    consumption: dict[str, int] = {}
    for lineno, (_, seq) in enumerate(sequences, 1):
        for item_id in seq:
            if item_id not in item_text:
                raise IngestError(f"sequences line {lineno}: unknown item id {item_id!r}")
            consumption[item_id] = consumption.get(item_id, 0) + 1
    corpus = build_corpus(item_text, min_item_count, min_word_count, consumption)
    index = corpus.item_index
    # Dropped items leave holes in the sequences; pairs spanning a hole are skipped.
    mapped = [[index[i] for i in seq if i in index] for _, seq in sequences]
    corpus.graph = build_correlation_graph(mapped, corpus.n, max_neighbors, window, symmetrize)
    return corpus


# ---------------------------------------------------------------------------
# Persistence


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_id_tables(corpus, directory)
    words, graph = corpus.word_lists, corpus.graph
    binio.write_int_lists(directory / "words.bin", WORDS_MAGIC, words.indptr, words.values)
    binio.write_int_lists(directory / "adjacency.bin", ADJ_MAGIC, graph.neighbors.indptr,
                          graph.neighbors.values, graph.counts.values)
    meta = {"max_neighbors": graph.max_neighbors, "stats": corpus.stats}
    binio.atomic_write_bytes(directory / "corpus_meta.json",
                             json.dumps(meta, indent=2).encode())


def write_id_tables(corpus: Corpus, directory: Path) -> None:
    """vocab.tsv and items.tsv: one ``token TAB index`` line per entry."""
    for name, tokens in (("vocab.tsv", corpus.vocab), ("items.tsv", corpus.item_ids)):
        binio.atomic_write_bytes(
            directory / name, "".join(f"{t}\t{i}\n" for i, t in enumerate(tokens)).encode())


def _read_tsv_index(path: Path) -> list[str]:
    tokens = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            token, _, idx = line.partition("\t")
            if idx != str(len(tokens)):
                raise IngestError(f"{path}:{lineno}: expected token TAB {len(tokens)}")
            tokens.append(token)
    return tokens


def load_corpus(directory: str | Path) -> Corpus:
    directory = Path(directory)
    vocab = _read_tsv_index(directory / "vocab.tsv")
    item_ids = _read_tsv_index(directory / "items.tsv")
    n = len(item_ids)
    offsets, words, _ = binio.read_int_lists(directory / "words.bin", WORDS_MAGIC, n, len(vocab))
    indptr, neighbors, counts = binio.read_int_lists(directory / "adjacency.bin", ADJ_MAGIC, n, n)
    if counts is None:
        raise IngestError(f"{directory}/adjacency.bin: missing counts")
    try:
        meta = json.loads((directory / "corpus_meta.json").read_text(encoding="utf-8"))
        max_neighbors, stats = int(meta["max_neighbors"]), dict(meta.get("stats", {}))
    except (ValueError, KeyError, TypeError) as exc:
        raise IngestError(f"{directory}/corpus_meta.json: malformed: {exc!r}") from None
    graph = CorrelationGraph(Rows(indptr, neighbors), Rows(indptr, counts), max_neighbors)
    return Corpus(item_ids, vocab, Rows(offsets, words), graph, stats)
