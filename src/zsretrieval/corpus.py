"""Corpus ingestion: vocabulary, per-item text features, co-occurrence graph.

Items come with pre-tokenized text; the vocabulary holds unigrams plus
bigrams of adjacent tokens (joined by "_"). The correlation graph is built
from ordered per-user consumption sequences: an item consumed right after
another becomes its neighbor, rows ranked by co-occurrence count and
truncated to a per-row cap. Per-item word indices and graph rows are held as
CSR ``Rows``, the layout ``words.bin`` and ``adjacency.bin`` store.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import binio
from .errors import IngestError, check, is_json

ADJ_MAGIC = b"ZSRADJ\x00\x01"
WORDS_MAGIC = b"ZSRWRD\x00\x01"

# The working-memory budget: an array that grows with a count of entries
# (pairs, tokens, gathered terms) or stacks d x d systems is built in slices
# of at most this many float64 numbers.
CHUNK_FLOATS = 1 << 17


def budget_rows(width: int) -> int:
    """How many rows of ``width`` numbers fit in CHUNK_FLOATS; at least one."""
    return max(1, CHUNK_FLOATS // max(width, 1))


def budget_runs(cost: np.ndarray, width: int):
    """(start, stop) of consecutive runs of rows, row i bringing ``cost[i]``
    rows of ``width`` numbers, that fit in CHUNK_FLOATS; a run holds at
    least one row."""
    max_cost = budget_rows(width)
    ends = np.cumsum(cost)
    start = 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + max_cost, side="right")), start + 1)
        yield start, stop
        start = stop


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

    def take(self, ids: np.ndarray) -> tuple["Rows", np.ndarray]:
        """Rows ``ids``, in that order, and the positions their entries were
        read from: a parallel array follows as ``a[at]``."""
        starts = self.indptr[ids]
        lens = self.indptr[ids + 1] - starts
        ptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(lens, out=ptr[1:])
        at = np.arange(ptr[-1]) + np.repeat(starts - ptr[:-1], lens)
        return Rows(ptr, self.values[at]), at

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

    def id_digest(self) -> str:
        """sha256 over the item ids and the vocabulary, in index order."""
        return hashlib.sha256(json.dumps([self.item_ids, self.vocab]).encode()).hexdigest()


def empty_graph(n: int, max_neighbors: int = 250) -> CorrelationGraph:
    empty = Rows.from_lists([[]] * n)
    return CorrelationGraph(empty, Rows(empty.indptr, empty.values), max_neighbors)


def _select_neighbors(keys: np.ndarray, counts: np.ndarray, n_items: int,
                      max_neighbors: int) -> CorrelationGraph:
    """The neighbor policy for distinct edges, given as ascending keys
    ``src * n_items + dst`` with their counts: rank each row by (count desc,
    index asc), cut to ``max_neighbors``, store by index asc. Rows are ranked
    in runs of whole rows of at most CHUNK_FLOATS edges (a longer row alone)."""
    indptr = np.searchsorted(keys, np.arange(n_items + 1) * n_items)
    lengths = np.diff(indptr)
    cap = min(max_neighbors, len(keys))  # no row is longer; int64 holds it
    out_ptr = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(np.minimum(lengths, cap), out=out_ptr[1:])
    neighbors = Rows(out_ptr, np.empty(out_ptr[-1], dtype=np.int64))
    kept_counts = Rows(out_ptr, np.empty(out_ptr[-1], dtype=np.int64))
    for start, stop in budget_runs(lengths, 1):
        a, b = indptr[start], indptr[stop]
        src, dst = np.divmod(keys[a:b], n_items)
        c = counts[a:b]
        if lengths[start:stop].max(initial=0) > cap:
            order = np.lexsort((-c, src))  # stable: dst stays ascending within a count
            rank = np.arange(b - a) - (indptr[src] - a)  # place within its row
            keep = np.zeros(b - a, dtype=bool)
            keep[order[rank < cap]] = True
            dst, c = dst[keep], c[keep]
        neighbors.values[out_ptr[start]:out_ptr[stop]] = dst
        kept_counts.values[out_ptr[start]:out_ptr[stop]] = c
    return CorrelationGraph(neighbors, kept_counts, max_neighbors)


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
    sequences: Rows,
    n_items: int,
    max_neighbors: int,
    window: int = 1,
    symmetrize: bool = False,
) -> CorrelationGraph:
    """Count (earlier, later) consumptions and keep top neighbors.

    ``sequences`` holds one row of item indices per consumption sequence.
    Rows are ranked by co-occurrence count (ties broken by ascending item
    index) and truncated to ``max_neighbors``. Self-transitions are skipped.
    Pairs are keyed in slices of at most CHUNK_FLOATS keys and counted into
    one table of distinct pairs, so that, beyond ``sequences``, the build
    holds a few budgets and a few numbers per distinct pair.
    """
    check(max_neighbors=max_neighbors, window=window)
    flat = np.asarray(sequences.values, dtype=np.int64)
    _check_indices(flat, n_items)
    table = (np.zeros(0, dtype=np.int64),) * 2  # ascending distinct keys, their counts
    pending, held = [], 0
    for new in _pair_keys(flat, sequences.indptr, n_items, window, symmetrize):
        pending.append(new)
        held += len(new)
        # a merge copies the table, so it waits for as many keys as the table holds
        if held >= max(CHUNK_FLOATS, len(table[0])):
            table, held = _count_in(*table, pending), 0
    if pending:
        table = _count_in(*table, pending)
    return _select_neighbors(*table, n_items, max_neighbors)


def _pair_keys(flat: np.ndarray, indptr: np.ndarray, n_items: int, window: int,
               symmetrize: bool) -> Iterator[np.ndarray]:
    """Keys ``q * n_items + p`` of the pairs of distinct items q, p at most
    ``window`` apart in one row, q first (and ``p * n_items + q`` too when
    ``symmetrize``), in pieces of at most CHUNK_FLOATS keys."""
    step = budget_rows(2 if symmetrize else 1)
    for a in range(0, len(flat), step):
        room = _room(indptr, a, min(a + step, len(flat)))
        # items of one row lie at most room - 1 apart
        for w in range(1, min(window, int(room.max()) - 1) + 1):
            p = flat[a + w:a + w + len(room)]
            q = flat[a:a + len(p)]
            pair = (room[:len(p)] > w) & (q != p)
            keys = q[pair] * n_items
            keys += p[pair]
            if symmetrize:  # count(q, p) + count(p, q): every transition also counts reversed
                back = p[pair] * n_items
                back += q[pair]
                keys = np.concatenate((keys, back))
            yield keys


def _room(indptr: np.ndarray, a: int, b: int) -> np.ndarray:
    """For each position in ``[a, b)`` of CSR values, the positions from it to
    the end of its row."""
    first = int(np.searchsorted(indptr, a, side="right")) - 1  # the row holding a
    last = int(np.searchsorted(indptr, b - 1, side="right"))  # past the row holding b - 1
    held = np.diff(np.clip(indptr[first:last + 1], a, b))  # each row's positions in [a, b)
    room = np.repeat(indptr[first + 1:last + 1], held)
    room -= np.arange(a, b)
    return room


def _count_in(keys: np.ndarray, counts: np.ndarray,
              pending: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The table of ascending distinct ``keys`` and their ``counts`` with the
    keys in ``pending`` counted in; ``counts`` is updated in place and
    ``pending`` emptied."""
    new = np.concatenate(pending)
    pending.clear()
    new.sort()
    first = np.ones(len(new), dtype=bool)
    first[1:] = new[1:] != new[:-1]
    starts = np.flatnonzero(first)
    new_counts = np.diff(starts, append=len(new))
    new = new[starts]
    if not len(keys):
        return new, new_counts
    at = np.searchsorted(keys, new)
    known = keys.take(at, mode="clip") == new
    counts[at[known]] += new_counts[known]
    fresh = ~known
    return (np.insert(keys, at[fresh], new[fresh]),
            np.insert(counts, at[fresh], new_counts[fresh]))


def _check_indices(values: np.ndarray, n_items: int) -> None:
    if len(values) and (values.min() < 0 or values.max() >= n_items):
        bad = values[(values < 0) | (values >= n_items)]
        raise IngestError(f"item index out of range in sequence: {bad[0]}")


def build_corpus(item_text: Mapping[str, Sequence[str]], min_word_count: int = 0) -> Corpus:
    """Build vocabulary and per-item word lists; the graph starts empty.

    ``min_word_count`` thresholds on the number of distinct items a word
    occurs in. Every item is kept; ``ingest_corpus`` drops rarely consumed
    ones before it builds.
    """
    check(min_word_count=min_word_count)
    per_item_words = [tokens_with_bigrams(words) for words in item_text.values()]
    doc_freq = Counter(w for words in per_item_words for w in set(words))
    # vocabulary in order of first occurrence
    vocab = [w for w in dict.fromkeys(itertools.chain.from_iterable(per_item_words))
             if doc_freq[w] >= max(min_word_count, 1)]
    vocab_index = {w: i for i, w in enumerate(vocab)}
    word_lists = Rows.from_lists([[vocab_index[w] for w in words if w in vocab_index]
                                  for words in per_item_words])
    n_empty = int(np.sum(word_lists.lengths() == 0))
    stats = {"items_with_empty_text": n_empty, "dropped_items": 0}  # set by ingest_corpus
    return Corpus(list(item_text), vocab, word_lists, empty_graph(len(item_text)), stats)


def compute_training_weights(graph: CorrelationGraph) -> TrainingWeights:
    """1/sqrt(nnz) row/column weights, each rescaled to arithmetic mean 1.0.

    Empty rows/columns receive the maximum raw weight among the nonempty
    ones (1.0 when there are none).
    """

    def raw_weights(nnz: np.ndarray) -> np.ndarray:
        w = np.zeros(len(nnz), dtype=np.float64)
        nonempty = nnz > 0
        w[nonempty] = 1.0 / np.sqrt(nnz[nonempty])
        fill = float(w[nonempty].max()) if nonempty.any() else 1.0
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
    """items.jsonl: one {"id": ..., "words": [...]} object per line, each id
    once; ids and words are text the .tsv tables can store."""
    items: dict[str, list[str]] = {}
    for lineno, _, (item_id, words) in read_jsonl_rows(path, "item", "id", "words"):
        if not (isinstance(item_id, str) and isinstance(words, list)
                and all(isinstance(w, str) for w in words)):
            raise IngestError(f"{path}:{lineno}: 'id' must be a string "
                              "and 'words' a list of strings")
        text = "".join([item_id, *words])  # stored one per line in .tsv tables
        if any(c in text for c in "\t\n\r"):
            raise IngestError(f"{path}:{lineno}: tab or line break in an id or word")
        try:
            text.encode()
        except UnicodeEncodeError as exc:
            raise IngestError(f"{path}:{lineno}: an id or word UTF-8 cannot encode "
                              f"({exc.reason})") from None
        if item_id in items:
            raise IngestError(f"{path}:{lineno}: repeated item id {item_id!r}")
        items[item_id] = words
    return items


def read_sequences_tsv(path: str | Path, item_index: Mapping[str, int]) -> Rows:
    """sequences.tsv: user_id TAB comma-separated ordered item ids, one row
    of ``item_index`` values per non-empty line; the user id is not kept."""
    values, lengths = array("q"), array("q")
    for lineno, (_, seq) in read_tsv_rows(path, 2):
        ids = seq.split(",")
        if "" in ids:
            ids = [s for s in ids if s]
        try:
            values.extend(map(item_index.__getitem__, ids))
        except KeyError as exc:
            raise IngestError(f"{path}:{lineno}: unknown item id {exc.args[0]!r}") from None
        lengths.append(len(ids))
    return Rows(np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
                np.frombuffer(values, dtype=np.int64))


def read_graph_tsv(path: str | Path, corpus: Corpus, max_neighbors: int = 250) -> CorrelationGraph:
    """graph.tsv direct ingest: seed_id TAB neighbor_id TAB count."""
    check(max_neighbors=max_neighbors)
    edges: dict[int, int] = {}  # src * n + dst -> count
    for lineno, (seed_id, nbr_id, count_s) in read_tsv_rows(path, 3):
        for item_id in (seed_id, nbr_id):
            if item_id not in corpus.item_index:
                raise IngestError(f"{path}:{lineno}: unknown item id {item_id!r}")
        if not count_s.isdecimal() or int(count_s) < 1:
            raise IngestError(f"{path}:{lineno}: count must be an integer >= 1")
        key = corpus.item_index[seed_id] * corpus.n + corpus.item_index[nbr_id]
        if key in edges:
            raise IngestError(f"{path}:{lineno}: repeated edge {seed_id!r} -> {nbr_id!r}")
        edges[key] = int(count_s)
    keys = np.fromiter(edges, dtype=np.int64, count=len(edges))
    order = np.argsort(keys)
    counts = np.fromiter(edges.values(), dtype=np.int64, count=len(edges))[order]
    return _select_neighbors(keys[order], counts, corpus.n, max_neighbors)


def ingest_corpus(
    item_text: Mapping[str, Sequence[str]],
    sequences: Rows,
    min_item_count: int = 0,
    min_word_count: int = 0,
    max_neighbors: int = 250,
    window: int = 1,
    symmetrize: bool = False,
) -> Corpus:
    """Full pipeline: thresholds, vocabulary, and sequence-derived graph.

    ``sequences`` holds rows of indices into ``item_text``'s order, as
    ``read_sequences_tsv`` reads them. Beyond them, ingest holds a few
    CHUNK_FLOATS budgets and a few numbers per distinct pair, and, when
    items are dropped, the renumbered sequences.
    """
    check(min_item_count=min_item_count, min_word_count=min_word_count,
          max_neighbors=max_neighbors, window=window)
    _check_indices(sequences.values, len(item_text))
    uses = np.bincount(sequences.values, minlength=len(item_text))
    keep = uses >= min_item_count
    corpus = build_corpus({item_id: item_text[item_id]
                           for item_id, kept in zip(item_text, keep.tolist()) if kept},
                          min_word_count)
    corpus.stats["dropped_items"] = len(item_text) - corpus.n
    if corpus.stats["dropped_items"]:
        sequences = _drop_items(sequences, keep, int(uses[keep].sum()))
    corpus.graph = build_correlation_graph(sequences, corpus.n, max_neighbors, window, symmetrize)
    return corpus


def _drop_items(sequences: Rows, keep: np.ndarray, n_kept: int) -> Rows:
    """``sequences`` with the items ``keep`` leaves out removed and the rest
    renumbered, in slices of CHUNK_FLOATS positions. A dropped item's
    neighbors join: in a,x,b with x dropped, a and b become adjacent."""
    remap = np.where(keep, np.cumsum(keep) - 1, -1)
    old_ptr, old = sequences.indptr, sequences.values
    out = Rows(np.empty(len(old_ptr), dtype=np.int64), np.empty(n_kept, dtype=np.int64))
    done = 0  # kept entries before position a
    for a in range(0, len(old), CHUNK_FLOATS):
        mapped = remap[old[a:a + CHUNK_FLOATS]]
        kept = mapped >= 0
        before = np.zeros(len(kept) + 1, dtype=np.int64)
        np.cumsum(kept, out=before[1:])
        rows = slice(*np.searchsorted(old_ptr, [a, a + len(kept)]))  # rows starting here
        out.indptr[rows] = done + before[old_ptr[rows] - a]
        out.values[done:done + before[-1]] = mapped[kept]
        done += int(before[-1])
    out.indptr[np.searchsorted(old_ptr, len(old)):] = done
    return out


# ---------------------------------------------------------------------------
# Persistence


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # vocab.tsv and items.tsv: one ``token TAB index`` line per entry.
    for name, tokens in (("vocab.tsv", corpus.vocab), ("items.tsv", corpus.item_ids)):
        binio.atomic_write_bytes(
            directory / name, "".join(f"{t}\t{i}\n" for i, t in enumerate(tokens)).encode())
    words, graph = corpus.word_lists, corpus.graph
    binio.write_int_lists(directory / "words.bin", WORDS_MAGIC, words.indptr, words.values)
    binio.write_int_lists(directory / "adjacency.bin", ADJ_MAGIC, graph.neighbors.indptr,
                          graph.neighbors.values, graph.counts.values)
    meta = {"max_neighbors": graph.max_neighbors, "stats": corpus.stats}
    binio.atomic_write_bytes(directory / "corpus_meta.json",
                             json.dumps(meta, indent=2).encode())


def _read_tsv_index(path: Path) -> list[str]:
    tokens = []
    for lineno, (token, idx) in read_tsv_rows(path, 2):
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
    adjacency = Rows(indptr, neighbors)
    owner = adjacency.row_ids()  # CorrelationGraph's ascending rows, which the trainer reads
    falls = np.flatnonzero((owner[1:] == owner[:-1]) & (neighbors[1:] <= neighbors[:-1]))
    if len(falls):
        raise IngestError(f"{directory}/adjacency.bin: row {owner[falls[0]]} is not "
                          "strictly ascending")
    try:
        meta = json.loads((directory / "corpus_meta.json").read_text(encoding="utf-8"))
        max_neighbors, stats = meta["max_neighbors"], dict(meta.get("stats", {}))
    except (ValueError, KeyError, TypeError) as exc:
        raise IngestError(f"{directory}/corpus_meta.json: malformed: {exc!r}") from None
    if not is_json(max_neighbors, int) or max_neighbors < 1:
        raise IngestError(f"{directory}/corpus_meta.json: 'max_neighbors' must be an integer >= 1")
    graph = CorrelationGraph(adjacency, Rows(indptr, counts), max_neighbors)
    return Corpus(item_ids, vocab, Rows(offsets, words), graph, stats)
