"""Bag-of-words encoding and item-norm rescaling."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import Rows, budget_runs
from .errors import EncodeError, ScoreError


def _unencodable(words: Rows, m: int) -> list[str | None]:
    """Per row of ``words``, why its word indices cannot be encoded over m
    word rows, or None: an empty row before one with an index out of range."""
    idx = words.values
    outside = np.bincount(words.row_ids()[(idx < 0) | (idx >= m)], minlength=len(words))
    return ["no in-vocabulary words to encode" if not size else
            "word index out of vocabulary range" if bad else None
            for size, bad in zip(words.lengths().tolist(), outside.tolist())]


def encode_rows(words: Rows, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indices of the rows of ``words`` that hold a word, their BOW encodings):
    the arithmetic mean of each row's word rows of W, duplicates counted, as
    float64. Word indices must lie in ``[0, len(W))``. Runs of whole rows
    are reduced in turn, their gathered word rows within CHUNK_FLOATS."""
    lens = words.lengths()
    ids = np.flatnonzero(lens)
    lens, starts = lens[ids], words.indptr[ids]
    Q = np.empty((len(ids), W.shape[1]), dtype=np.float64)
    for lo, hi in budget_runs(lens, W.shape[1]):
        first, end = starts[lo], starts[hi - 1] + lens[hi - 1]
        np.add.reduceat(W[words.values[first:end]], starts[lo:hi] - first, axis=0,
                        dtype=np.float64, out=Q[lo:hi])
    Q /= lens[:, None]
    return ids, Q


def encode_bow(word_indices: Sequence[int], W: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the selected word rows, duplicates counted, as float64:
    the one-row case of ``encode_rows``."""
    idx = np.asarray(word_indices, dtype=np.int64)
    words = Rows(np.array([0, idx.size]), idx)
    [reason] = _unencodable(words, W.shape[0])
    if reason:
        raise EncodeError(reason)
    return encode_rows(words, W)[1][0]


def rescale_item_norms(target: np.ndarray, source: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Give each target row the norm of the matching source row.

    Directions are preserved; zero-norm target rows are left unchanged and
    returned as the second element (skipped row indices).
    """
    if target.shape != source.shape:
        raise ScoreError(f"shape mismatch: {target.shape} vs {source.shape}")
    tnorm = np.linalg.norm(target.astype(np.float64), axis=1)
    snorm = np.linalg.norm(source.astype(np.float64), axis=1)
    skipped = np.nonzero(tnorm == 0.0)[0]
    scale = np.ones_like(tnorm)
    ok = tnorm > 0.0
    scale[ok] = snorm[ok] / tnorm[ok]
    out = (target.astype(np.float64) * scale[:, None]).astype(target.dtype)
    return out, skipped
