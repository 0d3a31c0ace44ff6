"""Bag-of-words encoding and item-norm rescaling."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EncodeError, ScoreError


@dataclass
class QueryVector:
    values: np.ndarray
    source_len: int


def encode_bow(word_indices: Sequence[int], W: np.ndarray) -> QueryVector:
    """Arithmetic mean of the selected word rows, duplicates counted."""
    idx = np.asarray(word_indices, dtype=np.int64)
    if idx.size == 0:
        raise EncodeError("no in-vocabulary words to encode")
    if idx.min() < 0 or idx.max() >= W.shape[0]:
        raise EncodeError("word index out of vocabulary range")
    return QueryVector(W[idx].astype(np.float64).mean(axis=0), int(idx.size))


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
