"""Pluggable evaluation-kernel backends for the ``(X S^T) == L`` indicator.

The enumeration's dominant cost is materializing, per level, the boolean
indicator ``I[i, s] = row i matches all L predicates of slice s`` and
reducing it to the Equation-10 vectors ``(ss, se, sm)``.  Two backends
compute the same indicator two ways:

``sparse``
    The paper's formulation: one blocked sparse CSR x CSC product
    ``X @ S^T`` followed by ``== L`` filtering (see
    :mod:`repro.core.evaluate`).  Works for any data and is the fallback.
``bitset``
    For 0/1 data the indicator of a slice is the AND of its predicate
    columns.  Each one-hot column of ``X`` is packed into a row bitset
    (``np.packbits`` -> ``uint64`` words, :class:`BitsetTable`); a
    candidate's indicator is ``L-1`` word-wise ANDs and ``ss`` is a
    popcount — no ``n x b`` float intermediate, no sparse overhead.

No kernel state outlives a level: each level runs the cost model and, when
it picks ``bitset``, packs a fresh table from that level's (possibly
compacted) evaluation matrix.

Exactness.  The bitset backend is bitwise identical to the sparse path:

* ``ss`` is an exact integer (popcount) cast to float64.
* ``se``: scipy's ``indicator.T @ errors`` is a ``csc_matvec`` that
  accumulates each slice's member errors sequentially in ascending data-row
  order starting from ``0.0``.  ``np.bincount`` over the member
  ``(slice, row)`` pairs (from ``np.nonzero`` of the unpacked indicator,
  which is row-major per slice) is the same strict left-to-right C loop
  (``out[slice] += error`` in input order), and ``0.0 + e == e`` for every
  float, so the sums agree bit for bit.  ``np.sum`` or ``np.add.reduceat``
  would *not*: both reduce long runs pairwise, which rounds differently.
* ``sm`` replicates scipy's sparse column max, which includes the implicit
  zeros of any column that is not full: ``max(0, member max)`` unless the
  slice covers every row.  Max is order-independent, hence exact.

The per-level :func:`choose_backend` cost model keeps the sparse path for
non-0/1 data, tiny workloads (where packing costs more than it saves), and
whenever the packed table would exceed its byte cap, so ``auto`` never
selects a backend whose preconditions do not hold.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError

#: Recognized values of the ``kernel_backend`` option.
BACKENDS = ("auto", "sparse", "bitset")

#: Minimum indicator work (``num_rows * num_candidates`` cells) before
#: ``auto`` leaves the sparse path — below this, packing dominates.
MIN_BITSET_CELLS = 1 << 15
#: Minimum candidate count before ``auto`` builds a column bitset table.
MIN_BITSET_CANDIDATES = 64
#: Byte cap for the per-level packed column table (``auto``/explicit
#: requests fall back to sparse when the table would exceed it).
MAX_TABLE_BYTES = 256 * 1024 * 1024

#: Candidates per internal bitset work chunk.  Chunking is independent of
#: the caller's ``block_size`` because every candidate's statistics are
#: computed in isolation — results cannot depend on the chunk grid.
BITSET_CHUNK = 8192

_POPCOUNT_LUT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, np.newaxis], axis=1
).sum(axis=1, dtype=np.uint8)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def num_packed_words(num_bits: int) -> int:
    """``uint64`` words needed for a *num_bits*-wide bitset row."""
    return -(-num_bits // 64)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row population count of a 2-D ``uint64`` word matrix (int64)."""
    if words.shape[1] == 0:
        return np.zeros(words.shape[0], dtype=np.int64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    return _popcount_rows_lut(words)


def _popcount_rows_lut(words: np.ndarray) -> np.ndarray:
    """Byte-LUT popcount fallback for numpy without ``np.bitwise_count``."""
    return _POPCOUNT_LUT[
        np.ascontiguousarray(words).view(np.uint8)
    ].sum(axis=1, dtype=np.int64)


def pack_bool_rows(rows: np.ndarray) -> np.ndarray:
    """Pack boolean rows into ``uint64`` words (``np.packbits`` bit order).

    The byte stream of each packed row is ``np.packbits(row)`` zero-padded
    to a multiple of 8 bytes, then viewed as ``uint64`` — AND/OR/popcount
    act bit-parallel, so the words' integer values (which depend on host
    endianness) never matter, and :func:`unpack_bool_rows` inverts the
    packing exactly by viewing the words back as bytes.
    """
    num_rows, num_bits = rows.shape
    if num_bits == 0:
        return np.zeros((num_rows, 0), dtype=np.uint64)
    packed = np.packbits(rows, axis=1)
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_bool_rows(words: np.ndarray, num_bits: int) -> np.ndarray:
    """Invert :func:`pack_bool_rows` back to a boolean ``(rows, num_bits)``."""
    if num_bits == 0 or words.shape[1] == 0:
        return np.zeros((words.shape[0], num_bits), dtype=bool)
    return np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), axis=1, count=num_bits
    ).view(np.bool_)


def estimate_table_bytes(num_rows: int, num_cols: int) -> int:
    """Bytes of the packed column table for an ``num_rows x num_cols`` X."""
    return num_cols * num_packed_words(num_rows) * 8


def is_binary_matrix(matrix: sp.spmatrix) -> bool:
    """True when every stored entry equals ``1.0`` (a 0/1 matrix).

    The bitset formulation models ``(X S^T) == L`` as per-column AND only
    for 0/1 data; anything else must stay on the sparse path.
    """
    data = matrix.data
    return data.size == 0 or bool((data == 1.0).all())


class BitsetTable:
    """Packed row bitsets, one per one-hot column of the data matrix.

    ``words[c]`` is the bitset of rows where column ``c`` is set; a
    candidate slice's indicator is the AND of its predicate columns'
    bitsets.  Built per level from the (possibly compacted) evaluation
    matrix in bounded column chunks so the dense transient stays small.
    """

    def __init__(self, words: np.ndarray, num_rows: int) -> None:
        self.words = words
        self.num_rows = num_rows

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)

    @classmethod
    def from_matrix(
        cls, matrix: sp.spmatrix, col_chunk: int = 1024
    ) -> "BitsetTable":
        num_rows, num_cols = matrix.shape
        csc = matrix.tocsc()
        blocks = []
        for start in range(0, num_cols, col_chunk):
            dense = csc[:, start : start + col_chunk].toarray()
            blocks.append(pack_bool_rows(np.ascontiguousarray(dense.T) != 0))
        if blocks:
            words = np.vstack(blocks)
        else:
            words = np.zeros((0, num_packed_words(num_rows)), dtype=np.uint64)
        return cls(words, num_rows)

    def candidate_words(self, keys: np.ndarray) -> np.ndarray:
        """AND the column bitsets of each key row (``num_cands x L``)."""
        # Fancy indexing yields a fresh array, so the ANDs run in place.
        words = self.words[keys[:, 0]]
        for column in range(1, keys.shape[1]):
            words &= self.words[keys[:, column]]
        return words


def words_block_stats(
    words: np.ndarray,
    errors: np.ndarray,
    num_rows: int,
    track_rows: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """``(ss, se, sm, row-any)`` of a block of candidate indicator bitsets.

    Bitwise identical to the sparse ``_block_stats`` (see the module
    docstring for the exactness argument).
    """
    num_slices = words.shape[0]
    counts = popcount_rows(words)
    sizes = counts.astype(np.float64)
    slice_errors = np.zeros(num_slices, dtype=np.float64)
    max_errors = np.zeros(num_slices, dtype=np.float64)
    covered: np.ndarray | None = None
    if num_slices and counts.any():
        bits = unpack_bool_rows(words, num_rows)
        slice_idx, row_idx = np.nonzero(bits)
        member_errors = errors[row_idx]
        # bincount's C loop (`out[slice] += error` in input order) performs
        # the exact per-slice sequential additions of scipy's csc_matvec;
        # add.reduceat would round differently (pairwise) on long slices.
        slice_errors = np.bincount(
            slice_idx, weights=member_errors, minlength=num_slices
        )
        offsets = np.zeros(num_slices + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # reduceat treats an empty segment as [start, start+1); passing only
        # the starts of non-empty segments sidesteps that — consecutive
        # non-empty starts delimit exactly the member runs.  Max is order-
        # independent, so reduceat is exact here.
        nonempty = np.flatnonzero(counts > 0)
        starts = offsets[nonempty]
        member_max = np.maximum.reduceat(member_errors, starts)
        partial = counts[nonempty] < num_rows
        max_errors[nonempty] = np.where(
            partial, np.maximum(member_max, 0.0), member_max
        )
    if track_rows:
        if num_slices:
            covered = unpack_bool_rows(
                np.bitwise_or.reduce(words, axis=0)[np.newaxis, :], num_rows
            )[0]
        else:
            covered = np.zeros(num_rows, dtype=bool)
    return sizes, slice_errors, max_errors, covered


def choose_backend(
    requested: str,
    *,
    num_rows: int,
    num_cols: int,
    num_candidates: int,
    binary_data: bool,
    max_table_bytes: int | None = None,
) -> str:
    """Resolve the backend for one level's evaluation (the cost model).

    Preconditions are enforced here, not merely preferred: non-0/1 data
    always runs sparse and ``bitset`` needs the packed table to fit its
    byte cap.  ``auto`` additionally requires the indicator work to clear
    :data:`MIN_BITSET_CELLS` and the level to emit at least
    :data:`MIN_BITSET_CANDIDATES` candidates, so tiny levels keep the cheap
    sparse path.
    """
    if requested not in BACKENDS:
        raise ValidationError(
            f"unknown kernel backend {requested!r}; expected one of {BACKENDS}"
        )
    if requested == "sparse" or not binary_data:
        return "sparse"
    cap = MAX_TABLE_BYTES if max_table_bytes is None else max_table_bytes
    if estimate_table_bytes(num_rows, num_cols) > cap:
        return "sparse"
    if requested == "bitset":
        return "bitset"
    if (
        num_rows * num_candidates >= MIN_BITSET_CELLS
        and num_candidates >= MIN_BITSET_CANDIDATES
    ):
        return "bitset"
    return "sparse"


__all__ = [
    "BACKENDS",
    "BITSET_CHUNK",
    "MAX_TABLE_BYTES",
    "MIN_BITSET_CANDIDATES",
    "MIN_BITSET_CELLS",
    "BitsetTable",
    "choose_backend",
    "estimate_table_bytes",
    "is_binary_matrix",
    "num_packed_words",
    "pack_bool_rows",
    "popcount_rows",
    "unpack_bool_rows",
    "words_block_stats",
]
