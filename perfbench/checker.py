"""Independent output checker for SliceLine top-K results.

Plain numpy only: nothing here imports the package under test, so a fault
in its encoding, kernels or pruning cannot hide itself.  The checker gets
the integer-encoded inputs (``x0``, 1-based codes, 0 = missing) and the
error vector, and judges a result given as slice objects that carry
``predicates`` (feature -> code), ``size``, ``error``, ``max_error`` and
``score`` attributes.

Two parts:

* :func:`check_slices` recomputes every returned slice's statistics with a
  boolean row mask and checks the result's shape (count, support, score
  sign and order, one predicate per feature, level cap).
* :class:`LevelTwoOracle` enumerates every level-1 and level-2 slice by
  brute force from one-hot Gram products (``X^T X`` for sizes and
  ``X^T diag(e) X`` for error sums, computed in column blocks) and checks
  that no valid slice of those levels outside the result beats it.  With a
  level cap of 2 this makes the check a full exactness check.

Sizes and maximum errors must match exactly.  Error sums and scores are
compared within a relative ``REL_TOL``, because the order in which rows are
summed is the program's choice.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance for error sums and scores (row summation order).
REL_TOL = 1e-9

#: Columns per Gram block: bounds the block products' memory.
BLOCK_COLUMNS = 1024


def eq1_score(sizes, errors, num_rows: int, total_error: float, alpha: float):
    """Equation 1: ``alpha*(se/|S| / e_bar - 1) - (1-alpha)*(n/|S| - 1)``."""
    sizes = np.asarray(sizes, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    avg_error = total_error / num_rows
    with np.errstate(divide="ignore", invalid="ignore"):
        sc = alpha * ((errors / sizes) / avg_error - 1.0) - (1.0 - alpha) * (
            num_rows / sizes - 1.0
        )
    return np.where(sizes > 0, sc, -np.inf)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _above(score: float, threshold: float) -> bool:
    """``score`` beats ``threshold`` by more than the tolerance."""
    return score > threshold + REL_TOL * max(abs(threshold), 1.0)


def _predicate_pairs(predicates) -> list[tuple[int, int]]:
    """``(feature, code)`` pairs of a mapping or of a sequence of pairs."""
    items = predicates.items() if hasattr(predicates, "items") else predicates
    return [(int(f), int(v)) for f, v in items]


def check_slices(x0, errors, slices, *, k: int, sigma: int, alpha: float,
                 max_level: int) -> list[str]:
    """Recompute each slice from row masks and check the result's shape.

    Returns a list of problems (empty when the result passes).
    """
    x0 = np.asarray(x0)
    errors = np.asarray(errors, dtype=np.float64)
    num_rows, num_features = x0.shape
    total_error = float(errors.sum())
    domains = x0.max(axis=0)
    problems: list[str] = []
    if len(slices) > k:
        problems.append(f"{len(slices)} slices returned, more than k={k}")
    previous = math.inf
    for rank, sl in enumerate(slices, start=1):
        tag = f"slice #{rank} {sl.predicates}"
        pairs = _predicate_pairs(sl.predicates)
        preds = dict(pairs)
        if len(preds) != len(pairs):
            problems.append(f"{tag}: more than one predicate on a feature")
        if not 1 <= len(preds) <= max_level:
            problems.append(f"{tag}: level {len(preds)} outside 1..{max_level}")
        mask = np.ones(num_rows, dtype=bool)
        for feature, value in preds.items():
            if not (0 <= feature < num_features and 1 <= value <= domains[feature]):
                problems.append(f"{tag}: predicate {feature}={value} outside the domain")
                mask[:] = False
                break
            mask &= x0[:, feature] == value
        size = int(mask.sum())
        error = float(errors[mask].sum()) if size else 0.0
        max_error = float(errors[mask].max()) if size else 0.0
        score = float(eq1_score([size], [error], num_rows, total_error, alpha)[0])
        if size != int(sl.size):
            problems.append(f"{tag}: size {sl.size}, recomputed {size}")
        if max_error != float(sl.max_error):
            problems.append(f"{tag}: max error {sl.max_error!r}, recomputed {max_error!r}")
        if not _close(float(sl.error), error):
            problems.append(f"{tag}: error {sl.error!r}, recomputed {error!r}")
        if not _close(float(sl.score), score):
            problems.append(f"{tag}: score {sl.score!r}, recomputed {score!r}")
        if size < sigma:
            problems.append(f"{tag}: size {size} below sigma={sigma}")
        if not float(sl.score) > 0:
            problems.append(f"{tag}: score {sl.score!r} not positive")
        if float(sl.score) > previous:
            problems.append(f"{tag}: score {sl.score!r} above the previous {previous!r}")
        previous = float(sl.score)
    return problems


class LevelTwoOracle:
    """Every level-1 and level-2 slice with ``|S| >= sigma`` and ``se > 0``.

    The filter does not depend on ``alpha``, so one oracle checks results
    for several ``alpha`` values over the same inputs.
    """

    def __init__(self, x0, errors, sigma: int, max_level: int = 2) -> None:
        x0 = np.asarray(x0)
        errors = np.asarray(errors, dtype=np.float64)
        self.num_rows, num_features = x0.shape
        self.total_error = float(errors.sum())
        domains = x0.max(axis=0).astype(np.int64)
        offsets = np.concatenate([[0], np.cumsum(domains)])
        width = int(offsets[-1])
        #: one-hot column -> (feature, code)
        self.col_feature = np.repeat(np.arange(num_features), domains)
        self.col_value = np.arange(width) - offsets[self.col_feature] + 1
        onehot = np.zeros((self.num_rows, width), dtype=np.float64)
        for feature in range(num_features):
            codes = x0[:, feature].astype(np.int64)
            present = codes > 0
            onehot[np.flatnonzero(present), offsets[feature] + codes[present] - 1] = 1.0
        weighted = onehot * errors[:, None]

        sizes = onehot.sum(axis=0)
        errs = weighted.sum(axis=0)
        keep = (sizes >= sigma) & (errs > 0)
        first = [np.flatnonzero(keep)]
        second = [np.full(int(keep.sum()), -1, dtype=np.int64)]
        out_sizes = [sizes[keep]]
        out_errs = [errs[keep]]
        if max_level >= 2:
            for start in range(0, width, BLOCK_COLUMNS):
                stop = min(start + BLOCK_COLUMNS, width)
                # Upper triangle only: rows of the block against columns >= start.
                block_sizes = onehot[:, start:stop].T @ onehot[:, start:]
                block_errs = weighted[:, start:stop].T @ onehot[:, start:]
                rows = np.arange(start, stop)[:, None]
                cols = np.arange(start, width)[None, :]
                valid = (
                    (cols > rows)
                    & (self.col_feature[rows] != self.col_feature[cols])
                    & (block_sizes >= sigma)
                    & (block_errs > 0)
                )
                r, c = np.nonzero(valid)
                first.append(r + start)
                second.append(c + start)
                out_sizes.append(block_sizes[r, c])
                out_errs.append(block_errs[r, c])
        self.first = np.concatenate(first)
        self.second = np.concatenate(second)
        self.sizes = np.concatenate(out_sizes)
        self.errors = np.concatenate(out_errs)
        self._column = {
            (int(f), int(v)): j
            for j, (f, v) in enumerate(zip(self.col_feature, self.col_value))
        }

    def __len__(self) -> int:
        return int(self.sizes.size)

    def key_of(self, predicates) -> tuple[int, int] | None:
        """The oracle's ``(first, second)`` column key of a level-1/2 slice."""
        cols = sorted(self._column.get(pair, -2)
                      for pair in _predicate_pairs(predicates))
        if len(cols) == 1:
            return (cols[0], -1)
        if len(cols) == 2:
            return (cols[0], cols[1])
        return None

    def scores(self, alpha: float) -> np.ndarray:
        return eq1_score(self.sizes, self.errors, self.num_rows,
                         self.total_error, alpha)

    def check(self, slices, *, k: int, alpha: float) -> list[str]:
        """No valid level-1/2 slice outside *slices* beats the result.

        An outside slice may not score above the K-th score, which is at
        most the lowest level-1/2 score in the result, so the result's
        level-1/2 slices are also the best of those levels.  When fewer
        than ``k`` slices came back, no valid level-1/2 slice may be
        missing at all.
        """
        scores = self.scores(alpha)
        valid = scores > 0
        in_result = np.zeros(scores.size, dtype=bool)
        problems: list[str] = []
        for sl in slices:
            key = self.key_of(sl.predicates)
            if key is None:
                continue
            hit = np.flatnonzero((self.first == key[0]) & (self.second == key[1]))
            if hit.size == 0 or not valid[hit[0]]:
                problems.append(
                    f"{dict(sl.predicates)}: not a valid slice of its level"
                )
                continue
            in_result[hit[0]] = True
        outside = np.flatnonzero(valid & ~in_result)
        if outside.size == 0:
            return problems
        if len(slices) < k:
            threshold = 0.0
        else:
            threshold = min(float(sl.score) for sl in slices)
        where = int(outside[np.argmax(scores[outside])])
        if _above(float(scores[where]), threshold):
            problems.append(
                f"valid slice {self.describe(where)} with score "
                f"{float(scores[where])!r} is missing (result threshold "
                f"{threshold!r})"
            )
        return problems

    def describe(self, index: int) -> dict[int, int]:
        """The predicates of oracle entry *index*."""
        cols = [int(self.first[index])]
        if self.second[index] >= 0:
            cols.append(int(self.second[index]))
        return {int(self.col_feature[c]): int(self.col_value[c]) for c in cols}


def check_result(x0, errors, slices, *, k: int, sigma: int, alpha: float,
                 max_level: int, oracle: LevelTwoOracle | None = None) -> list[str]:
    """All checks on one result; builds the level-1/2 oracle when not given."""
    problems = check_slices(x0, errors, slices, k=k, sigma=sigma, alpha=alpha,
                            max_level=max_level)
    if oracle is None:
        oracle = LevelTwoOracle(x0, errors, sigma, min(max_level, 2))
    problems += oracle.check(slices, k=k, alpha=alpha)
    return problems
