"""Configuration objects for the SliceLine algorithm.

Two configs exist: :class:`SliceLineConfig` covers the user-facing knobs of
Definition 2 and Algorithm 1 (``K``, ``sigma``, ``alpha``, ``ceil(L)``,
evaluation block size), and :class:`PruningConfig` toggles the individual
pruning techniques of Section 3.2 so the Figure 3 ablation is expressible
directly through the public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.exceptions import ConfigError

#: The paper's default minimum-support rule: ``sigma = max(32, n/100)``.
DEFAULT_MIN_SUPPORT_FLOOR = 32


@dataclass(frozen=True)
class PruningConfig:
    """Toggles for the pruning techniques of Section 3.2.

    ``deduplicate=False`` implies that candidates are not grouped by slice
    identity, which makes parent counting impossible — therefore
    ``handle_missing_parents`` is forced off in that configuration (the paper's
    "no pruning and no deduplication" ablation arm behaves the same way).
    """

    #: prune candidates whose upper-bound size is below ``sigma``
    by_size: bool = True
    #: prune candidates whose upper-bound score cannot beat 0 / the top-K min
    by_score: bool = True
    #: require all ``L`` parents to have survived (``np == L`` in Eq. 9)
    handle_missing_parents: bool = True
    #: merge duplicate candidates generated from different parent pairs
    deduplicate: bool = True
    #: drop parent slices violating ``ss >= sigma`` and ``se > 0`` before the
    #: pair join (the paper's step 1 of pair construction)
    filter_input_slices: bool = True

    def __post_init__(self) -> None:
        if self.handle_missing_parents and not self.deduplicate:
            raise ConfigError(
                "handle_missing_parents requires deduplicate=True: parent "
                "counts are defined per deduplicated candidate"
            )

    @classmethod
    def all_enabled(cls) -> "PruningConfig":
        return cls()

    @classmethod
    def none(cls) -> "PruningConfig":
        """No pruning and no deduplication (Figure 3 arm 5)."""
        return cls(
            by_size=False,
            by_score=False,
            handle_missing_parents=False,
            deduplicate=False,
            filter_input_slices=False,
        )

    @classmethod
    def ablation_arms(cls) -> dict[str, "PruningConfig"]:
        """The five configurations of the Figure 3 pruning ablation."""
        return {
            "all": cls(),
            "no-parents": cls(handle_missing_parents=False),
            "no-parents-no-score": cls(handle_missing_parents=False, by_score=False),
            "no-parents-no-score-no-size": cls(
                handle_missing_parents=False,
                by_score=False,
                by_size=False,
                filter_input_slices=False,
            ),
            "none": cls.none(),
        }


@dataclass(frozen=True)
class SliceLineConfig:
    """User-facing parameters of the score-based slice-finding problem.

    Parameters mirror Algorithm 1: ``k`` (top-K), ``sigma`` (minimum
    support; ``None`` selects the paper default ``max(32, ceil(n/100))``),
    ``alpha`` (error/size weight in ``(0, 1]``), ``max_level`` (the lattice
    level cap ``ceil(L)``; ``None`` means unbounded, i.e. up to ``m``), and
    ``block_size`` (the hybrid-evaluation block ``b`` of Section 4.4 —
    ``1`` is pure task-parallel, huge values are pure data-parallel; the
    paper's default is 16).
    """

    k: int = 4
    sigma: int | None = None
    alpha: float = 0.95
    max_level: int | None = None
    block_size: int = 16
    pruning: PruningConfig = field(default_factory=PruningConfig)
    #: per-level compaction of the evaluation data matrix: drop one-hot
    #: columns no emitted candidate references and rows that matched no
    #: slice of the previous level (size monotonicity makes both exact —
    #: results are bitwise identical; see :mod:`repro.core.compaction`).
    #: Off is the ablation arm that measures what compaction buys.
    compaction: bool = True
    #: evaluate candidates in descending upper-bound order, re-pruning the
    #: remainder against the rising top-K threshold between chunks (the
    #: paper's "priority-based enumeration" future-work idea; exactness is
    #: unaffected because only bound-dominated candidates are skipped)
    priority_evaluation: bool = True
    #: candidates evaluated between two re-pruning steps in priority mode
    priority_chunk: int = 8192
    #: evaluation-kernel backend (see :mod:`repro.linalg.kernels`):
    #: ``"auto"`` lets a per-level cost model pick between the sparse
    #: CSR x CSC path and the packed-bitset path; explicit names force one
    #: backend (subject to its preconditions — ``"bitset"`` falls back to
    #: sparse on non-0/1 data or when its table would exceed its cap).
    #: All choices are bitwise identical; this only changes kernel speed.
    kernel_backend: str = "auto"
    #: worker width of the parallel pair-candidate pipeline (see
    #: :func:`repro.core.pairs.choose_pair_plan`): ``0`` follows
    #: ``num_threads``, ``1`` forces serial execution, ``N > 1`` requests
    #: ``N`` workers for the join's chunk tasks (the per-level cost model
    #: may still run small levels serially).  Like ``kernel_backend`` this
    #: never affects results — candidates, counters, and the top-K are
    #: bitwise identical at every width — so it is excluded from the
    #: checkpoint fingerprint.
    pair_parallelism: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.sigma is not None and self.sigma < 1:
            raise ConfigError(f"sigma must be >= 1, got {self.sigma}")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.max_level is not None and self.max_level < 1:
            raise ConfigError(f"max_level must be >= 1, got {self.max_level}")
        if self.block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {self.block_size}")
        if self.priority_chunk < 1:
            raise ConfigError(
                f"priority_chunk must be >= 1, got {self.priority_chunk}"
            )
        if self.kernel_backend not in ("auto", "sparse", "bitset"):
            raise ConfigError(
                "kernel_backend must be one of 'auto', 'sparse', 'bitset', "
                f"got {self.kernel_backend!r}"
            )
        if self.pair_parallelism < 0:
            raise ConfigError(
                "pair_parallelism must be >= 0 (0 follows num_threads), "
                f"got {self.pair_parallelism}"
            )

    def resolve_sigma(self, num_rows: int) -> int:
        """Resolve the effective minimum support for a dataset of *num_rows*.

        The paper's default is ``sigma = max(32, n/100)``; experiments use
        ``ceil(n/100)`` which this reproduces for every evaluated dataset
        (all have ``n >= 3200`` after the Salaries replication).
        """
        if self.sigma is not None:
            return self.sigma
        return max(DEFAULT_MIN_SUPPORT_FLOOR, math.ceil(num_rows / 100))

    def resolve_max_level(self, num_features: int) -> int:
        """Effective lattice depth: ``min(m, ceil(L))``."""
        if self.max_level is None:
            return num_features
        return min(num_features, self.max_level)

    def with_overrides(self, **kwargs) -> "SliceLineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
