"""Stable Kronecker coefficients via Kronecker tableaux, with
character-theoretic and partition-algebra verification."""

from .partitions import (
    NotAPartition, Undefined, composition, is_copieri, in_bounds,
    is_maximal_depth, minmax, parse_partition, partial_sum, partition,
    partitions_of, skew_diff_sizes,
)
from .branching import (
    NotAPath, Tableau, dvir_removal_witness, enumerate_std,
    enumerate_std0, error_path, is_dvir, step_key, step_str,
    swap_adjacent,
)
from .lr import ShapeMismatch, classical_lr, ssyt_count
from .tableaux import (
    NotApplicable, SemistandardClass, class_flags, count_latticed,
    count_sstd, is_lattice, is_semistandard, mu_classes, reading_word,
    stable_kronecker,
)
from .oracle import (
    BudgetExceeded, StableResult, kronecker, mn_character,
    stable_kronecker_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
