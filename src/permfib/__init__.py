"""Permutation statistics, block-word bijections, tilings, and exact series.

The package is organized around small immutable values (permutations,
compositions, words, tilings, truncated series) and pure functions between
them; everything is safe to share across threads.  The ``oracle`` module
re-derives each counting claim by exhaustive enumeration, and the ``cli``
module exposes the whole thing as the ``permfib`` command.
"""

from .bijections import (
    CanonicalDecomposition,
    TilingTriple,
    block_word,
    canonical_decomposition,
    is_n_shaped,
    is_tiling_mappable,
    permutation_to_tiling_triple,
    tiling_triple_to_permutation,
    word_to_permutation,
    zero_ipk_permutation,
)
from .compositions import (
    Composition,
    composition_reverse,
    count_parts_gt1,
    enumerate_compositions,
    fib,
)
from .errors import (
    InvalidInputError,
    NotInDomainError,
    NotInLanguageError,
    PermfibError,
    ResourceLimitError,
    SingularSeriesError,
)
from .permutations import (
    Permutation,
    StatReport,
    descent_composition,
    enumerate_symmetric_group,
    inverse,
    reverse,
    statistics,
)
from .regex import (
    Dfa,
    block_word_dfa,
    block_word_regex,
    compile_ast,
    core_dfa,
    core_regex,
    core_segments,
    count_parses,
    format_ast,
    split_block_word,
)
from .series import (
    TruncatedSeries,
    fibonacci_ogf,
    format_series,
    from_coeffs,
    ilpk_one_ogf,
    ilpk_polynomial,
    ipk_polynomial,
    t_substitution,
    t_substitution_inverse,
    verify_ilpk_gf,
    verify_ipk_gf,
)
from .tilings import Tiling, enumerate_tilings, tiling_to_word, word_to_tiling
from .words import (
    avoids_forbidden_factors,
    forbidden_factors,
    is_avoiding_block_word,
    is_block_word,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalDecomposition",
    "Composition",
    "Dfa",
    "InvalidInputError",
    "NotInDomainError",
    "NotInLanguageError",
    "PermfibError",
    "Permutation",
    "ResourceLimitError",
    "SingularSeriesError",
    "StatReport",
    "Tiling",
    "TilingTriple",
    "TruncatedSeries",
    "avoids_forbidden_factors",
    "block_word",
    "block_word_dfa",
    "block_word_regex",
    "canonical_decomposition",
    "compile_ast",
    "composition_reverse",
    "core_dfa",
    "core_regex",
    "core_segments",
    "count_parses",
    "count_parts_gt1",
    "descent_composition",
    "enumerate_compositions",
    "enumerate_symmetric_group",
    "enumerate_tilings",
    "fib",
    "fibonacci_ogf",
    "forbidden_factors",
    "format_ast",
    "format_series",
    "from_coeffs",
    "ilpk_one_ogf",
    "ilpk_polynomial",
    "inverse",
    "ipk_polynomial",
    "is_avoiding_block_word",
    "is_block_word",
    "is_n_shaped",
    "is_tiling_mappable",
    "permutation_to_tiling_triple",
    "reverse",
    "split_block_word",
    "statistics",
    "t_substitution",
    "t_substitution_inverse",
    "tiling_to_word",
    "tiling_triple_to_permutation",
    "verify_ilpk_gf",
    "verify_ipk_gf",
    "word_to_permutation",
    "word_to_tiling",
    "zero_ipk_permutation",
]
