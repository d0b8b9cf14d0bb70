"""The package's public surface, pinned so that any change to it is made on
purpose."""

import importlib

import permfib

EXPORTS = [
    "CanonicalDecomposition", "Composition", "Dfa", "InvalidInputError", "NotInDomainError",
    "NotInLanguageError", "PermfibError", "Permutation", "ResourceLimitError",
    "SingularSeriesError", "StatReport", "Tiling", "TilingTriple", "TruncatedSeries",
    "avoids_forbidden_factors", "block_word", "block_word_dfa", "block_word_regex",
    "canonical_decomposition", "compile_ast", "composition_reverse", "core_dfa",
    "core_regex", "core_segments", "count_parses", "count_parts_gt1", "descent_composition",
    "enumerate_compositions", "enumerate_symmetric_group", "enumerate_tilings", "fib",
    "fibonacci_ogf", "forbidden_factors", "format_ast", "format_series", "from_coeffs",
    "ilpk_one_ogf", "ilpk_polynomial", "inverse", "ipk_polynomial",
    "is_avoiding_block_word", "is_block_word", "is_n_shaped", "is_tiling_mappable",
    "permutation_to_tiling_triple", "reverse", "split_block_word", "statistics",
    "t_substitution", "t_substitution_inverse", "tiling_to_word",
    "tiling_triple_to_permutation", "verify_ilpk_gf", "verify_ipk_gf",
    "word_to_permutation", "word_to_tiling", "zero_ipk_permutation",
]

#: Functions that nothing but their own tests read, the constructor aliases
#: of the regex node classes, and the per-n count dicts that the claims'
#: column builders replaced, by module: deleted, not moved.
REMOVED = {
    "claims": ["theorem1_counts", "theorem2_counts"],
    "permutations": [
        "standardize", "contains_consecutive", "avoids_consecutive", "is_alternating",
        "is_reverse_alternating", "monotone_pattern", "peaks", "left_peaks", "valleys",
        "right_valleys",
    ],
    "regex": ["match_ends", "lit", "star", "plus", "up_to"],
    "series": ["one_series", "variable"],
    "words": ["avoids_factor"],
}

#: Methods that nothing but their own tests read, by class: deleted.
REMOVED_METHODS = {
    permfib.TruncatedSeries: [
        "compose", "truncate", "zero_like", "coefficient", "invert", "__truediv__", "__pow__",
        "__neg__", "__sub__", "__rsub__", "one_like", "add_constant",
    ],
    permfib.Dfa: ["count_words"],
    permfib.Tiling: ["serialize", "from_text"],
}


def test_public_surface_is_pinned():
    assert sorted(permfib.__all__) == EXPORTS
    for module, names in REMOVED.items():
        namespace = vars(importlib.import_module(f"permfib.{module}"))
        assert [name for name in names if name in namespace] == [], module
    for cls, names in REMOVED_METHODS.items():
        assert [name for name in names if hasattr(cls, name)] == [], cls.__name__
