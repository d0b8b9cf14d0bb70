"""Parameter checks of the claim registry."""

import pytest

from permfib import claims


def test_pattern_lengths_no_named_claim_reads_are_rejected():
    with pytest.raises(claims.UsageError, match="--m is read only by"):
        claims.validate(("theorem2", "prop8"), n_max=5, k_max=8, ms=(4,))
    claims.validate(("theorem2", "theorem1"), n_max=5, ms=(4,))
    claims.validate(("theorem2",), n_max=5)
