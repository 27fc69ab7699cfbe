"""Property tests over random quantum scenarios (hypothesis, derandomized)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import check_report, fresh_copy, random_mixed_scenario

from bellri.qmodel import moments, random_scenario


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(2, 4), st.integers(2, 4)),
    mixed_rank=st.integers(0, 3),
)
def test_shared_moments_match_fresh_copy(seed, dims, mixed_rank):
    """mixed_rank 0 draws a pure state, 1..3 a density matrix of that rank."""
    rng = np.random.default_rng(seed)
    if mixed_rank == 0:
        sc = random_scenario(rng, dims=dims)
    else:
        sc = random_mixed_scenario(rng, dims, mixed_rank)
    report = check_report(sc)
    assert check_report(sc) == report
    assert check_report(fresh_copy(sc)) == report
    mom = moments(sc)
    assert mom.nu_a**2 + mom.eta_a**2 <= 1.0 + 1e-9
    assert mom.nu_b**2 + mom.eta_b**2 <= 1.0 + 1e-9
