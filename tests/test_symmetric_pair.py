"""Property test of the symmetric-pair check: on random block chains, skipping by entry supports gives the dense path's verdict."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import curvcert.triple as triple_module  # noqa: E402
from curvcert.algebra import FieldTag, block_stack, pair_bracket_coords  # noqa: E402
from curvcert.triple import is_symmetric_pair  # noqa: E402

from helpers import make_triple  # noqa: E402

# deterministic, and nothing written to disk between runs
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def block_chains(draw):
    """A chain h < g of generator stacks on random index sets, h closed or not.

    g is the sum of the subalgebras on disjoint index sets; h takes, on
    index sets inside g's, whole subalgebras or only some of their
    generators.
    """
    field = draw(st.sampled_from(list(FieldTag)), label="field")
    n = draw(st.integers(2, 5), label="n")
    slots = draw(st.permutations(range(n)), label="slots")
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)), label="cuts"))
    g_sets = [s for s in np.split(np.array(slots), cuts) if len(s)]
    g = np.concatenate([block_stack(field, n, s) for s in g_sets])
    h_parts = []
    for s in g_sets:
        inner = draw(st.lists(st.sampled_from(list(s)), unique=True), label="h slots")
        stack = block_stack(field, n, inner)
        keep = draw(st.lists(st.booleans(), min_size=len(stack), max_size=len(stack)), label="h rows")
        h_parts.append(stack[np.array(keep, dtype=bool)])
    h = np.concatenate(h_parts)
    return make_triple(g, h, [], field=field)


@PROPERTY
@given(triple=block_chains())
def test_skip_agrees_with_the_dense_path(triple):
    p, h = triple.p_basis.comps(), triple.h_basis.comps()
    for w in (p, h):
        if not triple_module._may_reach(p, w, w):  # the skipped target: every coordinate is zero
            assert not pair_bracket_coords(triple.field, p, w, w).any()
    got = is_symmetric_pair(triple)
    with mock.patch.object(triple_module, "_may_reach", lambda a, b, w: True):
        assert is_symmetric_pair(triple) == got
