"""Basis validation in flat passes gives the decisions and bits of its whole-stack forms.

`algebra.check_skew` reads each matrix as one flat row and the skew
residual on the upper triangle of the active components only (its
component tests open `check_unitary` too);
`triple._disjoint_rows` counts nonzeros instead of summing them per column,
and `triple._normalized_rows` divides without a masked copy when every row
is kept.  The oracles in tests/helpers.py keep the previous expressions.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from curvcert.algebra import (  # noqa: E402
    N_COMPONENTS,
    FieldTag,
    InvalidElement,
    check_skew,
    check_unitary,
    conj_transpose,
)
from curvcert.triple import _disjoint_rows, _normalized_rows  # noqa: E402

from helpers import (  # noqa: E402
    bit_equal,
    reference_check_components,
    reference_check_skew,
    reference_disjoint_rows,
    reference_normalized_rows,
)

# deterministic, and nothing written to disk between runs
PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-300, 1e300]


def outcome(check, field, comp):
    """None when the check passes, else the type and message of what it raised."""
    try:
        check(field, comp)
    except InvalidElement as exc:
        return type(exc), str(exc)
    return None


def at_the_tolerance(comp, m, i, j, c, ulps, sign):
    """Make |X_ij + conj(X_ji)|_c of matrix m the float `ulps` steps from 1e-9 * its scale, with X_ji = 0."""
    comp[m][i, j, c] = comp[m][j, i, c] = 0.0
    tol = 1e-9 * max(1.0, float(np.abs(comp[m]).max()))
    target = tol
    for _ in range(abs(ulps)):
        target = np.nextafter(target, math.copysign(math.inf, ulps))
    # on the diagonal, the real part's residual is 2 X_ii, exactly
    comp[m][i, j, c] = sign * (target / 2 if i == j else target)


def laid_out(comp, layout):
    """The same values as a contiguous array, a Fortran-ordered one, a strided view or a reversed view."""
    if layout == "fortran":
        return np.asfortranarray(comp)
    if layout == "strided":
        wide = np.full(comp.shape[:-1] + (8,), 7.0)
        wide[..., ::2] = comp
        return wide[..., ::2]
    if layout == "reversed":
        return np.ascontiguousarray(comp[::-1])[::-1]
    return comp


@st.composite
def stacks(draw):
    """A field and a stack (r, n, n, 4) or a matrix (n, n, 4), n = 1..6: exactly skew, then edited."""
    field = draw(st.sampled_from(list(FieldTag)))
    nc = N_COMPONENTS[field]
    n = draw(st.integers(1, 6))
    r = draw(st.none() | st.integers(0, 4))
    shape = (n, n, 4) if r is None else (r, n, n, 4)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.standard_normal(shape) * draw(st.sampled_from([1e-6, 1.0, 1e6]))
    raw[..., nc:] = 0.0
    # (X - X^*) / 2 is skew bit for bit: its (i, j) and (j, i) entries are the same sums
    comp = (raw - conj_transpose(raw)) / 2
    mats = [comp] if r is None else list(comp)
    for _ in range(draw(st.integers(0, 3)) if mats else 0):
        m = draw(st.integers(0, len(mats) - 1))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edit = draw(st.sampled_from(["tolerance", "special", "inactive", "hermitian"]))
        if edit == "tolerance":  # a few ulps either side, above or below the diagonal
            at_the_tolerance(mats, m, i, j, 0 if i == j else draw(st.integers(0, nc - 1)),
                             draw(st.integers(-3, 3)), draw(st.sampled_from([1.0, -1.0])))
        elif edit == "special":  # NaN, inf or -0.0 in any component, active or not
            mats[m][i, j, draw(st.integers(0, 3))] = draw(st.sampled_from(SPECIAL))
        elif edit == "inactive" and nc < 4:
            mats[m][i, j, draw(st.integers(nc, 3))] = draw(st.sampled_from([5e-324, -1.0, 1e-12]))
        elif edit == "hermitian":
            mats[m][i, j, 0] += draw(st.sampled_from([1e-12, 1e-6, 1.0]))
    layout = draw(st.sampled_from(["contiguous", "fortran", "strided", "reversed"]))
    return field, laid_out(comp, layout)


class TestCheckSkew:
    @PROPERTY
    @given(case=stacks())
    def test_agrees_with_the_whole_stack_check(self, case):
        field, comp = case
        assert outcome(check_skew, field, comp) == outcome(reference_check_skew, field, comp)
        # check_unitary opens with the same component tests
        components = outcome(reference_check_components, field, comp)
        with np.errstate(all="ignore"):  # the products of huge or non-finite entries
            unitary = outcome(check_unitary, field, comp)
        assert unitary == components if components else \
            unitary in (None, (InvalidElement, "matrix is not unitary to 1e-10"))

    @pytest.mark.parametrize("field", list(FieldTag))
    @pytest.mark.parametrize("i, j", [(0, 0), (0, 2), (2, 0)], ids=["diagonal", "upper", "lower"])
    def test_the_tolerance_is_strict_at_every_entry(self, field, i, j):
        base = np.zeros((2, 3, 3, 4))
        base[1, 0, 1, 0], base[1, 1, 0, 0] = 5.0, -5.0  # matrix 1 has scale 5
        for m in range(2):
            for ulps, passes in ((0, True), (1, False), (-1, True)):
                comp = base.copy()
                at_the_tolerance(comp, m, i, j, 0, ulps, -1.0)
                want = None if passes else (InvalidElement, "matrix is not skew-Hermitian")
                assert outcome(check_skew, field, comp) == want, (m, ulps)
                assert outcome(reference_check_skew, field, comp) == want, (m, ulps)

    @pytest.mark.parametrize("shape", [(0, 3, 3, 4), (2, 0, 0, 4), (0, 0, 0, 4), (0, 0, 4)])
    def test_empty_stacks_pass(self, shape):
        for field in FieldTag:
            check_skew(field, np.zeros(shape))
            reference_check_skew(field, np.zeros(shape))

    def test_non_finite_is_named_before_the_other_defects(self):
        comp = np.zeros((2, 2, 2, 4))
        comp[0, 0, 1, 3] = 1.0  # an inactive component of a real matrix, and not skew
        comp[1, 1, 0, 2] = math.nan
        for check in (check_skew, reference_check_skew):
            assert outcome(check, FieldTag.REAL, comp) == (InvalidElement, "matrix has non-finite components")
            comp[1, 1, 0, 2] = 0.0
            assert outcome(check, FieldTag.REAL, comp) == \
                (InvalidElement, "real matrix has nonzero components beyond index 0")
            comp[1, 1, 0, 2] = math.nan


@st.composite
def row_sets(draw):
    """Rows (r, m) whose columns mostly hold one nonzero at most, some with two, with -0.0, NaN or inf."""
    r, m = draw(st.integers(0, 5)), draw(st.integers(1, 12))
    mat = np.zeros((r, m))
    values = st.sampled_from([1.0, -2.5, 3e-11, 1e-300, 5e-324, 1e200, 0.1])
    for col in range(m):
        if r and draw(st.booleans()):
            mat[draw(st.integers(0, r - 1)), col] = draw(values)
    for _ in range(draw(st.integers(0, 2)) if r else 0):
        mat[draw(st.integers(0, r - 1)), draw(st.integers(0, m - 1))] = \
            draw(st.sampled_from(SPECIAL[:4]) | values)
    if draw(st.booleans()):  # the same values, not contiguous
        wide = np.full((r, 2 * m), 9.0)
        wide[:, ::2] = mat
        mat = wide[:, ::2] if draw(st.booleans()) else np.asfortranarray(mat)
    return mat


class TestDisjointRows:
    @PROPERTY
    @given(mat=row_sets())
    def test_agrees_with_the_column_sums(self, mat):
        assert _disjoint_rows(mat) == reference_disjoint_rows(mat)

    @PROPERTY
    @given(mat=row_sets())
    def test_normalized_rows_have_the_masked_bits(self, mat):
        with np.errstate(all="ignore"):  # inf / inf and the like on the non-finite rows
            assert bit_equal(_normalized_rows(mat), reference_normalized_rows(mat))

    def test_two_nonzeros_in_a_column_are_not_disjoint(self):
        mat = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 3.0, 4.0]])
        assert not _disjoint_rows(mat) and not reference_disjoint_rows(mat)
        mat[1, 1] = 0.0
        assert _disjoint_rows(mat) and reference_disjoint_rows(mat)
        mat[1, 1] = -0.0
        assert not _disjoint_rows(mat) and not reference_disjoint_rows(mat)
