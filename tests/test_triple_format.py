"""Property tests of the curvcert-triple/1 file format: its layout, its round trips, its malformed documents."""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from curvcert.algebra import AlgElement, FieldTag  # noqa: E402
from curvcert.catalog import m_kl, t1_sphere  # noqa: E402
from curvcert.cli import main  # noqa: E402
from curvcert.triple import (  # noqa: E402
    load_triple,
    randomly_rebased,
    save_triple,
    triple_to_dict,
    triple_to_json,
)

from helpers import bit_equal  # noqa: E402
from test_triple import FAMILIES, _unchecked_subspace  # noqa: E402

# deterministic, and nothing written to disk between runs
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# signed zeros, subnormals, the largest magnitudes, NaN, infinities, and
# decimals whose shortest repr is long or in exponent form
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, math.nan, math.inf, -math.inf,
           0.1 + 0.2, 1 / 3, 1e16, 1e-7]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats())
# quotes, backslashes, control characters, separators and non-ASCII, among any characters
LABELS = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t, :ü →\U0001d53d'),
                           st.characters()))


def rows(max_rows: int):
    """Row arrays of a real 3 x 3 basis (9 active components each), 0 to max_rows rows."""
    return hnp.arrays(np.float64, st.tuples(st.integers(0, max_rows), st.just(9)), elements=VALUES)


def skew(upper) -> AlgElement:
    """The real 3 x 3 skew matrix with the given entries above the diagonal."""
    comp = np.zeros((3, 3, 4))
    for (i, j), v in zip(((0, 1), (0, 2), (1, 2)), upper):
        comp[i, j, 0], comp[j, i, 0] = v, -v
    return AlgElement(FieldTag.REAL, 3, comp)


EXTREME_ROWS = np.array([[-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2, 1 / 3, 1e-7, 1e16],
                         [0.0] * 9,
                         [math.nan, math.inf, -math.inf, 0.0, 0.0, -0.0, 2.5, 0.0, 0.0]])


class TestLayout:
    @PROPERTY
    @given(g=rows(5), h=rows(3), k=rows(2), label=LABELS,
           base=st.none() | st.lists(VALUES.filter(math.isfinite), min_size=3, max_size=3))
    # an empty k, no base point, a label holding the encoder's own separator
    @example(g=EXTREME_ROWS, h=EXTREME_ROWS[:1, ::-1], k=np.zeros((0, 9)), label="x, y", base=None)
    @example(g=np.zeros((0, 9)), h=np.zeros((0, 9)), k=np.zeros((0, 9)), label="", base=[-0.0, 0.0, 1e308])
    def test_writer_matches_json_dumps(self, g, h, k, label, base):
        triple = dataclasses.replace(
            t1_sphere(2).triple, g_basis=_unchecked_subspace(g), h_basis=_unchecked_subspace(h),
            k_basis=_unchecked_subspace(k), label=label, base_point=None if base is None else skew(base),
        )
        assert triple_to_json(triple) == json.dumps(triple_to_dict(triple), indent=2)


@lru_cache(maxsize=None)
def catalog_triple(i: int):
    return FAMILIES[i]().triple


class TestRoundTrip:
    @PROPERTY
    @given(i=st.integers(0, len(FAMILIES) - 1), seed=st.none() | st.integers(0, 2**32 - 1))
    def test_save_load_is_bit_faithful(self, i, seed):
        original = catalog_triple(i)
        triple = original if seed is None else randomly_rebased(original, np.random.default_rng(seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "triple.json")
            save_triple(triple, path)
            with open(path) as fh:
                text = fh.read()
            loaded = load_triple(path)
        assert text == triple_to_json(loaded) + "\n"
        assert (loaded.field, loaded.n, loaded.label) == (triple.field, triple.n, triple.label)
        assert bit_equal(loaded.base_point.comp, triple.base_point.comp)
        for name in ("g_basis", "h_basis", "k_basis"):
            assert bit_equal(getattr(loaded, name).mat, getattr(triple, name).mat)
        # a file holds no m or p: loading derives them as the catalog did, whatever their basis
        for name in ("m_basis", "p_basis"):
            assert bit_equal(getattr(loaded, name).mat, getattr(original, name).mat)


# one document with an empty k, one with every basis filled
DOCUMENTS = [json.loads(triple_to_json(build().triple)) for build in (lambda: t1_sphere(2),
                                                                      lambda: m_kl(2, 1, 1))]


def wrong_width(data, doc):
    name = data.draw(st.sampled_from("ghk"), label="basis")
    width = len(doc["bases"]["g"][0])
    rows = doc["bases"][name] or [[0.0] * width]
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    rows[i] = (rows[i] * 2)[:data.draw(st.integers(0, 2 * width).filter(lambda w: w != width))]
    doc["bases"][name] = rows


def numbers_as_strings(data, doc):
    where = data.draw(st.sampled_from(["g", "h", "base_point", "n"]), label="where")
    if where == "n":
        doc["n"] = str(doc["n"])
        return
    values = doc["base_point"] if where == "base_point" else data.draw(
        st.sampled_from(doc["bases"][where]), label="row")
    j = data.draw(st.integers(0, len(values) - 1), label="column")
    values[j] = str(values[j])


def bases_not_an_object(data, doc):
    doc["bases"] = data.draw(st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
        st.lists(st.floats()), st.just(list(doc["bases"].values()))), label="bases")


def base_point_falsy(data, doc):
    doc["base_point"] = data.draw(st.sampled_from([0, False, [], ""]), label="base_point")


def label_not_a_string(data, doc):
    doc["label"] = data.draw(st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.lists(st.text()),
        st.dictionaries(st.text(), st.integers())), label="label")


def missing_key(data, doc):
    key = data.draw(st.sampled_from(["schema", "field", "n", "bases", "g", "h", "k"]), label="key")
    del (doc if key in doc else doc["bases"])[key]


class TestMalformedDocuments:
    @PROPERTY
    @given(data=st.data(), document=st.sampled_from(range(len(DOCUMENTS))),
           edit=st.sampled_from([wrong_width, numbers_as_strings, bases_not_an_object, base_point_falsy,
                                 label_not_a_string, missing_key]))
    def test_check_file_exits_3(self, data, document, edit):
        doc = json.loads(json.dumps(DOCUMENTS[document]))
        edit(data, doc)
        code, out, err = check_file(doc, "--method", "part3")
        assert (code, out) == (3, "")
        assert err.startswith("curvcert: error: ")

    @pytest.mark.parametrize("label", [5, ["a"], None, {"x": 1}], ids=repr)
    def test_label_that_is_not_a_string_is_named(self, label):
        # not echoed into the report's "triple" field
        doc = json.loads(json.dumps(DOCUMENTS[0]))
        doc["label"] = label
        code, out, err = check_file(doc, "--method", "part3")
        assert (code, out) == (3, "")
        assert err.startswith('curvcert: error: "label" ')

    def test_missing_label_is_empty(self):
        doc = json.loads(json.dumps(DOCUMENTS[0]))
        del doc["label"]
        code, out, err = check_file(doc, "--method", "part3")
        assert (code, err) == (0, "")
        assert json.loads(out)["triple"] == ""

    @pytest.mark.parametrize("method", [["part3"], ["fat", "--starts", "4"]], ids=["part3", "fat"])
    @pytest.mark.parametrize("base", [0, False, [], ""], ids=repr)
    def test_falsy_base_point_is_a_malformed_matrix(self, base, method):
        # not read as "no base point": part3 would then ask for one, and fat would run
        doc = json.loads(json.dumps(DOCUMENTS[0]))
        doc["base_point"] = base
        code, out, err = check_file(doc, "--method", *method)
        assert (code, out) == (3, "")
        assert err.startswith("curvcert: error: ")
        assert "a matrix must hold numbers only" in err or " scalars, got " in err


def check_file(doc: dict, *flags: str) -> tuple[int, str, str]:
    """`check --file` on the document written to a file: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "triple.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "--file", path, *flags])
    return code, out.getvalue(), err.getvalue()
