"""Matrix codec: the array fast paths agree bit for bit with the per-entry forms."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qig import io
from qig.errors import SpecFileError


def decode_per_entry(obj) -> np.ndarray:
    """Entry-by-entry decoding, the reference for the fast path."""
    mat = np.array([[io.decode_entry(e) for e in row] for row in obj])
    if np.max(np.abs(mat.imag), initial=0.0) == 0.0:
        return mat.real.astype(complex)
    return mat


def encode_per_entry(mat) -> list:
    """Entry-by-entry encoding: float(x), or encode_complex(z) when any imaginary part is nonzero."""
    mat = np.atleast_2d(np.asarray(mat))
    if np.iscomplexobj(mat) and np.max(np.abs(mat.imag), initial=0.0) > 0.0:
        return [[io.encode_complex(z) for z in row] for row in mat]
    return [[float(x) for x in row] for row in mat.real]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
)
pairs = st.lists(numbers, min_size=2, max_size=2)


@st.composite
def json_matrices(draw):
    """Rows of bare numbers, of [re, im] pairs, or of both mixed."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = draw(st.sampled_from([numbers, pairs, st.one_of(numbers, pairs)]))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=150, deadline=None)
@given(json_matrices())
def test_decode_matches_per_entry(obj):
    try:
        want = decode_per_entry(obj)
    except SpecFileError as exc:  # a JSON true/false is refused on both paths, by the same entry
        with pytest.raises(SpecFileError) as err:
            io.decode_matrix(obj)
        assert str(err.value) == str(exc)
    else:
        assert same_bits(io.decode_matrix(obj), want)


@pytest.mark.parametrize("obj, entry", [
    ([[0.5, False], [False, 0.5]], "False"),  # numpy reads the mix as floats
    ([[True, 0.0], [0.0, -1.0]], "True"),
    ([[True, False]], "True"),  # numpy reads this as a bool array
    ([[1, 0], [0, True]], "True"),  # and this as integers
    ([[[0.5, 0.0], [0.0, False]]], "[0.0, False]"),  # inside an [re, im] pair
    ([[1.0, [0.0, True]]], "[0.0, True]"),  # numbers mixed with pairs
])
def test_booleans_are_not_matrix_entries(obj, entry):
    with pytest.raises(SpecFileError, match=rf"^cannot decode matrix entry {re.escape(entry)}: expected number"):
        io.decode_matrix(obj)


def test_zero_and_one_entries_still_decode():
    assert same_bits(io.decode_matrix([[[1.0, 0.0], [0, 1]], [[0.0, -1.0], [1, 0]]]),
                     np.array([[1.0, 1j], [complex(0.0, -1.0), 1.0]]))


matrix_arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.complex128, np.float32, np.complex64, np.int64, np.bool_]),
    shape=hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
)


@settings(max_examples=150, deadline=None)
@given(matrix_arrays)
def test_encode_matches_per_entry(mat):
    assert json.dumps(io.encode_matrix(mat)) == json.dumps(encode_per_entry(mat))


@pytest.mark.parametrize("mat", [
    np.array([[0.0, -0.0], [1.5, -2.25]]),
    np.array([[1.0 + 0.0j, -0.0 - 0.0j]]),  # zero imaginary parts encode as bare numbers
    np.array([[1.0 + 2.0j, -0.0 - 0.0j]]),  # one nonzero: every entry becomes a pair
    np.array([1.0, 2.0]),  # 1-d input is one row
])
def test_encode_edge_cases(mat):
    assert json.dumps(io.encode_matrix(mat)) == json.dumps(encode_per_entry(mat))
    assert same_bits(io.decode_matrix(json.loads(json.dumps(io.encode_matrix(mat)))),
                     decode_per_entry(encode_per_entry(mat)))


@pytest.mark.parametrize("obj, exc, message", [
    ("x", SpecFileError, "cannot decode matrix: expected a list of rows, got str"),
    ([], SpecFileError, "cannot decode matrix: expected a list of rows, got list"),
    ([(1.0, 2.0)], SpecFileError, "cannot decode matrix: expected a list of rows, got list"),
    ([["x", 0.0], [0.0, 1.0]], SpecFileError,
     "cannot decode matrix entry 'x': expected number or [re, im]"),
    ([[None, 1.0]], SpecFileError, "cannot decode matrix entry None: expected number or [re, im]"),
    ([[[1.0, 2.0, 3.0]]], SpecFileError,
     "cannot decode matrix entry [1.0, 2.0, 3.0]: expected number or [re, im]"),
    ([[[[1.0, 2.0], [3.0, 4.0]]]], SpecFileError,
     "cannot decode matrix entry [[1.0, 2.0], [3.0, 4.0]]: expected number or [re, im]"),
    ([[1.0, [0.5, "y"]]], SpecFileError,
     "cannot decode matrix entry [0.5, 'y']: expected number or [re, im]"),
    ([[2**70, {}]], SpecFileError, "cannot decode matrix entry {}: expected number or [re, im]"),
    ([[1.0, 2.0], [3.0]], ValueError,
     "setting an array element with a sequence. The requested array has an inhomogeneous "
     "shape after 1 dimensions. The detected shape was (2,) + inhomogeneous part."),
    ([[10**400, 0.0]], SpecFileError,
     "cannot decode matrix entry 10000000000000000000...: beyond the float range"),
    ([[[0.5, -(10**400)]]], SpecFileError,
     "cannot decode matrix entry [0.5, -1000000000000...: beyond the float range"),
])
def test_malformed_matrix_errors(obj, exc, message):
    with pytest.raises(exc) as err:
        io.decode_matrix(obj)
    assert type(err.value) is exc and str(err.value) == message
