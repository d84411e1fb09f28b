"""Pair file round trips and rejection of malformed input."""

import json
from fractions import Fraction

import pytest

from projpair.errors import NotIdempotent, PairFileError
from projpair.generators import gen_pair_oblique_rational, gen_pair_orthogonal
from projpair.linalg import Matrix
from projpair.pairfile import dumps_pair, load_pair, loads_pair, save_pair
from projpair.pairs import make_pair
from projpair.scalars import RATIONAL

GOOD = json.dumps(
    {
        "dim": 2,
        "field": "rational",
        "P": [["1", "0"], ["0", "0"]],
        "Q": [["1", "1/2"], ["0", "0"]],
    }
)


# Files whose rejection once escaped as a traceback: an integer too wide
# for a float, nesting too deep, and an entry whose square overflows.
MALFORMED = {
    "wide": '{"dim": 1, "field": "float", "P": [[' + "9" * 401 + ']], "Q": [[0.0]]}',
    "deep": "[" * 100000,
    "square": '{"dim": 1, "field": "float", "P": [[1e308]], "Q": [[0.0]]}',
}


def corrupt(**overrides):
    doc = json.loads(GOOD)
    doc.update(overrides)
    return json.dumps(doc)


class TestRoundTrip:
    def test_rational_exact(self):
        for seed in (1, 2, 3):
            pair = gen_pair_oblique_rational(4, 2, 2, seed=seed)
            again = loads_pair(dumps_pair(pair))
            assert again.P == pair.P and again.Q == pair.Q
            assert again.field == pair.field and again.dim == pair.dim

    def test_float_exact_bits(self):
        pair = gen_pair_orthogonal(5, 2, 3, seed=12)
        again = loads_pair(dumps_pair(pair))
        # repr-based JSON floats round-trip to identical bits
        assert again.P == pair.P and again.Q == pair.Q

    def test_file_round_trip(self, tmp_path):
        pair = gen_pair_oblique_rational(3, 1, 2, seed=7)
        path = tmp_path / "pair.json"
        save_pair(path, pair)
        assert load_pair(path).P == pair.P

    def test_serialization_is_canonical(self):
        p = Matrix([[Fraction(2, 2), 0], [0, 0]], RATIONAL)
        q = Matrix([[Fraction(1), Fraction(-2, 4)], [0, 0]], RATIONAL)
        text = dumps_pair(make_pair(p, q))
        assert '"1"' in text and '"-1/2"' in text
        assert "/1" not in text
        assert text.endswith("\n")

    def test_byte_determinism(self):
        pair = gen_pair_oblique_rational(4, 3, 1, seed=20)
        assert dumps_pair(pair) == dumps_pair(pair)

    def test_example_document_loads(self):
        pair = loads_pair(GOOD)
        assert pair.dim == 2
        assert pair.Q.entry(0, 1) == Fraction(1, 2)


class TestRejections:
    def test_not_json(self):
        with pytest.raises(PairFileError, match="not valid JSON"):
            loads_pair("{dim: 2")

    def test_top_level_not_object(self):
        with pytest.raises(PairFileError, match="object"):
            loads_pair("[1, 2]")

    def test_missing_and_extra_keys(self):
        doc = json.loads(GOOD)
        del doc["Q"]
        doc["extra"] = 1
        with pytest.raises(PairFileError, match=r"missing keys \['Q'\]; unexpected keys \['extra'\]"):
            loads_pair(json.dumps(doc))

    @pytest.mark.parametrize("dim", [0, -1, "2", 2.0, True])
    def test_bad_dim(self, dim):
        with pytest.raises(PairFileError, match='"dim"'):
            loads_pair(corrupt(dim=dim))

    def test_bad_field(self):
        with pytest.raises(PairFileError, match='"field"'):
            loads_pair(corrupt(field="complex"))

    def test_wrong_row_count(self):
        with pytest.raises(PairFileError, match='"P" must be a list of 2 rows'):
            loads_pair(corrupt(P=[["1", "0"]]))

    def test_wrong_entry_count(self):
        with pytest.raises(PairFileError, match='"Q" row 1'):
            loads_pair(corrupt(Q=[["1", "0"], ["0"]]))

    def test_float_entry_in_rational_field(self):
        with pytest.raises(PairFileError, match=r"P\[0\]\[0\]"):
            loads_pair(corrupt(P=[[1.0, "0"], ["0", "0"]]))

    def test_bool_entry_rejected(self):
        with pytest.raises(PairFileError):
            loads_pair(corrupt(P=[[True, "0"], ["0", "0"]]))

    def test_string_entry_in_float_field(self):
        bad = json.dumps(
            {"dim": 1, "field": "float", "P": [["1.0"]], "Q": [[0.0]]}
        )
        with pytest.raises(PairFileError, match="JSON numbers"):
            loads_pair(bad)

    def test_nonfinite_floats_rejected(self):
        # json.loads accepts these spellings; the pair format does not
        bad = '{"dim": 1, "field": "float", "P": [[NaN]], "Q": [[0.0]]}'
        with pytest.raises(PairFileError, match="non-finite"):
            loads_pair(bad)
        bad = '{"dim": 1, "field": "float", "P": [[Infinity]], "Q": [[0.0]]}'
        with pytest.raises(PairFileError, match="non-finite"):
            loads_pair(bad)

    def test_integer_beyond_float_range(self):
        with pytest.raises(PairFileError, match=r"P\[0\]\[0\]: entry beyond the float range"):
            loads_pair(MALFORMED["wide"])

    def test_nesting_too_deep(self):
        with pytest.raises(PairFileError, match="not valid JSON"):
            loads_pair(MALFORMED["deep"])

    def test_non_idempotent_content_fails_loudly(self):
        with pytest.raises(NotIdempotent):
            loads_pair(corrupt(P=[["1", "1"], ["1", "1"]]))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(PairFileError, match="cannot read"):
            load_pair(tmp_path / "nope.json")
