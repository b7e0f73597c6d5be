"""The Laurent table's file form, shared by coefficient and germ files."""

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from collardiff.cusps import germ_from_json
from collardiff.errors import (MODE_MAX, ValidationError, mode_table,
                               modes_from_json, modes_to_json)
from collardiff.laurent import coeffs_from_json

_READERS = {"n": coeffs_from_json, "k": germ_from_json}


def _entry(key, mode=1, **parts):
    return {key: mode, "re": 0.0, "im": 0.0, **parts}


# case id -> (file data for key, message substring for key)
_MALFORMED = {
    "not-a-list": (lambda k: _entry(k), lambda k: "must be a JSON array"),
    "not-an-object": (lambda k: [_entry(k), 1],
                      lambda k: f"entry 1 needs keys {k}/re/im"),
    "no-mode": (lambda k: [{"re": 0.0, "im": 0.0}],
                lambda k: f"entry 0 needs keys {k}/re/im"),
    "no-re": (lambda k: [{k: 1, "im": 0.0}],
              lambda k: f"entry 0 needs keys {k}/re/im"),
    "no-im": (lambda k: [{k: 1, "re": 0.0}],
              lambda k: f"entry 0 needs keys {k}/re/im"),
    "bool-mode": (lambda k: [_entry(k, True)],
                  lambda k: "entry 0: mode index True is not an integer"),
    "float-mode": (lambda k: [_entry(k, 1.0)],
                   lambda k: "entry 0: mode index 1.0 is not an integer"),
    "mode-past-bound": (lambda k: [_entry(k, MODE_MAX + 1)],
                        lambda k: f"entry 0: mode index beyond +-{MODE_MAX}"),
    "duplicate": (lambda k: [_entry(k), _entry(k, re=1.0)],
                  lambda k: f"entry 1: duplicate mode {k}=1"),
    "re-string": (lambda k: [_entry(k, re="x")],
                  lambda k: f"entry 0: bad coefficient for {k}=1"),
    "re-list": (lambda k: [_entry(k, re=[1])],
                lambda k: f"entry 0: bad coefficient for {k}=1"),
    "im-null": (lambda k: [_entry(k, im=None)],
                lambda k: f"entry 0: bad coefficient for {k}=1"),
    "im-object": (lambda k: [_entry(k, im={"a": 1})],
                  lambda k: f"entry 0: bad coefficient for {k}=1"),
    # numbers only: a numeric string or a bool is not read as one, and an
    # integer beyond the double range is an input error, not an overflow
    "re-numeric-string": (lambda k: [_entry(k, re="2.5")],
                          lambda k: f"entry 0: bad coefficient for {k}=1: "
                                    "'2.5' is not a number"),
    "im-true": (lambda k: [_entry(k, im=True)],
                lambda k: f"entry 0: bad coefficient for {k}=1: "
                          "True is not a number"),
    "im-false": (lambda k: [_entry(k, im=False)],
                 lambda k: f"entry 0: bad coefficient for {k}=1: "
                           "False is not a number"),
    "re-401-digits": (lambda k: [_entry(k, re=10 ** 400)],
                      lambda k: f"entry 0: bad coefficient for {k}=1: "
                                "an integer beyond the double range"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
@pytest.mark.parametrize("key", ["n", "k"])
def test_modes_from_json_rejects_malformed_files(key, case):
    data, message = (f(key) for f in _MALFORMED[case])
    # the collar and germ readers are this one reader
    for read in (lambda d: modes_from_json(d, key), _READERS[key]):
        with pytest.raises(ValidationError) as info:
            read(data)
        assert message in str(info.value)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, derandomize=True)
@given(table=st.dictionaries(st.integers(-64, 64),
                             st.builds(complex, _FINITE, _FINITE)),
       key=st.sampled_from(["n", "k"]))
def test_modes_to_json_round_trips_every_bit(table, key):
    text = json.dumps(modes_to_json(table, key))
    again = modes_from_json(json.loads(text), key)

    def bits(t):
        return {n: struct.pack("<dd", b.real, b.imag) for n, b in t.items()}

    assert bits(again) == bits(table)
    assert [e[key] for e in json.loads(text)] == sorted(table)


def test_mode_table_bound():
    # the bound itself is a mode, on either side; one past it is not
    assert mode_table({MODE_MAX: 1.0, -MODE_MAX: 2.0}) == {
        MODE_MAX: 1 + 0j, -MODE_MAX: 2 + 0j}
    for n in (MODE_MAX + 1, -MODE_MAX - 1):
        with pytest.raises(ValidationError, match="mode index beyond"):
            mode_table({n: 1.0})
