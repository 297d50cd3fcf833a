"""Canonical codec: roundtrips, key-order independence, strict decode."""

import math
import struct
from collections import namedtuple
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from computepool.encoding import EncodingError, decode, encode

# The wire types: bool, int, float, str, bytes, and lists and dicts of them.
scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.text(max_size=10), inner, max_size=6),
    ),
    max_leaves=20,
)


def tagged(tag: bytes, raw: bytes) -> bytes:
    return tag + len(raw).to_bytes(4, "big") + raw


def counted(tag: bytes, parts: list[bytes]) -> bytes:
    return tag + len(parts).to_bytes(4, "big") + b"".join(parts)


@given(values)
@settings(max_examples=300, deadline=None)
def test_roundtrip(value):
    assert decode(encode(value)) == value


@given(values, values)
@settings(max_examples=300, deadline=None)
def test_distinct_values_encode_distinctly(a, b):
    if a != b:
        assert encode(a) != encode(b)


def test_dict_key_order_never_leaks():
    assert encode({"b": 1, "a": 2}) == encode({"a": 2, "b": 1})
    assert decode(encode({"b": 1, "a": 2})) == {"a": 2, "b": 1}


def test_bool_is_not_int_on_the_wire():
    assert encode(True) != encode(1)
    assert encode(False) != encode(0)
    assert decode(encode(True)) is True


def test_float_is_byte_exact():
    for v in (0.0, -0.0, 1.5, math.inf, -math.inf, 2**-1074):
        raw = encode(v)
        assert len(raw) == 9
        out = decode(raw)
        assert out == v or (v == 0.0 and math.copysign(1, out) == math.copysign(1, v))
    # negative zero and positive zero are distinct byte strings
    assert encode(0.0) != encode(-0.0)


def test_encode_rejects_unsupported():
    with pytest.raises(EncodingError):
        encode({1: "int key"})
    with pytest.raises(EncodingError):
        encode(object())
    with pytest.raises(EncodingError):
        encode({"a": set()})


def test_decode_rejects_trailing_bytes():
    with pytest.raises(EncodingError, match="trailing"):
        decode(encode(1) + b"x")


def test_decode_rejects_truncation():
    for raw in (encode("hello world"), encode({"key": "value"}), encode(2.5)):
        for cut in range(len(raw)):
            with pytest.raises(EncodingError, match="truncated"):
                decode(raw[:cut])


def test_decode_rejects_unknown_tag():
    with pytest.raises(EncodingError):
        decode(b"Z\x00\x00\x00\x00")


# The null and fraction tags of older encodings, wherever they stand.
RETIRED_TAGS = {
    "null": b"N",
    "fraction": b"Q" + encode(3) + encode(2),
    "null in a list": counted(b"L", [encode(1), b"N"]),
    "fraction in a map": counted(b"M", [encode("amount") + b"Q" + encode(1) + encode(3)]),
}


@pytest.mark.parametrize("raw", RETIRED_TAGS.values(), ids=RETIRED_TAGS.keys())
def test_decode_rejects_the_retired_null_and_fraction_tags(raw):
    with pytest.raises(EncodingError, match="unknown tag byte b'[NQ]'"):
        decode(raw)


def test_decode_rejects_a_map_key_that_is_not_utf8_text():
    for key in (encode(1), encode(b"k"), b"Z", tagged(b"S", b"\xff")):
        with pytest.raises(EncodingError, match="not a string|malformed"):
            decode(counted(b"M", [key + b"T"]))


def test_decode_rejects_garbled_int():
    bad = b"I" + (4).to_bytes(4, "big") + b"12x4"
    with pytest.raises(EncodingError):
        decode(bad)


def test_decode_rejects_non_canonical_forms():
    for text in (b"01", b"+1", b"-0", b" 1", b"1_0", b"00"):
        with pytest.raises(EncodingError, match="non-canonical integer"):
            decode(tagged(b"I", text))
    # map keys out of order, or repeated
    for first, second in ((b"b", b"a"), (b"a", b"a")):
        raw = b"M" + (2).to_bytes(4, "big") + tagged(b"S", first) + b"T" + tagged(b"S", second) + b"T"
        with pytest.raises(EncodingError, match="out of ascending order"):
            decode(raw)


def test_nan_payload_bits_survive_decode():
    for image in ("7ff8000000000123", "7ff0000000000001", "fff4000000000abc"):
        raw = b"D" + bytes.fromhex(image)
        assert encode(decode(raw)) == raw


def test_decode_rejects_nesting_past_the_stack():
    one_item_list = b"L" + (1).to_bytes(4, "big")
    with pytest.raises(EncodingError, match="recursion"):
        decode(one_item_list * 5000 + b"T")


# Encodings in the codec's grammar that also take every freedom the grammar
# leaves open: padded or signed integer text, map keys in any order or
# repeated.
loose_scalars = st.one_of(
    st.sampled_from([b"T", b"F"]),
    st.from_regex(r"[+-]?[0 _]{0,2}[0-9]{1,3}", fullmatch=True).map(
        lambda text: tagged(b"I", text.encode())
    ),
    st.binary(min_size=8, max_size=8).map(lambda image: b"D" + image),
    st.text(max_size=4).map(lambda text: tagged(b"S", text.encode())),
    st.binary(max_size=4).map(lambda raw: tagged(b"B", raw)),
)
loose_encodings = st.recursive(
    loose_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda items: counted(b"L", items)),
        st.lists(st.tuples(st.sampled_from("abc"), inner), max_size=4).map(
            lambda pairs: counted(b"M", [tagged(b"S", k.encode()) + v for k, v in pairs])
        ),
    ),
    max_leaves=10,
)
# Byte edits of valid encodings: any byte, or one likely to form a tag, a digit or a
# short length prefix.
edit_bytes = st.one_of(
    st.integers(min_value=0, max_value=255),
    st.sampled_from(b"0123456789+-_ INTFDSBQLM\x00\x01\x02"),
)
edits = st.lists(
    st.tuples(st.integers(min_value=0), st.sampled_from(["set", "insert", "delete"]), edit_bytes),
    min_size=1,
    max_size=3,
)


def decode_raises_or_round_trips(raw: bytes) -> None:
    try:
        decoded = decode(raw)
    except EncodingError:
        return
    assert encode(decoded) == raw


@given(loose_encodings)
@settings(max_examples=400, deadline=None)
def test_decode_accepts_only_bytes_it_would_write(raw):
    decode_raises_or_round_trips(raw)


@given(values, edits)
@settings(max_examples=300, deadline=None)
def test_edited_encodings_fail_or_round_trip(value, changes):
    raw = bytearray(encode(value))
    for position, op, byte in changes:
        at = position % (len(raw) + 1)
        if op == "insert":
            raw.insert(at, byte)
        elif at < len(raw):
            if op == "set":
                raw[at] = byte
            else:
                del raw[at]
    decode_raises_or_round_trips(bytes(raw))


# -- encode against the format spec, written out plainly ----------------------


def reference_encode(value) -> bytes:
    """The wire format, one branch per tag; any other type, a subclass of a
    wire type included, is refused."""
    kind = type(value)
    if kind is bool:
        return b"T" if value else b"F"
    if kind is int:
        return tagged(b"I", str(value).encode("ascii"))
    if kind is float:
        return b"D" + struct.pack(">d", value)
    if kind is str:
        return tagged(b"S", value.encode("utf-8"))
    if kind is bytes:
        return tagged(b"B", value)
    if kind is list:
        return counted(b"L", [reference_encode(item) for item in value])
    if kind is dict:
        if not all(type(key) is str for key in value):
            raise EncodingError("dict keys must be strings")
        return counted(b"M", [reference_encode(k) + reference_encode(value[k]) for k in sorted(value)])
    raise EncodingError(f"cannot encode {kind.__name__}")


class Colour(IntEnum):
    RED = 1
    BLUE = -7


class Label(str):
    pass


Pair = namedtuple("Pair", "left right")

# Values of no wire type: the types older encodings took, and subclasses.
FOREIGN = {
    "none": None,
    "fraction": Fraction(3, 2),
    "tuple": (1, "x"),
    "bytearray": bytearray(b"x"),
    "intenum": Colour.RED,
    "namedtuple": Pair(1, "x"),
    "str subclass": Label("x"),
    "str subclass key": {Label("k"): 1},
    "nested none": {"a": [1, None]},
    "nested tuple": [{"a": (1,)}],
}


@pytest.mark.parametrize("value", FOREIGN.values(), ids=FOREIGN.keys())
def test_encode_rejects_values_outside_the_wire_types(value):
    with pytest.raises(EncodingError):
        encode(value)


wire_scalars = st.one_of(scalars, st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf]))
foreign_scalars = st.one_of(
    st.none(),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.sampled_from(Colour),
    st.text(max_size=10).map(Label),
    st.binary(max_size=10).map(bytearray),
)
# Values no encoder may accept, placed anywhere in a nested value.
unencodable = st.one_of(
    st.sets(st.integers(), max_size=2),
    st.builds(object),
    st.dictionaries(st.integers(), st.booleans(), min_size=1, max_size=2),
)
wide_keys = st.one_of(st.text(max_size=5), st.text(max_size=5).map(Label))

wire_values = st.recursive(
    wire_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(max_size=5), inner, max_size=5),
    ),
    max_leaves=20,
)
any_values = st.recursive(
    st.one_of(wire_scalars, foreign_scalars, unencodable),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.builds(Pair, inner, inner),
        st.dictionaries(wide_keys, inner, max_size=5),
    ),
    max_leaves=20,
)


def outcome(encoder, value):
    try:
        return encoder(value)
    except EncodingError:
        return EncodingError


@given(wire_values)
@settings(max_examples=300, deadline=None)
def test_encode_matches_the_reference_encoder(value):
    assert encode(value) == reference_encode(value)


@given(any_values)
@settings(max_examples=200, deadline=None)
def test_encode_rejects_what_the_reference_rejects(value):
    assert outcome(encode, value) == outcome(reference_encode, value)
