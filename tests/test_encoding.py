"""Canonical codec: roundtrips, key-order independence, strict decode."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from computepool.encoding import EncodingError, decode, encode

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**12), max_value=10**12),
        st.integers(min_value=1, max_value=10**12),
    ),
)

values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.text(max_size=10), inner, max_size=6),
    ),
    max_leaves=20,
)


def canon(v):
    # decode() returns lists for both lists and tuples
    if isinstance(v, (list, tuple)):
        return [canon(x) for x in v]
    if isinstance(v, dict):
        return {k: canon(x) for k, x in v.items()}
    if isinstance(v, bytearray):
        return bytes(v)
    return v


def tagged(tag: bytes, raw: bytes) -> bytes:
    return tag + len(raw).to_bytes(4, "big") + raw


def counted(tag: bytes, parts: list[bytes]) -> bytes:
    return tag + len(parts).to_bytes(4, "big") + b"".join(parts)


@given(values)
@settings(max_examples=300, deadline=None)
def test_roundtrip(value):
    assert decode(encode(value)) == canon(value)


@given(values, values)
@settings(max_examples=300, deadline=None)
def test_distinct_values_encode_distinctly(a, b):
    if canon(a) != canon(b):
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


def test_fraction_roundtrip_normalized():
    assert decode(encode(Fraction(6, 4))) == Fraction(3, 2)
    assert decode(encode(Fraction(-7, 3))) == Fraction(-7, 3)


def test_tuple_encodes_like_list():
    assert encode((1, "x")) == encode([1, "x"])


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
    raw = encode("hello world")
    for cut in range(len(raw)):
        with pytest.raises(EncodingError):
            decode(raw[:cut])


def test_decode_rejects_unknown_tag():
    with pytest.raises(EncodingError):
        decode(b"Z\x00\x00\x00\x00")


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
        raw = b"M" + (2).to_bytes(4, "big") + tagged(b"S", first) + b"N" + tagged(b"S", second) + b"N"
        with pytest.raises(EncodingError, match="out of ascending order"):
            decode(raw)
    # fractions: not in lowest terms, zero with a denominator, non-positive
    # denominators, and parts that are not plain integers
    for num, den in ((2, 4), (0, 5), (1, -2), (-1, -2), (1, 0)):
        with pytest.raises(EncodingError, match="fraction"):
            decode(b"Q" + encode(num) + encode(den))
    for num, den in ((True, 2), ("1", 2), (1, 2.0)):
        with pytest.raises(EncodingError, match="fraction"):
            decode(b"Q" + encode(num) + encode(den))


def test_nan_payload_bits_survive_decode():
    for image in ("7ff8000000000123", "7ff0000000000001", "fff4000000000abc"):
        raw = b"D" + bytes.fromhex(image)
        assert encode(decode(raw)) == raw


def test_decode_rejects_nesting_past_the_stack():
    one_item_list = b"L" + (1).to_bytes(4, "big")
    with pytest.raises(EncodingError, match="recursion"):
        decode(one_item_list * 5000 + b"N")


# Encodings in the codec's grammar that also take every freedom the grammar
# leaves open: padded or signed integer text, map keys in any order or
# repeated, fraction parts of any kind and in any terms.
loose_scalars = st.one_of(
    st.sampled_from([b"N", b"T", b"F"]),
    st.from_regex(r"[+-]?[0 _]{0,2}[0-9]{1,3}", fullmatch=True).map(
        lambda text: tagged(b"I", text.encode())
    ),
    st.binary(min_size=8, max_size=8).map(lambda image: b"D" + image),
    st.text(max_size=4).map(lambda text: tagged(b"S", text.encode())),
    st.binary(max_size=4).map(lambda raw: tagged(b"B", raw)),
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)).map(
        lambda parts: b"Q" + encode(parts[0]) + encode(parts[1])
    ),
)
loose_encodings = st.recursive(
    loose_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda items: counted(b"L", items)),
        st.lists(st.tuples(st.sampled_from("abc"), inner), max_size=4).map(
            lambda pairs: counted(b"M", [tagged(b"S", k.encode()) + v for k, v in pairs])
        ),
        st.tuples(inner, inner).map(lambda parts: b"Q" + parts[0] + parts[1]),
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
