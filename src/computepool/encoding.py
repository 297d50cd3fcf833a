"""Canonical binary encoding for ledger payloads.

Length-prefixed and field-ordered: every value encodes to exactly one byte
string and distinct values encode to distinct byte strings, so digests over
encodings are digests over values. Dict keys must be strings and are emitted
in sorted order; insertion order never leaks into the bytes.

Supported domain: None, bool, int, float, str, bytes, Fraction, and
lists/dicts thereof. Floats are encoded as their 8-byte IEEE-754 big-endian
image, so the encoding is byte-exact across platforms; NaN payload bits
survive a decode and re-encode on CPython's struct module.

`decode` accepts only canonical bytes: integer text as `str(int)` writes it,
map keys in strictly ascending order and fractions in lowest terms with a
positive denominator. So `encode(decode(b)) == b` for every `b` it accepts,
and a digest over a decoded value is a digest over the bytes that were read.
Every string it decodes, map keys included, is interned (`sys.intern`), so a
loaded ledger holds one object per distinct string however often it occurs;
an interned string that nothing references any more is freed.

`list_of` frames a list around items that are all already encoded, so a
caller can frame stored bytes into a larger value without encoding them
again.

`encode` looks up each value's exact type in one dispatch table. A value of
a subclass takes the encoder of the nearest base in its MRO that the table
holds. So an `IntEnum` encodes as its integer (while `bool` keeps its own
tags), a namedtuple as a list and a str subclass, also as a map key, as a
string. A type with no such base is rejected with `EncodingError`.
"""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction
from typing import Any, Callable


class EncodingError(ValueError):
    pass


_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


def encode(value: Any) -> bytes:
    """Encode ``value`` to its canonical byte string."""
    try:
        encoder = _ENCODERS[type(value)]
    except KeyError:
        encoder = _inherited_encoder(type(value))
    return encoder(value)


def list_of(parts: list[bytes]) -> bytes:
    """The encoding of a list, given the encodings of its items."""
    return b"L" + _U32.pack(len(parts)) + b"".join(parts)


def _int(value: int) -> bytes:
    text = b"%d" % value
    return b"I" + _U32.pack(len(text)) + text


def _str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return b"S" + _U32.pack(len(raw)) + raw


def _dict(value: dict) -> bytes:
    for key in value:
        if not isinstance(key, str):
            raise EncodingError("dict keys must be strings")
    out = [b"M", _U32.pack(len(value))]
    for key in sorted(value):
        out.append(_str(key))
        out.append(encode(value[key]))
    return b"".join(out)


def _bytes(value: bytes) -> bytes:
    return b"B" + _U32.pack(len(value)) + value


def _list(value: list) -> bytes:
    return list_of([encode(item) for item in value])


_ENCODERS: dict[type, Callable[[Any], bytes]] = {
    type(None): lambda value: b"N",
    bool: lambda value: b"T" if value else b"F",
    int: _int,
    float: lambda value: b"D" + _F64.pack(value),
    str: _str,
    bytes: _bytes,
    bytearray: _bytes,
    Fraction: lambda value: b"Q" + _int(value.numerator) + _int(value.denominator),
    list: _list,
    tuple: _list,
    dict: _dict,
}


def _inherited_encoder(cls: type) -> Callable[[Any], bytes]:
    for base in cls.__mro__[1:]:
        if base in _ENCODERS:
            return _ENCODERS[base]
    raise EncodingError(f"cannot canonically encode {cls.__name__}")


def decode(data: bytes) -> Any:
    """Decode one canonical value; rejects trailing bytes."""
    value, offset = decode_at(data, 0)
    if offset != len(data):
        raise EncodingError(f"trailing bytes after value at offset {offset}")
    return value


def decode_at(data: bytes, offset: int) -> tuple[Any, int]:
    """Decode the one canonical value that starts at `offset` of `data`.

    Returns the value and the offset just past its bytes, so a caller can walk
    a larger encoding field by field and keep the bytes of any field it read.
    """
    try:
        return _decode_at(data, offset)
    except EncodingError:
        raise
    except (ValueError, RecursionError) as exc:
        # garbled digit runs, invalid utf-8, lists nested past the stack
        raise EncodingError(f"malformed encoding: {exc}") from exc


_N, _T, _F, _I, _D, _S, _B, _Q, _L, _M = b"NTFIDSBQLM"
# Tags followed by a 4-byte length (S, B, I) or item count (L, M).
_SIZED = frozenset((_S, _I, _M, _L, _B))
_TRUNCATED = "truncated encoding"
_intern = sys.intern


def _decode_at(data: bytes, offset: int) -> tuple[Any, int]:
    # Reads in place: tags are compared as byte values and lengths unpacked
    # at their offset; only a value's own bytes are sliced out.
    size = len(data)
    if offset >= size:
        raise EncodingError(_TRUNCATED)
    tag = data[offset]
    offset += 1
    if tag in _SIZED:
        if offset + 4 > size:
            raise EncodingError(_TRUNCATED)
        (n,) = _U32.unpack_from(data, offset)
        offset += 4
        if tag == _M:
            out: dict[str, Any] = {}
            last = None
            for _ in range(n):
                # A key must be a string; reading it here saves a call per key.
                if offset >= size:
                    raise EncodingError(_TRUNCATED)
                if data[offset] != _S:
                    raise EncodingError("dict key is not a string")
                start = offset + 5
                if start > size:
                    raise EncodingError(_TRUNCATED)
                (n_key,) = _U32.unpack_from(data, offset + 1)
                offset = start + n_key
                if offset > size:
                    raise EncodingError(_TRUNCATED)
                key = _intern(data[start:offset].decode("utf-8"))
                if last is not None and key <= last:
                    raise EncodingError(f"dict key {key!r} is out of ascending order")
                out[key], offset = _decode_at(data, offset)
                last = key
            return out, offset
        if tag == _L:
            items = []
            for _ in range(n):
                item, offset = _decode_at(data, offset)
                items.append(item)
            return items, offset
        end = offset + n
        if end > size:
            raise EncodingError(_TRUNCATED)
        if tag == _S:
            return _intern(data[offset:end].decode("utf-8")), end
        if tag == _B:
            return bytes(data[offset:end]), end
        text = data[offset:end].decode("ascii")
        value = int(text)
        if str(value) != text:
            raise EncodingError(f"non-canonical integer text {text!r}")
        return value, end
    if tag == _N:
        return None, offset
    if tag == _T:
        return True, offset
    if tag == _F:
        return False, offset
    if tag == _D:
        if offset + 8 > size:
            raise EncodingError(_TRUNCATED)
        return _F64.unpack_from(data, offset)[0], offset + 8
    if tag == _Q:
        num, offset = _decode_at(data, offset)
        den, offset = _decode_at(data, offset)
        if type(num) is not int or type(den) is not int or den <= 0 or math.gcd(num, den) != 1:
            raise EncodingError(f"fraction {num!r}/{den!r} is not in lowest terms")
        return Fraction(num, den), offset
    raise EncodingError(f"unknown tag byte {bytes([tag])!r} at offset {offset - 1}")
