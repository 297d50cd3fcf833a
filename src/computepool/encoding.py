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

An `Encoded` value is a piece that is already encoded: `encode` emits it as
it stands, so a caller can frame stored bytes into a larger value without
encoding them again.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from typing import Any


class EncodingError(ValueError):
    pass


class Encoded(bytes):
    """The canonical encoding of some value; `encode` emits it unchanged."""


def _u32(n: int) -> bytes:
    return struct.pack(">I", n)


def encode(value: Any) -> bytes:
    """Encode ``value`` to its canonical byte string."""
    if value is None:
        return b"N"
    # bool before int: bool is an int subclass
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    if isinstance(value, int):
        text = str(value).encode("ascii")
        return b"I" + _u32(len(text)) + text
    if isinstance(value, float):
        return b"D" + struct.pack(">d", value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + _u32(len(raw)) + raw
    if isinstance(value, Encoded):
        return value
    if isinstance(value, (bytes, bytearray)):
        return b"B" + _u32(len(value)) + bytes(value)
    if isinstance(value, Fraction):
        return b"Q" + encode(value.numerator) + encode(value.denominator)
    if isinstance(value, (list, tuple)):
        parts = [encode(item) for item in value]
        return b"L" + _u32(len(parts)) + b"".join(parts)
    if isinstance(value, dict):
        keys = list(value.keys())
        if any(not isinstance(k, str) for k in keys):
            raise EncodingError("dict keys must be strings")
        out = [b"M", _u32(len(keys))]
        for k in sorted(keys):
            out.append(encode(k))
            out.append(encode(value[k]))
        return b"".join(out)
    raise EncodingError(f"cannot canonically encode {type(value).__name__}")


def decode(data: bytes) -> Any:
    """Decode one canonical value; rejects trailing bytes."""
    try:
        value, offset = _decode_at(data, 0)
    except EncodingError:
        raise
    except (ValueError, struct.error, RecursionError) as exc:
        # garbled digit runs, invalid utf-8, lists nested past the stack
        raise EncodingError(f"malformed encoding: {exc}") from exc
    if offset != len(data):
        raise EncodingError(f"trailing bytes after value at offset {offset}")
    return value


def _take(data: bytes, offset: int, n: int) -> bytes:
    if offset + n > len(data):
        raise EncodingError("truncated encoding")
    return data[offset : offset + n]


def _decode_at(data: bytes, offset: int) -> tuple[Any, int]:
    tag = _take(data, offset, 1)
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"I":
        (n,) = struct.unpack(">I", _take(data, offset, 4))
        text = _take(data, offset + 4, n).decode("ascii")
        value = int(text)
        if str(value) != text:
            raise EncodingError(f"non-canonical integer text {text!r}")
        return value, offset + 4 + n
    if tag == b"D":
        (v,) = struct.unpack(">d", _take(data, offset, 8))
        return v, offset + 8
    if tag == b"S":
        (n,) = struct.unpack(">I", _take(data, offset, 4))
        raw = _take(data, offset + 4, n)
        return raw.decode("utf-8"), offset + 4 + n
    if tag == b"B":
        (n,) = struct.unpack(">I", _take(data, offset, 4))
        return bytes(_take(data, offset + 4, n)), offset + 4 + n
    if tag == b"Q":
        num, offset = _decode_at(data, offset)
        den, offset = _decode_at(data, offset)
        if type(num) is not int or type(den) is not int or den <= 0 or math.gcd(num, den) != 1:
            raise EncodingError(f"fraction {num!r}/{den!r} is not in lowest terms")
        return Fraction(num, den), offset
    if tag == b"L":
        (n,) = struct.unpack(">I", _take(data, offset, 4))
        offset += 4
        items = []
        for _ in range(n):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return items, offset
    if tag == b"M":
        (n,) = struct.unpack(">I", _take(data, offset, 4))
        offset += 4
        out: dict[str, Any] = {}
        for _ in range(n):
            key, offset = _decode_at(data, offset)
            if not isinstance(key, str):
                raise EncodingError("dict key is not a string")
            if out and key <= next(reversed(out)):
                raise EncodingError(f"dict key {key!r} is out of ascending order")
            val, offset = _decode_at(data, offset)
            out[key] = val
        return out, offset
    raise EncodingError(f"unknown tag byte {tag!r} at offset {offset - 1}")
