"""Digest and signature primitives.

Everything else in the package treats these as opaque: a 32-byte digest and a
deterministic detached signature scheme. The concrete algorithms (SHA-256,
Ed25519) are confined to this module so they can be swapped without touching
callers.
"""

from __future__ import annotations

import hashlib

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE


def digest(data: bytes) -> bytes:
    """Return the 32-byte digest of ``data``."""
    return hashlib.sha256(data).digest()


class Signer:
    """Holds a private signing key; produces detached signatures."""

    def __init__(self, seed: bytes):
        if len(seed) != 32:
            raise ValueError("signer seed must be exactly 32 bytes")
        self._key = Ed25519PrivateKey.from_private_bytes(seed)
        self.verify_key: bytes = self._key.public_key().public_bytes_raw()

    def sign(self, payload: bytes) -> bytes:
        return self._key.sign(payload)


def derive_signer(*labels: str) -> Signer:
    """Deterministically derive a signer from string labels.

    Replayability requires every key in a scenario to be a pure function of
    the scenario seed, so keys are grown from labeled digests rather than an
    OS entropy source.
    """
    return Signer(digest("\x1f".join(labels).encode("utf-8")))


def verify(verify_key: bytes, payload: bytes, signature: bytes) -> bool:
    """Check a detached signature; returns False rather than raising."""
    try:
        Ed25519PublicKey.from_public_bytes(verify_key).verify(signature, payload)
        return True
    except (InvalidSignature, ValueError):
        return False
