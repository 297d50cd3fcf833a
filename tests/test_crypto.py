"""Digest and signature primitives."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat
from hypothesis import given, settings
from hypothesis import strategies as st

from computepool.crypto import (
    DIGEST_SIZE,
    ZERO_DIGEST,
    Signer,
    derive_signer,
    digest,
    verify,
)


def test_digest_shape():
    assert len(digest(b"")) == DIGEST_SIZE
    assert len(ZERO_DIGEST) == DIGEST_SIZE
    assert digest(b"a") != digest(b"b")
    assert digest(b"a") == digest(b"a")


def test_derive_signer_is_deterministic():
    a = derive_signer("42", "node-1")
    b = derive_signer("42", "node-1")
    c = derive_signer("43", "node-1")
    assert a.verify_key == b.verify_key
    assert a.verify_key != c.verify_key
    assert a.sign(b"msg") == b.sign(b"msg")


def test_label_boundaries_do_not_collide():
    # ("ab", "c") and ("a", "bc") must derive different keys
    assert derive_signer("ab", "c").verify_key != derive_signer("a", "bc").verify_key


def test_sign_verify_roundtrip():
    s = derive_signer("seed", "w")
    sig = s.sign(b"payload")
    assert verify(s.verify_key, b"payload", sig)
    assert not verify(s.verify_key, b"payload!", sig)
    assert not verify(s.verify_key, b"payload", sig[:-1] + bytes([sig[-1] ^ 1]))
    other = derive_signer("seed", "x")
    assert not verify(other.verify_key, b"payload", sig)


def test_verify_rejects_garbage_key_without_raising():
    s = derive_signer("seed", "w")
    sig = s.sign(b"p")
    assert verify(b"\x00" * 32, b"p", sig) is False
    assert verify(b"short", b"p", sig) is False


@pytest.mark.parametrize("seed", [bytes(32), b"\xff" * 32, bytes(range(32)), digest(b"k")])
def test_verify_key_is_the_raw_ed25519_public_key(seed):
    public = Ed25519PrivateKey.from_private_bytes(seed).public_key()
    assert Signer(seed).verify_key == public.public_bytes(Encoding.Raw, PublicFormat.Raw)


def test_the_package_loads_no_key_serialization_modules():
    # cryptography's serialization package pulls in the RSA, DSA, EC, SSH and
    # cipher modules; the package only signs and verifies Ed25519.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, computepool.cli; "
             "print('cryptography.hazmat.primitives.serialization' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_signer_rejects_bad_seed_length():
    with pytest.raises(ValueError):
        Signer(b"too short")


@given(st.binary(max_size=200))
@settings(max_examples=50, deadline=None)
def test_any_payload_roundtrips(payload):
    s = derive_signer("prop", "node")
    assert verify(s.verify_key, payload, s.sign(payload))
