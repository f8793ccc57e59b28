"""Authenticated-encryption channel between the normal and the secure world.

Data crossing the TEE boundary "may need to be encrypted and decrypted"
(§VI).  This module provides a small authenticated stream cipher built from
the standard library's SHA-256 / HMAC primitives: a keystream is derived from
the session key and a per-message nonce, the payload is XOR-ed with it, and an
HMAC over nonce+ciphertext provides integrity.  It is *not* meant to be a
production cipher — it reproduces the data-path and the cost profile of one.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.tee.errors import SecureChannelError


@dataclass(frozen=True)
class EncryptedMessage:
    """An encrypted, authenticated payload."""

    nonce: bytes
    ciphertext: bytes
    mac: bytes

    @property
    def nbytes(self) -> int:
        return len(self.nonce) + len(self.ciphertext) + len(self.mac)


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        blocks.append(hashlib.sha256(key + nonce + counter.to_bytes(8, "little")).digest())
        counter += 1
    return b"".join(blocks)[:length]


class SecureChannel:
    """Symmetric authenticated channel with a shared session key."""

    def __init__(self, session_key: bytes, rng: np.random.Generator | None = None):
        if len(session_key) < 16:
            raise ValueError("session key must be at least 128 bits")
        self._key = bytes(session_key)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.messages_sent = 0
        self.bytes_sent = 0

    def encrypt(self, payload: bytes) -> EncryptedMessage:
        """Encrypt and authenticate ``payload``."""
        nonce = bytes(int(v) for v in self._rng.integers(0, 256, size=16))
        stream = _keystream(self._key, nonce, len(payload))
        ciphertext = bytes(a ^ b for a, b in zip(payload, stream))
        mac = hmac.new(self._key, nonce + ciphertext, hashlib.sha256).digest()
        self.messages_sent += 1
        self.bytes_sent += len(payload)
        return EncryptedMessage(nonce=nonce, ciphertext=ciphertext, mac=mac)

    def decrypt(self, message: EncryptedMessage) -> bytes:
        """Verify and decrypt a message, raising on tampering."""
        expected = hmac.new(self._key, message.nonce + message.ciphertext, hashlib.sha256).digest()
        if not hmac.compare_digest(expected, message.mac):
            raise SecureChannelError("message authentication failed")
        stream = _keystream(self._key, message.nonce, len(message.ciphertext))
        return bytes(a ^ b for a, b in zip(message.ciphertext, stream))

    # ------------------------------------------------------------------ #
    # Array helpers (model activations crossing the boundary)
    # ------------------------------------------------------------------ #
    def encrypt_array(self, array: np.ndarray) -> tuple[EncryptedMessage, tuple, np.dtype]:
        """Encrypt a NumPy array, returning the message plus shape/dtype metadata."""
        array = np.ascontiguousarray(array)
        return self.encrypt(array.tobytes()), array.shape, array.dtype

    def decrypt_array(self, message: EncryptedMessage, shape: tuple, dtype) -> np.ndarray:
        """Decrypt an array previously produced by :meth:`encrypt_array`.

        The ``shape``/``dtype`` metadata travels beside the message, outside
        the MAC, so it is checked before decryption: a non-numeric dtype, a
        malformed shape, or a byte count the shape and dtype do not account
        for raises :class:`SecureChannelError`.  Metadata that re-labels the
        payload with the same byte count (say float64 ``(3, 4, 4)`` as
        float32 ``(3, 4, 8)``) still decodes; only covering the metadata by
        the MAC would catch that.
        """
        try:
            dtype = np.dtype(dtype)
            shape = tuple(operator.index(dim) for dim in shape)
        except (TypeError, ValueError) as error:
            raise SecureChannelError(f"malformed array metadata: {error}") from error
        if not np.issubdtype(dtype, np.number):
            raise SecureChannelError(f"array dtype {dtype} is not numeric")
        nbytes = len(message.ciphertext)
        if any(dim < 0 for dim in shape) or math.prod(shape) * dtype.itemsize != nbytes:
            raise SecureChannelError(
                f"a {nbytes}-byte payload is not a {dtype} array of shape {shape}"
            )
        payload = self.decrypt(message)
        return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def establish_session(rng: np.random.Generator) -> tuple[SecureChannel, SecureChannel]:
    """Create the two endpoints of a secure session sharing one fresh key.

    In a real deployment the key would come from an attested key-exchange; the
    simulation simply derives it from the experiment RNG.
    """
    key = bytes(int(v) for v in rng.integers(0, 256, size=32))
    return SecureChannel(key, rng), SecureChannel(key, rng)
