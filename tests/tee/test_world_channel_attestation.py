"""Tests for world switching, the secure channel and attestation."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tee import (
    EncryptedMessage,
    SecureChannel,
    SecureChannelError,
    WorldBoundary,
    WorldSwitchCostModel,
    establish_session,
    measure_payload,
    produce_quote,
    verify_quote,
)
from repro.tee.secure_channel import _keystream

KAT_KEY = bytes(range(32))

#: SHA-256 of nonce ‖ ciphertext ‖ mac for ``_kat_message(size)``.  These
#: pin the wire format: a faster cipher implementation must reproduce them.
KAT_DIGESTS = {
    0: "1a02bc1afec06eb034ef4ddfbabf3e52eec4c86f36052291e7ee849a0883da50",
    1: "bd2d7ae78cbcb4802f06aca02b02039690f9ed50516a9cba7b4b41e965653c9f",
    31: "41c6409f7fd00fcbf1bb0695ebc13bcd9924a4645134c1a0ad192414eb2b7ec1",
    32: "066e40c2fe46d2f2ddb83d6a51a2840ce6dafca807e6a525306af9abac52a0a2",
    33: "1266569b857f095c36d4f727ddcb58ed59337122d15f22e78112892c00ae8e6e",
    1920: "2ba66912e93facaf6c79b6c078a00fbdc93ca66bbf53f1237860cb0cd15f5504",
    24576: "d94a861d21ff0dcaffb579678ed83e1674b805f9f283d0dd9faeaf00d35e60fd",
    65000: "be3f694ec56d197c8d4798f77320bdd9e4503a3e547798d40bc01b7e9a1d6afa",
}

#: Array metadata that does not describe a float32 (4, 5) payload.
FORGED_ARRAY_METADATA = [
    ((4, 6), "float32"),     # byte count too large for the payload
    ((4, 5), "float64"),     # same shape, wider dtype
    ((2, 5), "float32"),     # byte count too small
    ((-4, -5), "float32"),   # negative dims whose product fits
    ((4.0, 5), "float32"),   # non-integer dim
    (5, "float32"),          # not a shape at all
    ((4, 5), "no-such-dtype"),
    ((4, 5), "U1"),          # right byte count, non-numeric dtype
    ((80,), "bool"),         # right byte count, non-numeric dtype
    ((10,), "object"),
]


def _kat_message(size: int) -> EncryptedMessage:
    channel = SecureChannel(KAT_KEY, rng=np.random.default_rng(2023))
    return channel.encrypt(bytes((7 * i + 3) % 256 for i in range(size)))


def _byte_loop_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Slow oracle: the original block-at-a-time keystream loop."""
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        blocks.append(hashlib.sha256(key + nonce + counter.to_bytes(8, "little")).digest())
        counter += 1
    return b"".join(blocks)[:length]


class TestWorldBoundary:
    def test_switch_counting_and_direction(self):
        boundary = WorldBoundary()
        boundary.enter_secure_world(1000)
        assert boundary.in_secure_world
        boundary.exit_secure_world(500)
        assert not boundary.in_secure_world
        assert boundary.stats.switches == 2
        assert boundary.stats.bytes_in == 1000
        assert boundary.stats.bytes_out == 500

    def test_simulated_time_grows_with_payload(self):
        boundary = WorldBoundary()
        small = boundary.secure_call(1024, 1024)
        large = boundary.secure_call(10 * 1024 * 1024, 1024)
        assert large > small

    def test_cost_model_transfer_time_monotone(self):
        model = WorldSwitchCostModel()
        assert model.transfer_time_us(2 * 1024 * 1024) > model.transfer_time_us(1024)

    def test_reset(self):
        boundary = WorldBoundary()
        boundary.secure_call(100, 100)
        boundary.reset()
        assert boundary.stats.switches == 0
        assert boundary.stats.simulated_time_us == 0.0

    def test_switch_latency_dominates_for_tiny_payloads(self):
        model = WorldSwitchCostModel(switch_latency_us=100.0)
        boundary = WorldBoundary(model)
        elapsed = boundary.enter_secure_world(8)
        assert elapsed == pytest.approx(100.0, rel=0.1)


class TestSecureChannel:
    def test_roundtrip(self, rng):
        sender, receiver = establish_session(rng)
        message = sender.encrypt(b"gradient payload")
        assert receiver.decrypt(message) == b"gradient payload"

    def test_ciphertext_differs_from_plaintext(self, rng):
        sender, _ = establish_session(rng)
        message = sender.encrypt(b"secret-weights")
        assert message.ciphertext != b"secret-weights"

    def test_tampering_is_detected(self, rng):
        sender, receiver = establish_session(rng)
        message = sender.encrypt(b"secret")
        tampered = EncryptedMessage(
            nonce=message.nonce,
            ciphertext=bytes([message.ciphertext[0] ^ 0xFF]) + message.ciphertext[1:],
            mac=message.mac,
        )
        with pytest.raises(SecureChannelError):
            receiver.decrypt(tampered)

    def test_wrong_key_fails(self, rng):
        sender, _ = establish_session(rng)
        eavesdropper = SecureChannel(b"0" * 32)
        message = sender.encrypt(b"secret")
        with pytest.raises(SecureChannelError):
            eavesdropper.decrypt(message)

    def test_array_roundtrip(self, rng):
        sender, receiver = establish_session(rng)
        array = rng.normal(size=(4, 5)).astype(np.float32)
        message, shape, dtype = sender.encrypt_array(array)
        recovered = receiver.decrypt_array(message, shape, dtype)
        np.testing.assert_allclose(recovered, array)

    @pytest.mark.parametrize("shape,dtype", FORGED_ARRAY_METADATA)
    def test_forged_array_metadata_raises_channel_error(self, rng, shape, dtype):
        sender, receiver = establish_session(rng)
        message, _, _ = sender.encrypt_array(rng.normal(size=(4, 5)).astype(np.float32))
        with pytest.raises(SecureChannelError):
            receiver.decrypt_array(message, shape, dtype)

    def test_same_size_relabel_is_rejected(self, rng):
        """The metadata is covered by the MAC: a re-label that keeps the byte
        count no longer decodes into a different array."""
        sender, receiver = establish_session(rng)
        array = rng.normal(size=(3, 4, 4))
        message, _, _ = sender.encrypt_array(array)
        for shape, dtype in [((3, 4, 8), "float32"), ((4, 3, 4), "float64"), ((48,), "<f8")]:
            with pytest.raises(SecureChannelError):
                receiver.decrypt_array(message, shape, dtype)
        np.testing.assert_array_equal(receiver.decrypt_array(message, (3, 4, 4), "<f8"), array)

    def test_array_message_does_not_open_as_plain(self, rng):
        sender, receiver = establish_session(rng)
        message, _, _ = sender.encrypt_array(np.arange(6.0))
        with pytest.raises(SecureChannelError):
            receiver.decrypt(message)

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            SecureChannel(b"short")

    def test_statistics_accumulate(self, rng):
        sender, _ = establish_session(rng)
        sender.encrypt(b"abc")
        sender.encrypt(b"defg")
        assert sender.messages_sent == 2
        assert sender.bytes_sent == 7

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=256))
    def test_roundtrip_property(self, payload):
        sender = SecureChannel(b"k" * 32, rng=np.random.default_rng(0))
        receiver = SecureChannel(b"k" * 32)
        assert receiver.decrypt(sender.encrypt(payload)) == payload


class TestWireFormat:
    @pytest.mark.parametrize("size", sorted(KAT_DIGESTS))
    def test_known_answer(self, size):
        message = _kat_message(size)
        digest = hashlib.sha256(message.nonce + message.ciphertext + message.mac).hexdigest()
        assert digest == KAT_DIGESTS[size]
        assert SecureChannel(KAT_KEY).decrypt(message) == bytes(
            (7 * i + 3) % 256 for i in range(size)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        key=st.binary(min_size=16, max_size=48),
        nonce=st.binary(min_size=16, max_size=16),
        length=st.integers(min_value=0, max_value=4096),
    )
    def test_keystream_matches_byte_loop_oracle(self, key, nonce, length):
        assert _keystream(key, nonce, length) == _byte_loop_keystream(key, nonce, length)

    @settings(max_examples=60, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=512), data=st.data())
    def test_any_bit_flip_or_truncation_is_rejected(self, payload, data):
        message = SecureChannel(KAT_KEY, rng=np.random.default_rng(0)).encrypt(payload)
        field = data.draw(st.sampled_from(["nonce", "ciphertext", "mac", "truncate"]))
        if field == "truncate":
            cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
            forged = dataclasses.replace(message, ciphertext=message.ciphertext[:cut])
        else:
            value = bytearray(getattr(message, field))
            bit = data.draw(st.integers(min_value=0, max_value=8 * len(value) - 1))
            value[bit // 8] ^= 1 << (bit % 8)
            forged = dataclasses.replace(message, **{field: bytes(value)})
        with pytest.raises(SecureChannelError):
            SecureChannel(KAT_KEY).decrypt(forged)


class TestAttestation:
    def test_quote_verifies_with_correct_inputs(self):
        measurement = measure_payload([b"stem-weights", b"code"])
        quote = produce_quote("enclave", measurement, b"nonce", b"key")
        assert verify_quote(quote, measurement, b"nonce", b"key")

    def test_quote_rejects_wrong_nonce(self):
        measurement = measure_payload([b"x"])
        quote = produce_quote("enclave", measurement, b"nonce", b"key")
        assert not verify_quote(quote, measurement, b"other-nonce", b"key")

    def test_quote_rejects_wrong_measurement(self):
        measurement = measure_payload([b"x"])
        quote = produce_quote("enclave", measurement, b"nonce", b"key")
        assert not verify_quote(quote, measure_payload([b"y"]), b"nonce", b"key")

    def test_quote_rejects_wrong_key(self):
        measurement = measure_payload([b"x"])
        quote = produce_quote("enclave", measurement, b"nonce", b"key")
        assert not verify_quote(quote, measurement, b"nonce", b"other-key")

    def test_measurement_is_deterministic_and_order_sensitive(self):
        assert measure_payload([b"a", b"b"]) == measure_payload([b"a", b"b"])
        assert measure_payload([b"a", b"b"]) != measure_payload([b"b", b"a"])
