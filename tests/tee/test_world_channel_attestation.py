"""Tests for world switching, the secure channel and attestation."""

from __future__ import annotations

import dataclasses

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

    @pytest.mark.parametrize(
        "shape,dtype",
        [
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
        ],
    )
    def test_forged_array_metadata_raises_channel_error(self, rng, shape, dtype):
        sender, receiver = establish_session(rng)
        message, _, _ = sender.encrypt_array(rng.normal(size=(4, 5)).astype(np.float32))
        with pytest.raises(SecureChannelError):
            receiver.decrypt_array(message, shape, dtype)

    def test_same_size_relabel_still_decodes(self, rng):
        """Known gap: the metadata is outside the MAC, so a re-label that keeps
        the byte count decodes into a different (wrong) array silently."""
        sender, receiver = establish_session(rng)
        array = rng.normal(size=(3, 4, 4))
        message, _, _ = sender.encrypt_array(array)
        relabelled = receiver.decrypt_array(message, (3, 4, 8), "float32")
        assert relabelled.shape == (3, 4, 8)
        assert relabelled.tobytes() == array.tobytes()

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
