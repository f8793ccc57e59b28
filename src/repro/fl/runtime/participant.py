"""The participant protocol and the transport worker that drives one client.

A *participant* is anything the runtime can hand a broadcast to and get a
model update back from; :class:`~repro.fl.client.HonestClient` and its
subclasses implement it.  The protocol carries ``is_compromised`` so the
server records adversarial participation structurally instead of matching
class names (which breaks under subclassing).

One client's local round is a :class:`ClientTask` executed by the
module-level :func:`run_client_task` — module-level so the process-pool
transport can pickle it, and a pure function of its task so every backend
produces bit-identical updates:

* all local randomness (mini-batch shuffling, poisoning index choice) is
  drawn from a generator derived from the task's per-(round, client) seed,
  never from shared global streams;
* sealed envelopes are decrypted/encrypted with channels rebuilt from the
  session key inside the worker, with deterministically derived nonces.
"""

from __future__ import annotations

import inspect
import weakref
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.fl.messages import GlobalModelBroadcast, ModelUpdate
from repro.fl.runtime.envelopes import (
    COMPRESSIONS,
    BroadcastEnvelope,
    UpdateEnvelope,
    make_delta,
)
from repro.tee.secure_channel import SecureChannel
from repro.utils.rng import derive_seed


@runtime_checkable
class Participant(Protocol):
    """What the federation runtime requires from a client."""

    client_id: str
    #: Structural marker for adversarial participants; honest clients carry
    #: ``False``.  Survives subclassing, unlike ``type(...).__name__`` checks.
    is_compromised: bool

    @property
    def num_samples(self) -> int:  # pragma: no cover - protocol signature
        ...

    def receive(self, broadcast: GlobalModelBroadcast) -> None:  # pragma: no cover
        ...

    def local_update(
        self, round_index: int, rng: np.random.Generator | None = None
    ) -> ModelUpdate:  # pragma: no cover - protocol signature
        ...


def client_task_seed(base_seed: int, round_index: int, client_id: str) -> int:
    """Deterministic per-(round, client) seed, independent of execution order."""
    return derive_seed(f"fl.runtime.round{round_index}.client.{client_id}", base_seed)


@dataclass(frozen=True)
class ClientTask:
    """Picklable unit of transport work: one participant's local round."""

    client: Participant
    envelope: BroadcastEnvelope
    round_index: int
    seed: int
    #: Session key of the attested secure session, when one is established.
    session_key: bytes | None = None
    #: Update compression mode (see :data:`~repro.fl.runtime.envelopes.COMPRESSIONS`):
    #: ``"delta"`` ships ``state − broadcast``, ``"delta-int8"`` additionally
    #: quantizes it with seeded stochastic rounding.
    compression: str = "none"

    def channel(self, purpose: str) -> SecureChannel | None:
        """Client-side channel endpoint rebuilt from the session key."""
        if self.session_key is None:
            return None
        nonce_rng = np.random.default_rng(derive_seed(f"fl.nonce.{purpose}", self.seed))
        return SecureChannel(self.session_key, rng=nonce_rng)


#: ``_accepts_rng`` answers, keyed by the function behind ``local_update``.
_ACCEPTS_RNG: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _accepts_rng(client: Participant) -> bool:
    """Whether the client's ``local_update`` takes the ``rng`` keyword.

    Pre-runtime participant implementations used ``local_update(round_index)``;
    they still work, at the cost of drawing shuffle randomness from their own
    (global) streams — which forfeits cross-transport parity for them only.
    The answer is memoized on the function behind the bound method, so a
    signature is inspected once per participant class, not once per client
    and round; a per-instance override is its own key.
    """
    method = client.local_update
    function = getattr(method, "__func__", method)
    try:
        return _ACCEPTS_RNG[function]
    except KeyError:
        accepts = _ACCEPTS_RNG[function] = _signature_accepts_rng(method)
        return accepts
    except TypeError:  # not weak-referenceable: inspect every time
        return _signature_accepts_rng(method)


def _signature_accepts_rng(method) -> bool:
    try:
        parameters = inspect.signature(method).parameters
    except (TypeError, ValueError):  # builtins / C-level callables
        return True
    if "rng" in parameters:
        return True
    return any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD for parameter in parameters.values()
    )


def run_client_task(task: ClientTask) -> UpdateEnvelope:
    """Execute one client's round: open the broadcast, train, wrap the update.

    With a compression mode set, the reply carries ``state − broadcast``
    instead of the dense state; the int8 mode quantizes it with stochastic
    rounding drawn from a generator derived off the task's per-(round,
    client) seed, so the codes are identical on every transport backend.
    """
    broadcast = task.envelope.open(task.channel("broadcast"))
    task.client.receive(broadcast)
    if _accepts_rng(task.client):
        update = task.client.local_update(
            task.round_index, rng=np.random.default_rng(task.seed)
        )
    else:
        update = task.client.local_update(task.round_index)
    channel = task.channel("update")
    if task.compression == "none":
        return UpdateEnvelope.from_update(update, channel)
    if task.compression not in COMPRESSIONS:
        raise ValueError(
            f"unknown compression {task.compression!r}; expected one of {COMPRESSIONS}"
        )
    quantize_rng = None
    if task.compression == "delta-int8":
        quantize_rng = np.random.default_rng(derive_seed("fl.quantize", task.seed))
    delta = make_delta(update.state, broadcast.state, quantize_rng)
    return UpdateEnvelope.from_update(update, channel, delta=delta)
