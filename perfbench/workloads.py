"""The benchmark's four closed-loop workloads.

Each workload builds its inputs from the seed in :meth:`Workload.setup`,
runs one operation per :meth:`Workload.op` call (one caller that waits for
each result), and verifies every operation's output in :meth:`Workload.check`
against a reference computed in the same process — the captured-replay grid
against the eager grid, the sealed federation against the plaintext one, the
streamed aggregate against the buffered one, and every sealed reply against
a single-request eager forward.  References are recomputed per seed because
the outputs depend on the seed and on the host's BLAS, so constants pinned on
one host would not hold on another.

:meth:`Workload.patches` lists the call sites a traced operation wraps in
spans; everything is driven through the public API of ``repro.eval.engine``,
``repro.attacks``, ``repro.fl.runtime``, ``repro.serve.gateway`` and
``repro.tee``, and nothing under ``src/`` changes.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import time
from contextlib import nullcontext

import numpy as np

from repro.attacks import bpda
from repro.attacks.engine.driver import AttackDriver
from repro.autodiff.context import no_grad
from repro.autodiff.tensor import Tensor
from repro.core.views import FullWhiteBoxView, RestrictedWhiteBoxView
from repro.data.splits import iid_partition
from repro.eval.engine import ArtifactCache, ExecutorConfig, ExperimentEngine, build_scenario
from repro.eval.engine import cells
from repro.fl.aggregation import StreamingAggregator, fedavg
from repro.fl.client import ClientConfig, HonestClient
from repro.fl.runtime import (
    FederationRuntime,
    InProcessTransport,
    RoundHooks,
    Transport,
    UpdateEnvelope,
    run_client_task,
)
from repro.models.registry import build_model
from repro.serve.gateway import GatewayService
from repro.serve.session import SessionManager
from repro.tee.enclave import TrustZoneEnclave
from repro.utils.rng import derive_seed, set_global_seed

from spans import Patches, Tracer

#: Upsampler classes whose calls are the BPDA layer.
_UPSAMPLERS = (
    bpda.TransposedConvUpsampler,
    bpda.AverageUpsampler,
    bpda.RandomProjectionUpsampler,
    bpda.TokenUnprojectionUpsampler,
)


class NullTracer:
    """Stand-in for :class:`~spans.Tracer` in untraced operations."""

    def span(self, name):
        return nullcontext()

    def count(self, name, amount=1):
        pass


NULL_TRACER = NullTracer()


def state_sha256(state: dict) -> str:
    """Digest of a state dict (key order, names, dtypes, shapes and bytes)."""
    digest = hashlib.sha256()
    for key, value in state.items():
        array = np.ascontiguousarray(value)
        digest.update(f"{key}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def inputs_sha256(dataset, *extra) -> str:
    """Digest of the seed-generated inputs a workload runs on."""
    digest = hashlib.sha256()
    for array in (dataset.train_images, dataset.train_labels, dataset.test_images, *extra):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _channel_patches(patches: Patches, tracer: Tracer) -> None:
    """Spans and byte counts around every secure-channel message."""
    from repro.tee.secure_channel import SecureChannel
    from repro.tee.world import WorldBoundary

    def encrypt(original):
        @functools.wraps(original)
        def wrapped(self, payload):
            tracer.count("tee.secure_channel.bytes", len(payload))
            with tracer.span("tee.secure_channel.encrypt"):
                return original(self, payload)

        return wrapped

    def decrypt(original):
        @functools.wraps(original)
        def wrapped(self, message):
            tracer.count("tee.secure_channel.bytes", len(message.ciphertext))
            with tracer.span("tee.secure_channel.decrypt"):
                return original(self, message)

        return wrapped

    def switch(direction):
        def make(original):
            @functools.wraps(original)
            def wrapped(self, payload_bytes=0):
                tracer.count("tee.world.switches")
                tracer.count(f"tee.world.bytes_{direction}", payload_bytes)
                return original(self, payload_bytes)

            return wrapped

        return make

    patches.add(SecureChannel, "encrypt", encrypt)
    patches.add(SecureChannel, "decrypt", decrypt)
    patches.add(WorldBoundary, "enter_secure_world", switch("in"))
    patches.add(WorldBoundary, "exit_secure_world", switch("out"))


class Workload:
    """One closed-loop workload (see the module docstring)."""

    name = ""
    #: Span name of one operation (the root of its span tree).
    root = ""
    #: Fewest operations one run measures, whatever ``--seconds`` says.
    min_ops = 1

    def __init__(self, size: str = "bench"):
        if size not in ("bench", "tiny"):
            raise ValueError(f"unknown size {size!r}")
        self.size = size

    def setup(self, seed: int, tracer=NULL_TRACER) -> None:
        raise NotImplementedError

    def op(self, index: int, tracer=NULL_TRACER):
        raise NotImplementedError

    def patches(self, tracer: Tracer) -> Patches:
        patches = Patches()
        _channel_patches(patches, tracer)
        return patches

    def check(self, outputs: list) -> list[str]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {}


def _prepare(tracer, cache: ArtifactCache, config, model_names=()):
    """Dataset and trained defenders from a fresh artifact cache (set-up)."""
    with tracer.span("eval.engine.dataset"):
        dataset = cache.get_dataset(config)
    models = []
    for model_name in model_names:
        with tracer.span("eval.engine.defender_train"):
            models.append(cache.get_defender(model_name, config))
    return dataset, models


# --------------------------------------------------------------------------- #
# table3_attack
# --------------------------------------------------------------------------- #
class Table3Attack(Workload):
    """The Table III grid: every defender x attack, clear and shielded."""

    name = "table3_attack"
    root = "eval.engine.grid"

    def _scenario(self, backend: str):
        if self.size == "tiny":
            return build_scenario(
                "table3_cifar10",
                scale="tiny",
                attacks=("fgsm", "pgd"),
                eval_samples=2,
                attack_batch_size=2,
                attack_backend=backend,
            )
        # The bench-scale defenders and attacks at 16x16 inputs, 8 training
        # samples per class and 4 attacked samples: one grid then fits the
        # run several times over (see README.md).
        return build_scenario(
            "table3_cifar10",
            scale="bench",
            image_size=16,
            train_per_class=8,
            train_epochs=2,
            eval_samples=4,
            attack_batch_size=4,
            attack_backend=backend,
        )

    def setup(self, seed: int, tracer=NULL_TRACER) -> None:
        set_global_seed(seed)
        self.scenario = self._scenario("captured")
        cache = ArtifactCache()
        self.dataset, _ = _prepare(tracer, cache, self.scenario.config, self.scenario.config.models)
        self.engine = ExperimentEngine(cache=cache, executor=ExecutorConfig(backend="serial"))

    @staticmethod
    def _summary(record) -> list:
        return [
            (row.model_name, row.eval_samples, row.clean_accuracy, row.robust)
            for row in record.results
        ]

    def op(self, index: int, tracer=NULL_TRACER):
        return self._summary(self.engine.run(self.scenario, persist=False))

    def patches(self, tracer: Tracer) -> Patches:
        patches = super().patches(tracer)
        patches.add(cells, "run_individual_cell", functools.partial(tracer.wrap, "eval.engine.cell"))

        def driver_run(original):
            @functools.wraps(original)
            def wrapped(self, attack, view, inputs, labels):
                with tracer.span("attacks.engine.run"):
                    result = original(self, attack, view, inputs, labels)
                tracer.count("attacks.engine.gradient_calls", result.gradient_queries)
                if result.queries_per_sample is not None:
                    tracer.count(
                        "attacks.engine.sample_queries", int(result.queries_per_sample.sum())
                    )
                return result

            return wrapped

        def gradient(span_name):
            def make(original):
                @functools.wraps(original)
                def wrapped(self, *args, **kwargs):
                    stats = getattr(self.backend, "stats", None)
                    before = stats.as_dict() if stats is not None else None
                    start = time.perf_counter()
                    with tracer.span(span_name):
                        result = original(self, *args, **kwargs)
                    seconds = time.perf_counter() - start
                    kind = "eager"
                    if before is not None:
                        delta = {key: value - before[key] for key, value in stats.as_dict().items()}
                        for key, value in delta.items():
                            tracer.count(f"autodiff.capture.{key}", value)
                        tracer.count("autodiff.capture.calls")
                        if delta["replays"]:
                            kind = "replay"
                        elif delta["records"]:
                            kind = "record"
                    tracer.count(f"autodiff.capture.{kind}_calls")
                    tracer.count(f"autodiff.capture.{kind}_seconds", seconds)
                    return result

                return wrapped

            return make

        patches.add(AttackDriver, "run", driver_run)
        patches.add(FullWhiteBoxView, "gradient", gradient("core.views.clear_gradient"))
        patches.add(RestrictedWhiteBoxView, "gradient", gradient("core.views.shielded_gradient"))
        for upsampler in _UPSAMPLERS:
            patches.add(upsampler, "__call__", functools.partial(tracer.wrap, "attacks.bpda.upsample"))
        return patches

    def check(self, outputs: list) -> list[str]:
        errors = []
        reference = self._summary(self.engine.run(self._scenario("eager"), persist=False))
        for index, output in enumerate(outputs):
            if output != reference:
                errors.append(f"grid {index} differs from the eager-backend grid")
        for model_name, samples, _, robust in reference:
            if samples < 1:
                errors.append(f"{model_name}: no correctly classified sample to attack")
            for attack, row in robust.items():
                for setting, value in row.items():
                    if not 0.0 <= value <= 1.0:
                        errors.append(f"{model_name}/{attack}/{setting}: robust accuracy {value}")
        return errors

    def describe(self) -> dict:
        config = self.scenario.config
        return {
            "models": list(config.models),
            "attacks": list(config.attacks),
            "image_size": config.image_size,
            "eval_samples": config.eval_samples,
            "attack_backend": config.attack_backend,
            "inputs_sha256": inputs_sha256(self.dataset),
        }


# --------------------------------------------------------------------------- #
# Federated workloads
# --------------------------------------------------------------------------- #
class _TracingTransport(Transport):
    """Transport wrapper that times client tasks and broadcast sealing."""

    def __init__(self, inner: Transport, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    def map(self, fn, items):
        # A streamed round maps only the broadcast sealer over the transport.
        if fn.__name__ != "_seal_broadcast_payload":
            return self.inner.map(fn, items)
        with self.tracer.span("fl.runtime.broadcast"):
            return self.inner.map(fn, items)

    def imap(self, fn, items):
        if fn is run_client_task:
            fn = self.tracer.wrap("fl.client.task", fn)
        return self.inner.imap(fn, items)

    def describe(self) -> dict:
        return self.inner.describe()


class _Federation(Workload):
    """Shared population build and round loop of the ``fl_*`` workloads."""

    root = "fl.runtime.round"
    sealed = False

    def _scenario(self):
        raise NotImplementedError

    def _build(self, seed: int, sealed: bool, hooks: RoundHooks | None = None, tracer=NULL_TRACER):
        """A fresh federation; identical global model for a given seed."""
        set_global_seed(seed)
        scenario = self._scenario()
        params = scenario.params
        self.dataset, _ = _prepare(tracer, ArtifactCache(), scenario.config)
        factory = functools.partial(
            build_model,
            params["model"],
            num_classes=self.dataset.num_classes,
            image_size=scenario.config.image_size,
            in_channels=self.dataset.image_shape[0],
        )
        # The global model is built first, so the enclaves and client models
        # built after it cannot shift its initialisation.
        global_model = factory()
        self.factory = factory
        client_config = ClientConfig(
            local_epochs=int(params["local_epochs"]),
            batch_size=int(params["client_batch_size"]),
            learning_rate=float(params["client_lr"]),
        )
        partitions = iid_partition(
            self.dataset.train_labels,
            int(params["num_clients"]),
            rng=np.random.default_rng(derive_seed(f"perfbench.{self.name}.partition")),
        )
        clients = [
            HonestClient(
                f"client{index}",
                factory,
                self.dataset.train_images[part],
                self.dataset.train_labels[part],
                client_config,
                enclave=TrustZoneEnclave(name=f"client{index}.enclave") if sealed else None,
            )
            for index, part in enumerate(partitions)
        ]
        runtime = FederationRuntime(
            global_model, clients, transport=InProcessTransport(), hooks=hooks
        )
        if sealed:
            runtime.attest_clients(
                {
                    client.client_id: hashlib.sha256(
                        f"device:{client.client_id}:{seed}".encode()
                    ).digest()
                    for client in clients
                }
            )
        self.scenario = scenario
        return runtime

    def setup(self, seed: int, tracer=NULL_TRACER) -> None:
        self.seed = seed
        self.runtime = self._build(seed, self.sealed, tracer=tracer)
        self.initial_state = self.runtime.global_model.state_dict()

    def _round(self, runtime: FederationRuntime, tracer=NULL_TRACER) -> dict:
        sealed_before = runtime.secure_stats.sealed_bytes
        result = runtime.run_round(self.dataset.test_images, self.dataset.test_labels)
        wire_bytes = result.update_bytes + runtime.secure_stats.sealed_bytes - sealed_before
        tracer.count("fl.runtime.wire_bytes", wire_bytes)
        return {
            "round": result.round_index,
            "state": runtime.global_model.state_dict(),
            "accuracy": result.global_accuracy,
            "update_bytes": result.update_bytes,
            "wire_bytes": wire_bytes,
        }

    def op(self, index: int, tracer=NULL_TRACER):
        return self._round(self.runtime, tracer)

    def patches(self, tracer: Tracer) -> Patches:
        patches = super().patches(tracer)
        runtime = self.runtime
        patches.add(runtime, "transport", lambda inner: _TracingTransport(inner, tracer))
        patches.add(runtime.global_model, "accuracy", functools.partial(tracer.wrap, "fl.runtime.eval"))
        patches.add(UpdateEnvelope, "open", functools.partial(tracer.wrap, "fl.runtime.open"))
        patches.add(StreamingAggregator, "add", functools.partial(tracer.wrap, "fl.aggregation.add"))
        patches.add(
            StreamingAggregator, "finalize", functools.partial(tracer.wrap, "fl.aggregation.finalize")
        )
        return patches

    def _compare(self, outputs: list, reference: list, label: str) -> list[str]:
        errors = []
        for output, expected in zip(outputs, reference):
            if state_sha256(output["state"]) != state_sha256(expected["state"]):
                errors.append(f"round {output['round']}: global state differs from {label}")
            for key in ("round", "accuracy", "update_bytes"):
                if output[key] != expected[key]:
                    errors.append(
                        f"round {output['round']}: {key} {output[key]!r} != {label} {expected[key]!r}"
                    )
        return errors

    def describe(self) -> dict:
        params = self.scenario.params
        return {
            "clients": int(params["num_clients"]),
            "local_epochs": int(params["local_epochs"]),
            "batch_size": int(params["client_batch_size"]),
            "image_size": self.scenario.config.image_size,
            "sealed": self.sealed,
            "transport": self.runtime.transport.describe(),
            "inputs_sha256": inputs_sha256(self.dataset),
        }


class FlSealedRounds(_Federation):
    """8 attested enclave clients, sealed broadcast and updates, FedAvg."""

    name = "fl_sealed_rounds"
    sealed = True

    def _scenario(self):
        scale = "tiny" if self.size == "tiny" else "bench"
        return build_scenario("fl_shielded_global", scale=scale, image_size=16)

    def check(self, outputs: list) -> list[str]:
        plain = self._build(self.seed, sealed=False)
        reference = [self._round(plain) for _ in outputs]
        errors = self._compare(outputs, reference, "plaintext federation")
        clients = int(self.scenario.params["num_clients"])
        sealed = self.runtime.secure_stats.sealed_messages
        if sealed != 2 * clients * len(outputs):
            errors.append(f"{sealed} sealed messages over {len(outputs)} round(s) of {clients}")
        return errors


def _weighted_mean(updates) -> dict:
    """Plain FedAvg in float64, the independent aggregation reference."""
    weights = np.array([update.num_samples for update in updates], dtype=np.float64)
    weights /= weights.sum()
    return {
        key: sum(weight * np.asarray(update.state[key], dtype=np.float64)
                 for weight, update in zip(weights, updates))
        for key in updates[0].state
    }


class FlThousandClients(_Federation):
    """1000 plaintext clients, streamed FedAvg, one round per operation."""

    name = "fl_thousand_clients"

    def _scenario(self):
        scale = "tiny" if self.size == "tiny" else "bench"
        return build_scenario("fl_thousand_clients", scale=scale)

    def check(self, outputs: list) -> list[str]:
        errors: list[str] = []

        def buffered(updates):
            aggregate = fedavg(updates)
            expected = _weighted_mean(updates)
            for key, value in aggregate.items():
                if not np.allclose(value, expected[key], rtol=1e-9, atol=1e-12):
                    errors.append(f"buffered FedAvg of {key} differs from the weighted mean")
            return aggregate

        # The last streamed round must equal, byte for byte, the same round
        # from the same starting state with its replies buffered and reduced
        # by the batch FedAvg (re-running every round would double the run).
        for index, output in enumerate(outputs):
            if output["round"] != index:
                errors.append(f"operation {index} ran round {output['round']}")
        start = outputs[-2]["state"] if len(outputs) > 1 else self.initial_state
        model = self.factory()
        model.load_state_dict(start)
        reference_runtime = FederationRuntime(
            model,
            self.runtime.clients,
            transport=InProcessTransport(),
            hooks=RoundHooks(aggregate=buffered),
            seed=self.runtime.seed,
            round_index=outputs[-1]["round"],
        )
        reference = [self._round(reference_runtime)]
        return errors + self._compare(outputs[-1:], reference, "buffered aggregation")


# --------------------------------------------------------------------------- #
# gateway_sealed
# --------------------------------------------------------------------------- #
class GatewaySealed(Workload):
    """Sealed single requests through the real-execution gateway."""

    name = "gateway_sealed"
    root = "serve.request"

    @property
    def min_ops(self) -> int:
        # p95 then has at least ten samples beyond it.
        return 200 if self.size == "bench" else 4

    def setup(self, seed: int, tracer=NULL_TRACER) -> None:
        set_global_seed(seed)
        scale = "tiny" if self.size == "tiny" else "bench"
        self.scenario = build_scenario("serving_tail_latency", scale=scale)
        self.dataset, (self.model,) = _prepare(
            tracer, ArtifactCache(), self.scenario.config, (self.scenario.params["model"],)
        )
        self.service = GatewayService(copy.deepcopy(self.model))
        self.session = self.service.open_session("perfbench.client", seed=seed)
        rng = np.random.default_rng(derive_seed("perfbench.gateway.payloads", seed))
        self.payloads = rng.integers(0, len(self.dataset.test_labels), size=100_000)
        # The first request calibrates the gateway's stage cost model.
        self._request(-1, int(self.payloads[-1]), NULL_TRACER)

    def _request(self, request_id: int, payload: int, tracer) -> dict:
        with tracer.span("serve.session.seal_query"):
            sealed = self.session.seal_query(self.dataset.test_images[payload])
        self.service.submit_sealed(request_id, sealed)
        with tracer.span("serve.gateway.serve"):
            report = self.service.serve()
        shed = sum(report.metrics["shed"].values())
        tracer.count("serve.gateway.shed", shed)
        tracer.count("serve.gateway.cohort_size", report.metrics["mean_batch_size"])
        if shed or len(report.replies) != 1:
            raise RuntimeError(f"request {request_id} was shed ({report.metrics['shed']})")
        reply = report.replies[0]
        with tracer.span("serve.session.seal_reply"):
            sealed_reply = self.service.seal_reply(reply)
        with tracer.span("serve.session.open_reply"):
            opened = self.session.open_reply(sealed_reply)
        return {"payload": payload, "opened": opened, "logits": reply.logits}

    def op(self, index: int, tracer=NULL_TRACER):
        return self._request(index, int(self.payloads[index]), tracer)

    def patches(self, tracer: Tracer) -> Patches:
        patches = super().patches(tracer)
        patches.add(
            SessionManager, "unseal_query", functools.partial(tracer.wrap, "serve.session.unseal_query")
        )
        secure = [stage.shield_target for stage in self.service.partition.stages]

        def stages(original):
            return [
                dataclasses.replace(
                    stage,
                    run=tracer.wrap(
                        "serve.gateway.secure_stage" if is_secure else "serve.gateway.clear_stage",
                        stage.run,
                    ),
                )
                for stage, is_secure in zip(original, secure)
            ]

        patches.add(self.service.partition, "stages", stages)
        return patches

    def check(self, outputs: list) -> list[str]:
        errors = []
        eager: dict[int, np.ndarray] = {}
        with no_grad():
            for payload in sorted({output["payload"] for output in outputs}):
                image = self.dataset.test_images[payload]
                eager[payload] = self.model(Tensor(image[None], is_input=True)).data[0]
        for index, output in enumerate(outputs):
            expected = eager[output["payload"]]
            if not np.array_equal(output["opened"], expected):
                errors.append(f"request {index}: opened reply differs from eager logits")
            if not np.array_equal(output["logits"], expected):
                errors.append(f"request {index}: gateway logits differ from eager logits")
        return errors

    def describe(self) -> dict:
        return {
            "model": self.scenario.params["model"],
            "image_size": self.scenario.config.image_size,
            "policy": dataclasses.asdict(self.service.policy),
            "stages": self.service.partition.describe(),
            "inputs_sha256": inputs_sha256(self.dataset, self.payloads),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (Table3Attack, FlSealedRounds, FlThousandClients, GatewaySealed)
}
