"""Deterministic service-time model for partition stages.

The load generator pushes up to 10^6 requests through the gateway — far too
many to run real forwards for.  The simulation instead prices each stage
execution with a linear model ``base_us + per_sample_us * batch``, derived
not from wall-clock measurements (which would make every run's histogram
different) but from the op registry's FLOP metadata: one profiled eager
forward per batch size at *calibration* time yields exact per-stage FLOP
counts (pure functions of the tensor shapes), and a nominal sustained
``gflops`` rate converts them to virtual microseconds.  Same model, same
seed, same workload ⇒ byte-identical latency histograms.

Secure stage edges additionally pay the TEE boundary: one world switch plus
the payload transfer, priced by the same
:class:`~repro.tee.world.WorldSwitchCostModel` the real serving runtime
charges — so continuous batching's crossing amortisation shows up in the
simulated tail exactly the way it does in the measured runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tee.world import WorldSwitchCostModel


@dataclass(frozen=True)
class StageCost:
    """Linear service-time model of one partition stage."""

    name: str
    secure: bool
    base_us: float
    per_sample_us: float
    #: Bytes entering the stage per sample (the boundary payload when the
    #: previous stage ran on the other side of the TEE edge).
    input_nbytes_per_sample: int

    def service_us(self, batch: int) -> float:
        return self.base_us + self.per_sample_us * max(int(batch), 0)


@dataclass
class StageCostModel:
    """Prices stage executions and boundary crossings on the virtual clock."""

    stages: list[StageCost]
    boundary: WorldSwitchCostModel = field(default_factory=WorldSwitchCostModel)
    #: Nominal sustained kernel throughput used by the FLOP calibration.
    gflops: float = 2.0

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a cost model needs at least one stage")

    def stage(self, index: int) -> StageCost:
        return self.stages[index]

    def crossing_us(self, nbytes: int) -> float:
        """One world switch carrying ``nbytes`` across the boundary."""
        return self.boundary.switch_latency_us + self.boundary.transfer_time_us(nbytes)

    def stage_crossings(self, index: int, batch: int) -> tuple[int, float]:
        """Switch count and time a cohort pays *entering* stage ``index``.

        A clear→secure edge before the stage costs one switch carrying the
        cohort's stage input; the matching secure→clear exit is charged by
        :meth:`exit_crossing` when the secure run ends.
        """
        stage = self.stages[index]
        previous_secure = self.stages[index - 1].secure if index > 0 else False
        if stage.secure and not previous_secure:
            return 1, self.crossing_us(stage.input_nbytes_per_sample * batch)
        return 0, 0.0

    def exit_crossing(self, index: int, batch: int, output_nbytes_per_sample: int) -> tuple[int, float]:
        """The exit switch owed when stage ``index`` ends a secure run."""
        stage = self.stages[index]
        next_secure = self.stages[index + 1].secure if index + 1 < len(self.stages) else False
        if stage.secure and not next_secure:
            return 1, self.crossing_us(output_nbytes_per_sample * batch)
        return 0, 0.0

    def forward_crossings(self, batch: int) -> tuple[int, float]:
        """Switches and boundary time one whole-forward batch pays."""
        switches = 0
        total = 0.0
        for index, stage in enumerate(self.stages):
            count, crossing = self.stage_crossings(index, batch)
            switches += count
            total += crossing
            out_bytes = (
                self.stages[index + 1].input_nbytes_per_sample
                if index + 1 < len(self.stages)
                else stage.input_nbytes_per_sample
            )
            count, crossing = self.exit_crossing(index, batch, out_bytes)
            switches += count
            total += crossing
        return switches, total

    def forward_us(self, batch: int) -> float:
        """Whole-forward service time: every stage plus every secure edge."""
        _, crossing_us = self.forward_crossings(batch)
        return crossing_us + sum(stage.service_us(batch) for stage in self.stages)

    def capacity_rps(self, replicas: int, max_batch: int) -> float:
        """Saturation throughput: full batches back to back on every replica."""
        batch_time_us = self.forward_us(max_batch)
        return replicas * max_batch / batch_time_us * 1e6

    def describe(self) -> list[dict]:
        return [
            {
                "stage": stage.name,
                "secure": stage.secure,
                "base_us": stage.base_us,
                "per_sample_us": stage.per_sample_us,
                "input_nbytes_per_sample": stage.input_nbytes_per_sample,
            }
            for stage in self.stages
        ]


def _stage_flops_and_bytes(partition, array) -> list[tuple[int, int]]:
    """Per-stage (FLOPs, input bytes) of one eager staged forward."""
    from repro.autodiff.context import no_grad
    from repro.autodiff.profiler import OpProfiler, profile_ops
    from repro.autodiff.tensor import Tensor

    rows: list[tuple[int, int]] = []
    with profile_ops(OpProfiler()) as profiler:
        with no_grad():
            hidden = Tensor(array, is_input=True, name="gateway.calibration")
            seen = 0
            for stage in partition.stages:
                input_nbytes = hidden.nbytes
                if stage.shield_target and partition.enclave is not None:
                    with partition.enclave.shield_scope(stage.name):
                        hidden = stage.run(hidden)
                else:
                    hidden = stage.run(hidden)
                total = sum(stat["flops"] for stat in profiler.as_dict().values())
                rows.append((total - seen, input_nbytes))
                seen = total
    if partition.enclave is not None:
        # The probe's shielded activations leave the enclave with it.
        partition.enclave.flush_regions()
    return rows


def calibrate_stage_costs(
    partition,
    sample,
    gflops: float = 2.0,
    stage_overhead_us: float = 25.0,
    probe_batch: int = 4,
    boundary: WorldSwitchCostModel | None = None,
) -> StageCostModel:
    """Derive a :class:`StageCostModel` from a partition's FLOP metadata.

    Two profiled forwards (batch 1 and ``probe_batch``) give each stage a
    linear FLOPs-in-batch fit; ``gflops`` converts FLOPs to virtual time and
    ``stage_overhead_us`` prices the per-dispatch overhead a batch pays
    regardless of size.  Everything involved — shapes, cost rules, the fit —
    is deterministic, so the resulting model is identical across runs.
    """
    import numpy as np

    array = np.asarray(sample.data if hasattr(sample, "data") else sample)
    single = array[:1] if array.ndim >= 4 else array[None]
    probe = np.repeat(single, max(int(probe_batch), 2), axis=0)
    one = _stage_flops_and_bytes(partition, single)
    many = _stage_flops_and_bytes(partition, probe)
    secure_flags = [
        bool(partition.enclave is not None and stage.shield_target)
        for stage in partition.stages
    ]
    stages: list[StageCost] = []
    for index, stage in enumerate(partition.stages):
        flops_1, bytes_1 = one[index]
        flops_b, _ = many[index]
        per_sample_flops = (flops_b - flops_1) / (len(probe) - 1)
        base_flops = max(flops_1 - per_sample_flops, 0.0)
        to_us = 1.0 / (gflops * 1e3)  # FLOPs → µs at the nominal rate
        stages.append(
            StageCost(
                name=stage.name,
                secure=secure_flags[index],
                base_us=stage_overhead_us + base_flops * to_us,
                per_sample_us=max(per_sample_flops, 1.0) * to_us,
                input_nbytes_per_sample=int(bytes_1),
            )
        )
    model = StageCostModel(stages=stages, gflops=gflops)
    if boundary is not None:
        model.boundary = boundary
    return model
