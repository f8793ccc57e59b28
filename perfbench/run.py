"""End-to-end benchmark of the PELTA reproduction: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3_attack --seed 1 --seconds 10 --trace 0

The run sets its workload up ``SETUP_REPEATS`` times from ``--seed``, then
runs operations in a closed loop for ``--seconds`` (and at least the
workload's minimum count), checks every output against a reference computed
in the same process, and prints one JSON object as the last line of standard
output: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced operations.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (self time per layer, counts, the
unattributed remainder) plus the tracing overhead.  Each run also writes its
context record, operation times and, when traced, every span to
``.perfbench_out/`` in the working directory.  See ``README.md`` beside this
file for what every metric means and which end-to-end metric it moves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s_per_op": "s",
}

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = {
    "eval.engine.dataset_s": "s",
    "eval.engine.defender_train_s": "s",
    "eval.engine.cell_s": "s",
    "eval.engine.orchestration_s": "s",
    "attacks.engine.gradient_calls": "count",
    "attacks.engine.sample_queries": "count",
    "attacks.engine.queries_per_s": "1/s",
    "attacks.engine.driver_overhead_s": "s",
    "core.views.clear_gradient_s": "s",
    "core.views.shielded_gradient_s": "s",
    "attacks.bpda.upsample_s": "s",
    "autodiff.capture.records": "count",
    "autodiff.capture.replays": "count",
    "autodiff.capture.fallbacks": "count",
    "autodiff.capture.replay_ratio": "ratio",
    "autodiff.capture.replay_call_s": "s",
    "autodiff.capture.record_call_s": "s",
    "autodiff.capture.eager_call_s": "s",
    "autodiff.ops.kernel_s": "s",
    "autodiff.ops.conv2d_s": "s",
    "autodiff.ops.matmul_s": "s",
    "autodiff.ops.captured_replay_s": "s",
    "autodiff.ops.gflop": "GFLOP",
    "autodiff.ops.gbytes": "GB",
    "fl.client.task_s": "s",
    "fl.client.train_s": "s",
    "fl.runtime.broadcast_s": "s",
    "fl.runtime.open_s": "s",
    "fl.runtime.eval_s": "s",
    "fl.runtime.wire_bytes": "bytes",
    "fl.aggregation.add_s": "s",
    "fl.aggregation.finalize_s": "s",
    "tee.secure_channel.encrypt_s": "s",
    "tee.secure_channel.decrypt_s": "s",
    "tee.secure_channel.calls": "count",
    "tee.secure_channel.bytes": "bytes",
    "tee.secure_channel.mb_per_s": "MB/s",
    "tee.world.switches": "count",
    "tee.world.bytes_in": "bytes",
    "tee.world.bytes_out": "bytes",
    "serve.session.seal_query_s": "s",
    "serve.session.unseal_query_s": "s",
    "serve.session.seal_reply_s": "s",
    "serve.session.open_reply_s": "s",
    "serve.gateway.secure_stage_s": "s",
    "serve.gateway.clear_stage_s": "s",
    "serve.gateway.scheduler_s": "s",
    "serve.gateway.cohort_size": "count",
    "serve.gateway.shed": "count",
    "table3_attack.unattributed_s": "s",
    "fl_sealed_rounds.unattributed_s": "s",
    "fl_thousand_clients.unattributed_s": "s",
    "gateway_sealed.unattributed_s": "s",
    "trace.overhead": "ratio",
}


def _import_program():
    """Put the checkout's ``src`` first on the path and import the workloads."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    return spans, workloads


def _openblas_threads():
    """Thread count of the OpenBLAS NumPy loaded, or None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _source_sha256() -> str:
    """Digest of every file under ``src/`` (the checkout is not a git tree)."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    """Commit of the checkout when it is a git tree with a loose HEAD ref."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    return ref_path.read_text().strip() if ref_path.is_file() else None


def context_record(args) -> dict:
    """Host, thread and program settings every result is stored with."""
    import numpy as np

    from repro.autodiff.capture import replay_thread_count
    from repro.autodiff.tensor import get_default_dtype

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dtype": str(get_default_dtype()),
        "openblas_threads": _openblas_threads(),
        "replay_threads": replay_thread_count(),
        "engine_executor": "serial",
        "fl_transport": "in-process",
        "env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
            or key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "setup_repeats": SETUP_REPEATS,
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile (NumPy's default rule)."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload_name: str, breakdown: dict) -> dict:
    """Per-layer metric values of one traced operation."""
    layers, counts = breakdown["layers"], breakdown["counts"]

    def total(name):
        return layers[name]["total_s"] if name in layers else 0.0

    def own(name):
        return layers[name]["self_s"] if name in layers else 0.0

    def mean(name):
        return _ratio(total(name), layers[name]["calls"]) if name in layers else 0.0

    def count(name):
        return counts.get(name, 0)

    def per_call(kind):
        return _ratio(count(f"autodiff.capture.{kind}_seconds"), count(f"autodiff.capture.{kind}_calls"))

    channel_s = total("tee.secure_channel.encrypt") + total("tee.secure_channel.decrypt")
    tasks = layers.get("fl.client.task", {}).get("calls", 0)
    values = {
        "eval.engine.cell_s": mean("eval.engine.cell"),
        "eval.engine.orchestration_s": own("eval.engine.grid"),
        "attacks.engine.gradient_calls": count("attacks.engine.gradient_calls"),
        "attacks.engine.sample_queries": count("attacks.engine.sample_queries"),
        "attacks.engine.queries_per_s": _ratio(
            count("attacks.engine.sample_queries"), total("attacks.engine.run")
        ),
        "attacks.engine.driver_overhead_s": own("attacks.engine.run"),
        "core.views.clear_gradient_s": mean("core.views.clear_gradient"),
        "core.views.shielded_gradient_s": mean("core.views.shielded_gradient"),
        "attacks.bpda.upsample_s": mean("attacks.bpda.upsample"),
        "autodiff.capture.records": count("autodiff.capture.records"),
        "autodiff.capture.replays": count("autodiff.capture.replays"),
        "autodiff.capture.fallbacks": count("autodiff.capture.fallbacks"),
        "autodiff.capture.replay_ratio": _ratio(
            count("autodiff.capture.replays"), count("autodiff.capture.calls")
        ),
        "autodiff.capture.replay_call_s": per_call("replay"),
        "autodiff.capture.record_call_s": per_call("record"),
        "autodiff.capture.eager_call_s": per_call("eager"),
        "autodiff.ops.kernel_s": count("autodiff.ops.kernel_s"),
        "autodiff.ops.conv2d_s": count("autodiff.ops.conv2d_s"),
        "autodiff.ops.matmul_s": count("autodiff.ops.matmul_s"),
        "autodiff.ops.captured_replay_s": count("autodiff.ops.captured_replay_s"),
        "autodiff.ops.gflop": count("autodiff.ops.gflop"),
        "autodiff.ops.gbytes": count("autodiff.ops.gbytes"),
        "fl.client.task_s": mean("fl.client.task"),
        "fl.client.train_s": _ratio(own("fl.client.task"), tasks),
        "fl.runtime.broadcast_s": total("fl.runtime.broadcast"),
        "fl.runtime.open_s": total("fl.runtime.open"),
        "fl.runtime.eval_s": total("fl.runtime.eval"),
        "fl.runtime.wire_bytes": count("fl.runtime.wire_bytes"),
        "fl.aggregation.add_s": total("fl.aggregation.add"),
        "fl.aggregation.finalize_s": total("fl.aggregation.finalize"),
        "tee.secure_channel.encrypt_s": total("tee.secure_channel.encrypt"),
        "tee.secure_channel.decrypt_s": total("tee.secure_channel.decrypt"),
        "tee.secure_channel.calls": layers.get("tee.secure_channel.encrypt", {}).get("calls", 0)
        + layers.get("tee.secure_channel.decrypt", {}).get("calls", 0),
        "tee.secure_channel.bytes": count("tee.secure_channel.bytes"),
        "tee.secure_channel.mb_per_s": _ratio(count("tee.secure_channel.bytes") / 1e6, channel_s),
        "tee.world.switches": count("tee.world.switches"),
        "tee.world.bytes_in": count("tee.world.bytes_in"),
        "tee.world.bytes_out": count("tee.world.bytes_out"),
        "serve.session.seal_query_s": total("serve.session.seal_query"),
        "serve.session.unseal_query_s": total("serve.session.unseal_query"),
        "serve.session.seal_reply_s": total("serve.session.seal_reply"),
        "serve.session.open_reply_s": total("serve.session.open_reply"),
        "serve.gateway.secure_stage_s": total("serve.gateway.secure_stage"),
        "serve.gateway.clear_stage_s": total("serve.gateway.clear_stage"),
        "serve.gateway.scheduler_s": own("serve.gateway.serve"),
        "serve.gateway.cohort_size": count("serve.gateway.cohort_size"),
        "serve.gateway.shed": count("serve.gateway.shed"),
    }
    for name in ("table3_attack", "fl_sealed_rounds", "fl_thousand_clients", "gateway_sealed"):
        values[f"{name}.unattributed_s"] = (
            breakdown["unattributed_s"] if name == workload_name else 0.0
        )
    return values


def _profile_counts(tracer, profiler) -> None:
    """Fold one operation's op-profiler rows into the tracer's counters."""
    rows = profiler.as_dict()
    tracer.count("autodiff.ops.kernel_s", sum(row["seconds"] for row in rows.values()))
    for prefix in ("conv2d", "matmul", "captured_replay"):
        tracer.count(
            f"autodiff.ops.{prefix}_s",
            sum(row["seconds"] for name, row in rows.items() if name.startswith(prefix)),
        )
    tracer.count("autodiff.ops.gflop", sum(row["flops"] for row in rows.values()) / 1e9)
    tracer.count("autodiff.ops.gbytes", sum(row["bytes_moved"] for row in rows.values()) / 1e9)


def run(args) -> tuple[dict, dict]:
    """Execute one benchmark run; returns (result line, run record)."""
    spans, workloads = _import_program()
    from repro.autodiff.profiler import profile_ops

    context = context_record(args)
    workload = workloads.WORKLOADS[args.workload](args.size)
    tracer = spans.Tracer() if args.trace else None

    setup_times, setup_breakdowns = [], []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        if tracer is None:
            workload.setup(args.seed)
        else:
            tracer.op = f"setup{repeat}"
            with tracer.span("setup"):
                workload.setup(args.seed, tracer)
            setup_breakdowns.append(spans.op_breakdown(tracer, tracer.op))
        setup_times.append(time.perf_counter() - start)

    outputs, timed, failures = [], [], []
    attempted = 0
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    while (
        time.perf_counter() - start < args.seconds
        or attempted < workload.min_ops
        or (tracer is not None and attempted < 2)
    ):
        traced = tracer is not None and attempted % 2 == 1
        try:
            if traced:
                tracer.op = attempted
                with workload.patches(tracer), profile_ops() as profiler:
                    began = time.perf_counter()
                    with tracer.span(workload.root):
                        output = workload.op(attempted, tracer)
                    seconds = time.perf_counter() - began
                _profile_counts(tracer, profiler)
            else:
                began = time.perf_counter()
                output = workload.op(attempted)
                seconds = time.perf_counter() - began
        except Exception as error:  # a failed operation is counted, not fatal
            failures.append(f"operation {attempted} raised {type(error).__name__}: {error}")
        else:
            outputs.append(output)
            timed.append({"op": attempted, "seconds": seconds, "traced": traced})
        attempted += 1
    cpu_seconds = _cpu_seconds() - cpu_start
    # The references the checks compute must not count towards the peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    mismatches = workload.check(outputs) if outputs else ["no operation completed"]
    untraced = [entry["seconds"] for entry in timed if not entry["traced"]]
    traced = [entry for entry in timed if entry["traced"]]
    record = {
        "context": context,
        "workload_config": workload.describe(),
        "setup_seconds": setup_times,
        "ops": timed,
        "failures": failures,
        "mismatches": mismatches,
        "sample_counts": {
            "setup": len(setup_times),
            "untraced_ops": len(untraced),
            "traced_ops": len(traced),
        },
    }
    if tracer is None:
        metrics = {
            "op_p50_ms": _percentile(untraced, 50) * 1e3,
            "op_p95_ms": _percentile(untraced, 95) * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "cpu_s_per_op": cpu_seconds / attempted,
        }
        units = END_TO_END
    else:
        breakdowns = {entry["op"]: spans.op_breakdown(tracer, entry["op"]) for entry in traced}
        per_op = [layer_metrics(args.workload, breakdown) for breakdown in breakdowns.values()]
        metrics = {name: statistics.median(values[name] for values in per_op) for name in per_op[0]}
        for name in ("dataset", "defender_train"):
            metrics[f"eval.engine.{name}_s"] = statistics.median(
                b["layers"].get(f"eval.engine.{name}", {}).get("total_s", 0.0)
                for b in setup_breakdowns
            )
        metrics["trace.overhead"] = statistics.median(
            entry["seconds"] for entry in traced
        ) / statistics.median(untraced)
        units = PER_LAYER
        record["breakdowns"] = {str(op): b for op, b in breakdowns.items()}
        record["setup_breakdowns"] = setup_breakdowns
        record["spans"] = spans.span_records(tracer)
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("bench", "tiny"),
        default="bench",
        help="tiny shrinks every workload for the benchmark's self-tests",
    )
    parser.add_argument("--out", default=".perfbench_out", help="directory of run records")
    args = parser.parse_args(argv)

    result, record = run(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (out / name).write_text(json.dumps(record, indent=1, default=str))
    for metric, entry in result["metrics"].items():
        print(f"{metric:<40} {entry['value']:>16.6g} {entry['unit']}", file=sys.stderr)
    for error in record["failures"] + record["mismatches"]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
