"""One benchmark session in a fresh interpreter.

A *session* sets up one workload from nothing -- imports, spec, dataset,
model, ``method.prepare``, silo roster -- runs every
round back to back, and prints one JSON object describing what it
measured as its last line of output.  ``perfbench/run.py`` starts
sessions and aggregates them; run one by hand with::

    PYTHONPATH=src python3 perfbench/session.py --workload fig05-train \\
        --seed 0 --run-dir .bench_run [--mode setup] [--trace]

Modes: ``session`` (set-up and every round) and ``setup`` (stop when
the first round is ready).  ``setup_s`` counts from
``--spawn-wall``, the parent's wall clock just before it started this
interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest(params) -> str:
    import numpy as np

    return hashlib.sha256(
        np.ascontiguousarray(params, dtype=np.float64).tobytes()
    ).hexdigest()[:16]


def _history_summary(history, params) -> dict:
    final = history.final
    return {
        "metric": final.metric,
        "epsilon": final.epsilon,
        "digest": _digest(params),
        "round_seconds": list(history.round_seconds),
        "users_seen": [p.users_seen for p in history.participation],
        "uplink_bytes": [c.uplink_bytes for c in history.comm],
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children counts waited-for processes
    # (the silos of a networked session).
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def install_layer_spans(tracer) -> None:
    """Wrap each layer's public entry points (traced sessions only)."""
    import repro.api.runner  # noqa: F401
    import repro.core.engine  # noqa: F401
    import repro.core.metrics  # noqa: F401
    import repro.core.reduce
    import repro.data  # noqa: F401
    import repro.net.server  # noqa: F401
    import repro.net.transport
    import repro.net.wire  # noqa: F401
    import repro.nn.batched  # noqa: F401
    import repro.sim.scheduler
    from repro.accounting.accountant import PrivacyAccountant, RdpEvent
    from repro.core.methods.uldp_avg import UldpAvg
    from repro.core.trainer import Trainer

    t = tracer
    t.function("repro.api.runner", "build_trainer", "api.build")
    t.function("repro.api.runner", "build_simulator", "api.build")
    t.function("repro.api.runner", "build_dataset", "data.build")
    t.function("repro.data", "build_creditcard_benchmark", "data.build")
    t.function("repro.nn.batched", "per_group_gradients", "nn.per_group_gradients")

    def users(a, k):
        jobs = a[3] if len(a) > 3 else k["jobs"]
        return {"core.engine.users_trained": len(jobs)}

    t.function("repro.core.engine", "run_shard_task", "core.engine.local_train",
               after=lambda r, a, k: {"core.engine.users_trained": r["n_jobs"]})
    t.function("repro.core.engine", "batched_clipped_local_deltas",
               "core.engine.local_train", count=users)
    t.function("repro.core.engine", "batched_local_deltas",
               "core.engine.local_train", count=users)
    t.function("repro.core.engine", "batched_gradients",
               "core.engine.local_train")
    t.function("repro.core.engine", "fold_weighted_rows", "core.reduce.fold")
    binned = repro.core.reduce.BinnedSum
    for attr in ("add", "merge", "total"):
        t.method(binned, attr, "core.reduce.fold")
    t.method(UldpAvg, "round", "core.methods.round")
    t.function("repro.core.metrics", "evaluate_model", "core.metrics.evaluate")
    t.method(RdpEvent, "curve", "accounting.curve")
    t.method(PrivacyAccountant, "step", "accounting.step")
    t.method(PrivacyAccountant, "get_epsilon_and_alpha", "accounting.epsilon")
    t.method(Trainer, "step", "core.trainer.step")
    t.method(repro.sim.scheduler.FederationSimulator, "step", "sim.step")
    t.method(repro.net.transport.MessageSocket, "recv_matching",
             "net.silo_wait")
    t.function("repro.net.wire", "pack_frame", "net.pack",
               after=lambda data, a, k: {
                   f"net.bytes_out.{a[0] if a else k['msg_type']}": len(data)})
    t.function("repro.net.wire", "recv_frame", "net.recv_frame",
               after=lambda f, a, k: {f"net.bytes_in.{f.type}": f.nbytes})


class _Silos:
    """The silo processes of a networked session, started through
    ``perfbench/silo.py`` and always reaped."""

    def __init__(self, spec_file: str, port: int, n: int, run_dir: str,
                 trace: bool):
        self.procs = []
        self.metric_files = []
        env = dict(os.environ)
        for s in range(n):
            cmd = [sys.executable, os.path.join(HERE, "silo.py"),
                   "--config", spec_file, "--silo-id", str(s),
                   "--port", str(port)]
            if trace:
                out = os.path.join(run_dir, f"silo-{os.getpid()}-{s}.json")
                self.metric_files.append(out)
                cmd += ["--metrics-out", out]
            log = open(os.path.join(run_dir, f"silo-{os.getpid()}-{s}.log"),
                       "w")
            try:
                self.procs.append(subprocess.Popen(
                    cmd, env=env, stdout=log, stderr=subprocess.STDOUT))
            finally:
                log.close()

    def wait(self, timeout: float) -> list[int]:
        deadline = time.monotonic() + timeout
        codes = []
        for proc in self.procs:
            try:
                codes.append(proc.wait(max(0.1, deadline - time.monotonic())))
            except subprocess.TimeoutExpired:
                proc.kill()
                codes.append(proc.wait())
        return codes

    def kill(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    def metrics(self) -> dict:
        total: dict[str, float] = {}
        for path in self.metric_files:
            with open(path) as fh:
                for key, value in json.load(fh).items():
                    total[key] = total.get(key, 0.0) + value
        return total


def _run_local(obj, mode: str) -> tuple[float, float]:
    """Step a Trainer/FederationSimulator to the end; (start, end) perf."""
    start = time.perf_counter()
    if mode == "session":
        while not obj.done:
            obj.step()
    return start, time.perf_counter()


def _serve(spec, args, result: dict, tracer) -> tuple:
    """Serve ``spec`` to silo processes; returns (sim, start, end)."""
    from repro.core.weighting import QuorumError
    from repro.net.server import FederationServer
    from repro.net.transport import TransportError

    marks = {}
    original = FederationServer._await_roster

    def await_roster(self):
        original(self)
        marks["roster_wall"] = time.time()
        marks["roster_perf"] = time.perf_counter()

    FederationServer._await_roster = await_roster
    server = FederationServer(spec)
    spec_file = os.path.join(args.run_dir, f"spec-{os.getpid()}.json")
    with open(spec_file, "w") as fh:
        json.dump(spec.to_dict(), fh)
    bind_perf = time.perf_counter()
    port = server.bind()
    silos = _Silos(spec_file, port, server.sim.fed.n_silos, args.run_dir,
                   tracer is not None)
    try:
        try:
            server.serve()
        except (QuorumError, TransportError) as exc:
            result["rounds_aborted"] += 1
            result["errors"].append(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        codes = silos.wait(timeout=30.0)
    finally:
        silos.kill()
        server.close()
    if any(codes):
        result["errors"].append(f"silo exit codes {codes}")
    result["rounds_retried"] += server.retry_ledger["attempts"]
    if "roster_wall" not in marks:
        raise RuntimeError("the silo roster never completed")
    result["setup_s"] = marks["roster_wall"] - args.spawn_wall
    result["net_roster_s"] = marks["roster_perf"] - bind_perf
    if tracer is not None:
        result["silo_metrics"] = silos.metrics()
    return server.sim, marks["roster_perf"], end


def _compare_in_process(spec, sim) -> list[str]:
    """The networked history must equal the in-process one, exactly."""
    from repro.api.runner import build_simulator

    local = build_simulator(spec)
    while not local.done:
        local.step()
    errors = []
    if local.history.records != sim.history.records:
        errors.append("networked records differ from the in-process run")
    if local.history.participation != sim.history.participation:
        errors.append("networked participation differs from in-process")
    if _digest(local.trainer.params) != _digest(sim.trainer.params):
        errors.append("networked final params differ from in-process")
    return errors


def _layer_metrics(tracer, result: dict, obj, spec, run_start: float,
                   run_end: float) -> dict:
    """Per-layer metrics of one traced session (seconds are totals over
    the session; bytes are per round)."""
    tot = tracer.totals()
    counts = tracer.counts

    def total(name):
        return tot.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return tot.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return tot.get(name, [0, 0.0, 0.0])[0]

    rounds = max(1, len(result["round_seconds"]))
    accountant = obj.method.accountant
    steps = calls("accounting.step")
    curves = calls("accounting.curve")
    sigmas = {(e.sample_rate, e.noise_multiplier) for e in accountant.history}
    round_log = getattr(obj, "round_log", [])
    n_silos = obj.fed.n_silos
    bytes_in = {k.split(".", 2)[2]: v for k, v in counts.items()
                if k.startswith("net.bytes_in.")}
    bytes_out = {k.split(".", 2)[2]: v for k, v in counts.items()
                 if k.startswith("net.bytes_out.")}
    wire = sum(bytes_in.values()) + sum(bytes_out.values())
    ledger = sum(result["uplink_bytes"]) / rounds
    silo = result.get("silo_metrics", {})
    from repro.cost import predict

    report = predict(spec)
    run_s = run_end - run_start
    return {
        "data.build_s": total("data.build"),
        "api.build_s": self_s("api.build"),
        "net.roster_s": result.get("net_roster_s", 0.0),
        "nn.per_group_gradients_s": total("nn.per_group_gradients"),
        "nn.per_group_gradients_calls": calls("nn.per_group_gradients"),
        "core.engine.local_train_s": total("core.engine.local_train"),
        "core.engine.users_trained": counts.get("core.engine.users_trained", 0),
        "core.reduce.fold_s": total("core.reduce.fold"),
        "core.methods.round_self_s": self_s("core.methods.round"),
        "core.metrics.evaluate_s": total("core.metrics.evaluate"),
        "core.metrics.evaluate_calls": calls("core.metrics.evaluate"),
        "accounting.curve_s": total("accounting.curve"),
        "accounting.curves": curves,
        "accounting.steps": steps,
        "accounting.curve_hit_ratio": (1.0 - curves / steps) if steps else 0.0,
        "accounting.epsilon_s": total("accounting.epsilon"),
        "sim.step_self_s": self_s("sim.step"),
        "sim.dropped_silos": sum(n_silos - e["silos_included"]
                                 for e in round_log),
        "sim.distinct_sigma": len(sigmas),
        "net.silo_wait_s": total("net.silo_wait"),
        "net.pack_s": total("net.pack"),
        "net.recv_frame_s": total("net.recv_frame"),
        "net.frames": calls("net.pack") + calls("net.recv_frame"),
        "net.update_bytes_per_round": bytes_in.get("update", 0) / rounds,
        "net.compute_bytes_per_round": bytes_out.get("compute", 0) / rounds,
        "net.wire_bytes_per_round": wire / rounds,
        "net.silo_train_s": silo.get("train_s", 0.0),
        "net.silo_send_s": silo.get("send_s", 0.0),
        "net.silo_idle_s": silo.get("idle_s", 0.0),
        "ledger.uplink_bytes_per_round": ledger,
        "net.wire_to_ledger_ratio": wire / rounds / ledger if ledger else 0.0,
        "cost.predicted_uplink_bytes": report.round_totals["uplink_bytes"],
        "cost.predicted_round_s": report.round_totals["seconds"],
        # Share of run_s that the layer spans explain: the round loop's
        # own container span is left out.
        "trace.coverage": sum(
            row[2] for name, row in tracer.totals(run_start, run_end).items()
            if name != "core.trainer.step") / run_s,
    }


def run_session(args) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    result = {"workload": workload.name, "seed": args.seed, "mode": args.mode,
              "trace": bool(args.trace), "errors": [], "rounds_retried": 0,
              "rounds_aborted": 0}
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(run_id=f"{workload.name}:{args.seed}:{os.getpid()}")
        install_layer_spans(tracer)
    from repro.api import RunSpec
    from repro.api.runner import build_simulator, build_trainer
    from workloads import register_scenarios

    register_scenarios()
    spec = RunSpec.from_dict(workload.spec_tree(args.seed))
    if workload.kind == "net":
        obj, start, end = _serve(spec, args, result, tracer)
    else:
        obj = (build_trainer(spec) if workload.kind == "train"
               else build_simulator(spec))
        result["setup_s"] = time.time() - args.spawn_wall
        start, end = _run_local(obj, args.mode)
    result["peak_rss_mb"] = _peak_rss_mb()
    if args.mode == "setup":
        return result
    result["run_s"] = end - start
    history = obj.history
    result["rounds_attempted"] = (len(history.round_seconds)
                                  + result["rounds_retried"])
    result.update(_history_summary(history, obj.trainer.params
                                   if hasattr(obj, "trainer") else obj.params))
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, result, obj, spec, start, end)
        if args.spans_out:
            tracer.write(args.spans_out)
    if args.check_in_process:
        result["errors"] += _compare_in_process(spec, obj)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("session", "setup"),
                        default="session")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check-in-process", action="store_true",
                        help="net workload: also run the spec in process "
                             "and require an identical history")
    parser.add_argument("--spans-out", default=None,
                        help="traced session: write its spans here (JSONL)")
    parser.add_argument("--spawn-wall", type=float, default=None)
    parser.add_argument("--run-dir", default=".bench_run")
    args = parser.parse_args(argv)
    if args.spawn_wall is None:
        args.spawn_wall = time.time()
    os.makedirs(args.run_dir, exist_ok=True)
    result = run_session(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
