"""Uldp-FL benchmark: run one workload, check its outputs, print metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fig05-train --seed 0 --seconds 45 \\
        --trace 0

Each workload is a closed loop driven by this one process: it starts one
fresh interpreter (``perfbench/session.py``) at a time, each of which sets
the workload up from nothing and runs every round back to back, until
``--seconds`` have passed.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced session
(plus an untraced one, for the tracing overhead).  Every run checks its
outputs: all sessions of a run must agree bit for bit, the default seed
must reproduce ``pinned.json``, and the networked workload must equal
its in-process twin.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` (rounds) and ``metrics``.

``--pin`` runs one session of the default seed and records its outputs,
for this host, in ``pinned.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

#: (name, unit) of every end-to-end metric, printed with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("round_s.p50", "s"),
    ("user_updates_per_s", "1/s"),
    ("uplink_bytes_per_round", "B"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, printed with --trace 1.
PER_LAYER = (
    ("import.total_s", "s"),
    ("import.scipy_s", "s"),
    ("data.build_s", "s"),
    ("api.build_s", "s"),
    ("net.roster_s", "s"),
    ("nn.per_group_gradients_s", "s"),
    ("nn.per_group_gradients_calls", "count"),
    ("core.engine.local_train_s", "s"),
    ("core.engine.users_trained", "count"),
    ("core.reduce.fold_s", "s"),
    ("core.methods.round_self_s", "s"),
    ("core.metrics.evaluate_s", "s"),
    ("core.metrics.evaluate_calls", "count"),
    ("accounting.curve_s", "s"),
    ("accounting.curves", "count"),
    ("accounting.steps", "count"),
    ("accounting.curve_hit_ratio", "ratio"),
    ("accounting.epsilon_s", "s"),
    ("sim.step_self_s", "s"),
    ("sim.dropped_silos", "count"),
    ("sim.distinct_sigma", "count"),
    ("net.silo_wait_s", "s"),
    ("net.pack_s", "s"),
    ("net.recv_frame_s", "s"),
    ("net.frames", "count"),
    ("net.update_bytes_per_round", "B"),
    ("net.compute_bytes_per_round", "B"),
    ("net.wire_bytes_per_round", "B"),
    ("net.silo_train_s", "s"),
    ("net.silo_send_s", "s"),
    ("net.silo_idle_s", "s"),
    ("ledger.uplink_bytes_per_round", "B"),
    ("net.wire_to_ledger_ratio", "ratio"),
    ("cost.predicted_uplink_bytes", "B"),
    ("cost.predicted_round_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("ops.sessions", "count"),
    ("ops.sessions_failed", "count"),
    ("ops.rounds_retried", "count"),
    ("ops.rounds_aborted", "count"),
)

#: No run may come near the 180 s limit, whatever --seconds says.
HARD_STOP_S = 140.0
SESSION_TIMEOUT_S = 120.0
PINNED = os.path.join(HERE, "pinned.json")


# -- host fingerprint --------------------------------------------------------


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, queried from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var])
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_rev": _git_rev(),
    }


def digest_key(host: dict) -> str:
    """What the final-params digest depends on: BLAS build, threads, CPU."""
    return (f"{host['cpu']}|nproc={host['nproc']}|numpy={host['numpy']}|"
            f"{host['blas']}|threads={host['blas_threads']}")


# -- sessions ----------------------------------------------------------------


class Runner:
    """Starts sessions of one workload, one at a time, and keeps them."""

    def __init__(self, workload, seed: int, run_dir: str):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.sessions: list[dict] = []
        self.setups: list[float] = []
        #: Where a traced session writes its spans; kept after the run.
        self.spans_path = os.path.join(
            os.path.dirname(run_dir), f"spans-{workload.name}-{seed}.jsonl")
        #: Sessions that ended without a result (crash or timeout).
        self.lost = 0
        self.failures: list[str] = []

    def _spawn(self, extra: list[str], python_flags=()) -> subprocess.CompletedProcess:
        """Run one session to completion.  It gets a process group of its
        own, so a timeout also kills the silo processes it started."""
        cmd = [sys.executable, *python_flags, os.path.join(HERE, "session.py"),
               "--workload", self.workload.name, "--seed", str(self.seed),
               "--run-dir", self.run_dir, "--spawn-wall", repr(time.time()),
               *extra]
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=SESSION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)

    def session(self, mode="session", trace=False, check_in_process=False,
                importtime=False):
        extra = ["--mode", mode]
        if trace:
            extra += ["--trace", "--spans-out", self.spans_path]
        if check_in_process:
            extra.append("--check-in-process")
        flags = ("-X", "importtime") if importtime else ()
        try:
            proc = self._spawn(extra, flags)
        except subprocess.TimeoutExpired:
            self.lost += 1
            self.failures.append(f"{mode} session timed out")
            return None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None:
            self.lost += 1
            tail = proc.stderr.strip().splitlines()[-3:]
            self.failures.append(
                f"{mode} session exited {proc.returncode}: {' | '.join(tail)}")
            return None
        self.failures += [f"{mode} session: {e}" for e in result["errors"]]
        self.setups.append(result["setup_s"])
        if mode == "session":
            self.sessions.append(result)
        if importtime:
            result["imports"] = import_times(proc.stderr)
        return result


def import_times(stderr: str) -> dict:
    """Total and scipy seconds from a ``-X importtime`` log: every module
    the session imported, lazily imported ones included."""
    total = scipy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        if not name.startswith("  "):  # imported at top level
            total += int(cumulative) / 1e6
        if name.strip() == "scipy":
            scipy = int(cumulative) / 1e6
    return {"import.total_s": total, "import.scipy_s": scipy}


def run_untraced(runner: Runner, seconds: float) -> None:
    wl = runner.workload
    start = time.perf_counter()
    n = 0
    while True:
        runner.session(check_in_process=(wl.kind == "net" and n == 0))
        for _ in range(wl.setup_probes):
            runner.session(mode="setup")
        n += 1
        elapsed = time.perf_counter() - start
        per_session = elapsed / n
        # Stop when one more session would end further from --seconds
        # than stopping now does.
        if n >= wl.min_sessions and elapsed + per_session / 2 > seconds:
            break
        if elapsed + per_session > HARD_STOP_S or runner.failures:
            break


def run_traced(runner: Runner) -> dict:
    """One untraced session (under ``-X importtime``) and one traced one."""
    untraced = runner.session(check_in_process=runner.workload.kind == "net",
                              importtime=True)
    traced = runner.session(trace=True)
    if untraced is None or traced is None:
        return {}
    layers = dict(traced["layers"])
    layers.update(untraced["imports"])
    layers["trace.overhead_pct"] = 100.0 * (traced["run_s"] / untraced["run_s"] - 1.0)
    return layers


# -- checks and metrics ------------------------------------------------------


def check_outputs(runner: Runner, host: dict) -> list[str]:
    """Every session agrees; the default seed reproduces pinned.json."""
    problems = list(runner.failures)
    outputs = {(s["metric"], s["epsilon"], s["digest"]) for s in runner.sessions}
    if len(outputs) > 1:
        problems.append(f"sessions of one seed disagree: {sorted(outputs)}")
    for metric, epsilon, _ in outputs:
        if not (math.isfinite(metric) and math.isfinite(epsilon) and epsilon > 0):
            problems.append(f"non-finite metric/epsilon {metric!r}/{epsilon!r}")
    if runner.seed == DEFAULT_SEED and outputs:
        with open(PINNED) as fh:
            pinned = json.load(fh)[runner.workload.name]
        metric, epsilon, digest = next(iter(outputs))
        if metric != pinned["metric"] or epsilon != pinned["epsilon"]:
            problems.append(
                f"metric/epsilon {metric!r}/{epsilon!r} != pinned "
                f"{pinned['metric']!r}/{pinned['epsilon']!r}")
        want = pinned["digest"].get(digest_key(host))
        if want is not None and digest != want:
            problems.append(f"params digest {digest} != pinned {want}")
    return problems


def end_to_end(runner: Runner) -> dict:
    rounds = [x for s in runner.sessions for x in s["round_seconds"]]
    users = sum(sum(s["users_seen"]) for s in runner.sessions)
    uplink = [b for s in runner.sessions for b in s["uplink_bytes"]]
    return {
        "setup_s": (statistics.median(runner.setups), len(runner.setups)),
        "run_s": (statistics.median(s["run_s"] for s in runner.sessions),
                  len(runner.sessions)),
        "round_s.p50": (statistics.median(rounds), len(rounds)),
        "user_updates_per_s": (users / sum(rounds), len(rounds)),
        "uplink_bytes_per_round": (statistics.fmean(uplink), len(uplink)),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in runner.sessions),
                        len(runner.sessions)),
    }


def rounds_planned(runner: Runner) -> int:
    return runner.workload.spec_tree(runner.seed)["rounds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this host's default-seed outputs in "
                             "pinned.json instead of checking them")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run.py: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    # Byte-compile once so every session starts from the same warm cache.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE],
                   check=True, stdout=subprocess.DEVNULL)
    host = host_fingerprint()
    run_dir = os.path.join(".bench_run", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    runner = Runner(WORKLOADS[args.workload], args.seed, run_dir)
    try:
        if args.pin:
            return pin(runner, host)
        if args.trace:
            layers = run_traced(runner)
        else:
            run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(".bench_run")
        except OSError:
            pass
    problems = check_outputs(runner, host)
    retried = sum(s["rounds_retried"] for s in runner.sessions)
    aborted = sum(s["rounds_aborted"] for s in runner.sessions)
    failed_sessions = runner.lost + sum(bool(s["errors"]) for s in runner.sessions)
    attempted = (sum(s["rounds_attempted"] for s in runner.sessions)
                 + runner.lost * rounds_planned(runner))
    # A failed check fails every round of the run.
    failed = attempted if problems else aborted

    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {len(runner.sessions)} session(s)")
    metrics = {}
    if args.trace:
        layers.update({
            "ops.sessions": len(runner.sessions),
            "ops.sessions_failed": failed_sessions,
            "ops.rounds_retried": retried,
            "ops.rounds_aborted": aborted,
        })
        for name, unit in PER_LAYER:
            if name in layers:
                metrics[name] = {"value": layers[name], "unit": unit}
                print(f"  {name:32s} {layers[name]:>16.6g} {unit}")
        if os.path.exists(runner.spans_path):
            print(f"spans: {runner.spans_path}")
        if "ledger.uplink_bytes_per_round" in layers:
            print(f"bytes/round: ledger {layers['ledger.uplink_bytes_per_round']:.0f}"
                  f"  wire {layers['net.wire_bytes_per_round']:.0f}"
                  f"  cost {layers['cost.predicted_uplink_bytes']:.0f}")
    elif runner.sessions:
        for (name, unit), (value, n) in zip(END_TO_END, end_to_end(runner).values()):
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:24s} {value:>16.6g} {unit:4s} (n={n})")
    print(f"failures: sessions {len(runner.sessions) + runner.lost} "
          f"attempted / {failed_sessions} failed; rounds {attempted} "
          f"attempted / {retried} retried / {aborted} aborted")
    print("checks: " + ("ok" if not problems else "; ".join(problems)))
    print(json.dumps({"correct": not problems, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


def pin(runner: Runner, host: dict) -> int:
    """Record the default seed's outputs for this host in pinned.json."""
    runner.seed = DEFAULT_SEED
    result = runner.session(check_in_process=runner.workload.kind == "net")
    if result is None:
        print("\n".join(runner.failures), file=sys.stderr)
        return 1
    pinned = {}
    if os.path.exists(PINNED):
        with open(PINNED) as fh:
            pinned = json.load(fh)
    entry = pinned.setdefault(runner.workload.name, {"digest": {}})
    entry["metric"] = result["metric"]
    entry["epsilon"] = result["epsilon"]
    entry["digest"][digest_key(host)] = result["digest"]
    with open(PINNED, "w") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(entry, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
