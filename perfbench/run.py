"""Benchmark runner for botnet_mfg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--result PATH]

Run from the repository root.  The program is imported from ``src/`` of
the same checkout and called in-process, single-threaded.  One run:

1. times SETUP_PROBES fresh processes that each import botnet_mfg, make
   the inputs and run one warm-up unit (``setup_s`` is their median);
2. makes the workload's inputs from the seed and warms up;
3. repeats the workload's fixed work (a pass) for ``--seconds`` seconds,
   at least twice, checking every pass's outputs and that every pass's
   output digest equals the first's;
4. prints the machine and code record, every metric by name and unit,
   and as its last line one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
from untraced passes.  With ``--trace 1`` the first half of the time runs
untraced passes and the second half traced passes; the metrics are the
per-layer ones of the traced pass with the median wall time, plus the
tracing overhead (median traced minus median untraced pass).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # a setup probe's clock starts before any import

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from statistics import median  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
HOLDOUT_SEED = 7207        # not used while the benchmark was tuned
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# phase_diagram command medians, printed next to the end-to-end metrics
COMMAND_METRICS = {"sweep": ("sweep_s", "s", 1.0),
                   "equilibria": ("equilibria_ms", "ms", 1e3),
                   "thresholds": ("thresholds_ms", "ms", 1e3)}


def import_program():
    """Import botnet_mfg from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import botnet_mfg

    if not os.path.abspath(botnet_mfg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"botnet_mfg imported from {botnet_mfg.__file__}, not {SRC}")
    return botnet_mfg


def cpu_seconds() -> float:
    """CPU time of this process plus that of every reaped child."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def machine_record() -> dict:
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def code_record() -> dict:
    """Commit, line count and content hash of src/."""
    lines = 0
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            lines += data.count(b"\n")
            h.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
    return {"git_commit": git_commit(), "src_lines": lines, "src_sha256": h.hexdigest()}


@dataclass
class PassRecord:
    wall: float
    cpu: float
    digest: str
    verdict: object
    op_times: dict
    layers: dict | None = None


def run_passes(wl, inputs, seconds: float, min_passes: int, tracer=None) -> tuple[list, object]:
    """Repeat the workload's pass for `seconds` (at least min_passes times).

    Returns the pass records and the first pass's output.  With a tracer,
    its spans are reset before and read after each pass.
    """
    import layers

    records: list[PassRecord] = []
    first = None
    start = time.perf_counter()
    while len(records) < min_passes or time.perf_counter() - start < seconds:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        out = wl.run_pass(inputs)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        metrics = None
        if tracer is not None:
            metrics = layers.layer_metrics(tracer)
        records.append(PassRecord(wall, cpu, out.digest(), wl.check(inputs, out),
                                  out.op_times, metrics))
        if first is None:
            first = out
    return records, first


def probe_setup(workload: str, seed: int) -> float:
    """Time one fresh process that imports, makes inputs and warms up."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def scratch_dir():
    """Temporary directory inside the checkout, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run.  Returns (printed result, detailed record)."""
    import tracer as tracer_mod
    import workloads
    import layers

    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    setup = [] if trace else [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    wl = workloads.WORKLOADS[workload]
    with scratch_dir() as workdir:
        inputs = wl.make_inputs(seed, workdir)
        wl.warm_up(inputs)
        if trace:
            plain, first = run_passes(wl, inputs, seconds / 2, 1)
            tr = tracer_mod.Tracer(keep_durations=layers.PER_CALL)
            with tracer_mod.installed(tr, layers.TARGETS):
                traced, _ = run_passes(wl, inputs, seconds / 2, 1, tracer=tr)
            records = plain + traced
        else:
            records, first = run_passes(wl, inputs, seconds, 2)
        rerun = wl.rerun_check(inputs, first)
        report = wl.report(inputs, first)

    attempted = sum(r.verdict.attempted for r in records)
    failures = [f for r in records for f in r.verdict.failures]
    for i, r in enumerate(records[1:], start=1):
        attempted += 1
        if r.digest != records[0].digest:
            failures.append(f"pass {i} output differs from pass 0")
    attempted += rerun.attempted
    failures += rerun.failures

    detail: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "passes": len(records), "digest": records[0].digest,
                    "fail_ratio": len(failures) / attempted, "failures": failures[:20],
                    **report}
    ops: dict[str, list[float]] = {}
    for r in records:
        for kind, times in r.op_times.items():
            ops.setdefault(kind, []).extend(times)
    detail["op_median_s"] = {kind: median(times) for kind, times in ops.items()}
    detail["op_count"] = {kind: len(times) for kind, times in ops.items()}

    if trace:
        pick = sorted(traced, key=lambda r: r.wall)[(len(traced) - 1) // 2]
        values = dict(pick.layers)
        values["trace.wall_s"] = pick.wall
        values["trace.overhead_s"] = (median(r.wall for r in traced)
                                      - median(r.wall for r in plain))
        detail["self_s_sum"] = sum(v for k, v in values.items()
                                   if k.endswith(".self_s"))
        detail["per_call_median_s"] = {name: median(d) for name, d in tr.durations.items() if d}
        detail["per_call_count"] = {name: len(d) for name, d in tr.durations.items()}
        detail["untraced_wall_s"] = median(r.wall for r in plain)
    else:
        values = {
            "wall_s": median(r.wall for r in records),
            "cpu_s": median(r.cpu for r in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": median(setup),
        }
        extra = {"fail_ratio": (detail["fail_ratio"], "1")}
        for kind, (name, unit, scale) in COMMAND_METRICS.items():
            if kind in ops:
                extra[name] = (median(ops[kind]) * scale, unit)
        detail["extra_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
        detail["setup_samples_s"] = setup
        detail["pass_s"] = {"wall": [r.wall for r in records], "cpu": [r.cpu for r in records]}

    names = {m["name"] for m in declared}
    if set(values) != names:
        raise RuntimeError(f"metrics {sorted(set(values) ^ names)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, detail


def write_result(path: str, machine: dict, code: dict, trace: bool,
                 result: dict, detail: dict) -> None:
    """Merge this run into a result file keyed by workload and mode."""
    record: dict = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    record["machine"] = machine
    record["code"] = code
    entry = record.setdefault("workloads", {}).setdefault(detail["workload"], {})
    entry[f"trace{int(trace)}"] = {"result": result, "detail": detail}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("phase_diagram", "kinetic_limit", "myopic_feedback",
                                 "self_check"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="merge the detailed record into this JSON file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import botnet_mfg from {SRC}: {exc}\n")
        return 2

    if args.setup_probe:
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        with scratch_dir() as workdir:
            wl.warm_up(wl.make_inputs(args.seed, workdir))
        print(repr(time.perf_counter() - T0))
        return 0

    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    machine, code = machine_record(), code_record()
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    recorded = load_digests().get(args.workload, {}).get(str(args.seed))
    detail["digest_recorded"] = recorded
    detail["digest_match"] = None if recorded is None else recorded == detail["digest"]

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={detail['passes']}")
    print("# machine " + json.dumps(machine, sort_keys=True))
    print("# code " + json.dumps(code, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for name, m in detail.get("extra_metrics", {}).items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    if "deviation_slope" in detail:
        print(f"# deviation slope {detail['deviation_slope']:.4f} "
              f"(criterion 8 band {detail['slope_band']}, not a gate here)")
    for name, value in detail.get("per_call_median_s", {}).items():
        print(f"# per-call median {name} {value * 1e3:.4f} ms "
              f"over {detail['per_call_count'][name]} traced calls")
    if args.trace:
        print(f"# tracing overhead {result['metrics']['trace.overhead_s']['value']:.4f} s; "
              f"self times sum to {detail['self_s_sum']:.4f} s of traced wall "
              f"{result['metrics']['trace.wall_s']['value']:.4f} s")
    match = {None: "unrecorded", True: "match", False: "MISMATCH"}[detail["digest_match"]]
    print(f"# digest {detail['digest']} recorded {recorded} {match}")
    for failure in detail["failures"]:
        print(f"# FAILED {failure}")
    if args.result:
        write_result(args.result, machine, code, bool(args.trace), result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
