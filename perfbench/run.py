"""dickeqfi benchmark: one workload, timed passes of fresh interpreters.

    python3 perfbench/run.py --workload sweep|cascade|verify|all --seed N \
        --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory
and the program is imported from its ``src/``.  With ``--trace 0`` it
times untraced passes and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes at one worker and
reports the per-layer metrics.  Every operation's output goes through
the correctness gate in ``workloads.py``.  The last stdout line is one
JSON object; a full record, computed values included, is written to
``perfbench/results/``.  Exit code: 0 when every check passed, 1 when a
check failed, 2 when the program cannot be set up at all.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import metrics, workloads  # noqa: E402

RESULTS = ROOT / "perfbench" / "results"
SETUP_SAMPLES = 5
MIN_PASSES = 2
OP_TIMEOUT_S = 60.0
IMPORT_CLI = "import dickeqfi.cli"


class SetupError(RuntimeError):
    """The program cannot be imported or run; no result is printed."""


def child_env() -> dict:
    """Pinned environment: explicit threads, no inherited worker default."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("DICKEQFI_JOBS", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_process(argv: list[str], env: dict, workdir: Path) -> dict:
    """Run one child to completion; wall, user+sys and peak RSS include
    every process it started and waited for (its pool workers)."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(OP_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes(),
    }


def run_pass(ops, env, workdir, references, trace=False) -> dict:
    records = []
    for op in ops:
        trace_file = workdir / f"{op.name}.spans.json"
        trace_file.unlink(missing_ok=True)
        result = run_process(op.argv(sys.executable, str(trace_file) if trace else None),
                             env, workdir)
        record = workloads.check(op, result["rc"], result["stdout"], result["stderr"],
                                 references.get(op.name) if references else None)
        record.update(kind=op.kind, wall=result["wall"], cpu=result["cpu"],
                      rss_mb=result["rss_mb"], stdout_bytes=len(result["stdout"]))
        if record["failures"]:
            record["stderr_tail"] = result["stderr"].decode(errors="replace")[-2000:]
        if trace:
            if trace_file.exists():
                record["spans"] = json.loads(trace_file.read_text())
            else:
                record["failures"].append("traced child wrote no spans")
        records.append(record)
    return {
        "wall": sum(r["wall"] for r in records),
        "cpu": sum(r["cpu"] for r in records),
        "rss_mb": max(r["rss_mb"] for r in records),
        "ops": records,
    }


def timed_import(env, workdir, importtime=False) -> dict:
    flags = ["-X", "importtime"] if importtime else []
    result = run_process([sys.executable, *flags, "-c", IMPORT_CLI], env, workdir)
    if result["rc"] != 0:
        raise SetupError(f"{IMPORT_CLI!r} failed:\n{result['stderr'].decode(errors='replace')}")
    return result


def warm_up(env, workdir):
    """Compile every .pyc the passes will load, then import once."""
    compiled = run_process([sys.executable, "-m", "compileall", "-q",
                            str(ROOT / "src" / "dickeqfi"), str(ROOT / "perfbench")],
                           env, workdir)
    if compiled["rc"] != 0:
        raise SetupError(f"compileall failed:\n{compiled['stdout'].decode(errors='replace')}")
    timed_import(env, workdir)


def last_level_cache_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() and int(out) > 0 else None


def environment(jobs: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cores": os.cpu_count(),
        "jobs": jobs,
        "machine": platform.machine(),
        "last_level_cache_bytes": last_level_cache_bytes(),
    }


def measure(args, env, workdir) -> dict:
    cores = os.cpu_count() or 1
    jobs = min(2, cores)
    ops = workloads.operations(args.workload, args.seed, 1 if args.trace else jobs)
    references = workloads.load_reference(args.workload, args.seed)
    warm_up(env, workdir)
    result = {"workload": args.workload, "seed": args.seed,
              "variant": args.seed % workloads.VARIANTS, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(jobs),
              "operations": [{"name": op.name, "kind": op.kind, "args": list(op.args)}
                             for op in ops]}

    if not args.trace:
        # Import samples are spread over the run, one before each pass, so
        # that a burst of load from elsewhere on the machine hits few of them.
        setup = [timed_import(env, workdir)["wall"] for _ in range(SETUP_SAMPLES - MIN_PASSES)]
        passes = []
        deadline = time.perf_counter() + args.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            setup.append(timed_import(env, workdir)["wall"])
            passes.append(run_pass(ops, env, workdir, references))
        result.update(passes=passes, setup_samples=setup,
                      metrics=metrics.end_to_end(passes, setup))
        all_passes = passes
    else:
        imports = [metrics.parse_importtime(timed_import(env, workdir, True)["stderr"].decode())
                   for _ in range(SETUP_SAMPLES)]
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(run_pass(ops, env, workdir, references))
            traced.append(run_pass(ops, env, workdir, references, trace=True))
        # The pool probe reruns the sweeps at the untraced worker count;
        # only the qfi_vs_n_sweep span of the parent process is used.
        pool_ops = [op for op in workloads.operations(args.workload, args.seed, jobs)
                    if op.args[0] == "exchange"]
        probes = [run_pass(pool_ops, env, workdir, references, trace=True)] if pool_ops else []
        probe_ops = [op for p in probes for op in p["ops"]]
        result.update(untraced=untraced, traced=traced, pool_probe=probes, imports=imports,
                      metrics=metrics.per_layer(traced, untraced, probe_ops, jobs, imports),
                      layer_self_s=metrics.layer_shares([op for p in traced for op in p["ops"]]))
        all_passes = untraced + traced + probes
    result["gate"] = metrics.gate(all_passes)
    ops_run = [op for p in all_passes for op in p["ops"]]
    result["attempted"] = len(ops_run)
    result["failed"] = sum(1 for op in ops_run if op["failures"])
    return result


def print_report(result: dict):
    env = result["environment"]
    print(f"dickeqfi benchmark: workload={result['workload']} seed={result['seed']} "
          f"variant={result['variant']} trace={result['trace']}")
    print(f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['cores']} cores, jobs {env['jobs']}")
    if result["trace"]:
        print(f"traced passes: {len(result['traced'])} (one worker), "
              f"untraced passes: {len(result['untraced'])}")
        llc = env["last_level_cache_bytes"]
        print("exchange.table_mb is computed from array sizes"
              + (f"; last-level cache {llc / 1e6:.1f} MB" if llc else ""))
        shares = result["layer_self_s"]
        total = sum(shares.values()) or 1.0
        print("self time by layer, all traced passes: " + ", ".join(
            f"{layer} {100 * s / total:.1f}%"
            for layer, s in sorted(shares.items(), key=lambda kv: -kv[1])))
    else:
        print(f"wall_s and cpu_s: median of {len(result['passes'])} passes; "
              f"setup_s: median of {len(result['setup_samples'])} fresh imports")
    for name, value in {**result["metrics"], **result["gate"]}.items():
        moves = metrics.PER_LAYER[name][2] if name in metrics.PER_LAYER else ""
        print(f"  {name:<28} {value:<12.6g} {metrics.UNITS[name]:<6} {moves}")
    runs = [op for key in ("passes", "untraced", "traced", "pool_probe")
            for p in result.get(key, ()) for op in p["ops"]]
    identical = sum(1 for op in runs if op["bytes_identical"])
    print(f"  stdout bytes identical to reference: {identical}/{len(runs)}")
    for op in runs:
        for failure in op["failures"][:5]:
            print(f"  FAILED {op['op']}: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        return max(main(["--workload", w, *rest]) for w in workloads.WORKLOADS)

    if not (ROOT / "src" / "dickeqfi" / "cli.py").is_file():
        print(f"error: no dickeqfi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, child_env(), workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["correct"] = result["failed"] == 0
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print_report(result)
    print(f"result file: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
