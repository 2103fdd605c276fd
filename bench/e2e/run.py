#!/usr/bin/env python3
"""End-to-end benchmark runner: builds bench_e2e (Release) and runs workloads.

One workload:

    python3 bench/e2e/run.py --workload table3_joins --seed 7 --seconds 20 --trace 0

prints every metric by name with its unit, then, as the last line, one JSON
object with exactly the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list (and the spans go to .bench_build/e2e/trace-<workload>.jsonl).

Without --workload every workload runs, untraced. --runs N repeats each
workload with seeds seed, seed+1, ...; --out FILE appends one JSON record per
run for compare.py. --selfcheck asserts that set-up is deterministic per seed.
The process exits non-zero when any answer is wrong or any statement fails.
Standard library only.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
DEFAULT_SEED = 20120821
# Wall-clock allowance for one invocation: 180 s, or 900 s when it compiled.
LIMIT_S = 175
LIMIT_BUILD_S = 890


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build bench_e2e. Returns True if it compiled."""
    before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                       + gen, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True, stdout=sys.stderr,
                   env=env)
    return before is None or os.path.getmtime(BINARY) != before


def host_info():
    build_type = "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.strip().split("=", 1)[1]
    except OSError:
        pass
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count() or 1, "build_type": build_type, "git_sha": sha}


def run_binary(args, deadline=None):
    """Run bench_e2e in BUILD_DIR, where traces land, with `args` until
    `deadline` (default: LIMIT_S from now); returns its JSON result, or None
    on failure."""
    if deadline is None:
        deadline = time.monotonic() + LIMIT_S
    remaining = deadline - time.monotonic()
    if remaining <= 5:
        log("run.py: no time left for " + " ".join(args))
        return None
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, cwd=BUILD_DIR)
    except subprocess.TimeoutExpired:
        log("run.py: bench_e2e timed out: " + " ".join(args))
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: bench_e2e exited {proc.returncode}: " + " ".join(args))
        return None
    return json.loads(lines[-1])


def run_workload(spec, name, seed, seconds, trace, deadline):
    """One measured (or traced) run; returns its result record, or None."""
    raw = run_binary(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "1" if trace else "0"], deadline)
    if raw is None:
        return None
    source = raw["layers"] if trace else raw["e2e"]
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in source:
            log(f"run.py: bench_e2e did not report {m['name']}")
            return None
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    print(f"== {name} seed={seed} trace={int(trace)} window={raw['info']['window_s']:.3f}s")
    for k, v in metrics.items():
        print(f"  {k:36s} {v['value']:>16.6g} {v['unit']}")
    for k, v in sorted(raw["info"].items()):
        print(f"  {k:36s} {v:>16.6g}   (ungated)")
    if trace:
        print(f"  spans written to {os.path.join(BUILD_DIR, f'trace-{name}.jsonl')}")
    print(f"  attempted={int(raw['attempted'])} failed={int(raw['failed'])} "
          f"(errors={int(raw['errors'])} wrong={int(raw['wrong'])} "
          f"admission_timeouts={int(raw['admission_timeouts'])})")
    return {"correct": bool(raw["correct"]) and raw["failed"] == 0,
            "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
            "metrics": metrics}


def selfcheck(workloads, seed):
    """Same seed -> byte-identical bytes_per_row and identical row counts."""
    ok = True
    for name in workloads:
        args = ["--workload", name, "--seed", str(seed), "--setup-only"]
        a, b = run_binary(args), run_binary(args)
        if a is None or b is None:
            return False
        same = (repr(a["bytes_per_row"]) == repr(b["bytes_per_row"])
                and a["setup_rows"] == b["setup_rows"] and a["logical_rows"] == b["logical_rows"])
        good = same and a["correct"] and b["correct"]
        print(f"selfcheck {name}: bytes_per_row={a['bytes_per_row']!r}/{b['bytes_per_row']!r} "
              f"setup_rows={int(a['setup_rows'])}/{int(b['setup_rows'])} -> "
              f"{'ok' if good else 'MISMATCH'}")
        ok = ok and good
    return ok


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names, help="default: every workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=1, help="seeds seed..seed+runs-1 per workload")
    p.add_argument("--out", help="append one JSON record per run to this file")
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args()

    start = time.monotonic()
    try:
        compiled = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 1
    single = args.workload is not None and args.runs == 1 and not args.selfcheck
    # A single run must finish within LIMIT_S (LIMIT_BUILD_S when it compiled);
    # longer sessions (several runs, selfcheck) limit each binary instead.
    deadline = start + (LIMIT_BUILD_S if compiled else LIMIT_S) if single else None
    workloads = [args.workload] if args.workload else names
    host = host_info()
    print(f"# nproc={host['nproc']} build_type={host['build_type']} git_sha={host['git_sha']}")
    if host["nproc"] < 4:
        log("run.py: fewer than 4 CPUs; workloads with 4 clients oversubscribe this host")

    if args.selfcheck:
        return 0 if selfcheck(workloads, args.seed) else 1

    all_ok = True
    for i in range(args.runs):
        for name in workloads:
            record = run_workload(spec, name, args.seed + i, args.seconds, args.trace == 1,
                                  deadline)
            if record is None:
                return 1
            all_ok = all_ok and record["correct"]
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(dict(record, workload=name, seed=args.seed + i,
                                            trace=args.trace, host=host)) + "\n")
            print(json.dumps(record), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
