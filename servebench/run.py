#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 servebench/run.py --workload search_real --seed 1 --seconds 12 --trace 0

Run from the repository root. Builds servebench and fast_server from source
in Release mode (into $CARGO_TARGET_DIR, default .bench_build), refuses to
measure any other build type, runs one workload against a fresh fast_server
child process and prints:

    servebench-stamp {...}   commit, compiler, build type, host, cores, seed
    servebench-detail {...}  sample counts, pinned server flags, checks
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The last line is the result. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones (and writes a Chrome trace to
.bench_out/). Every result is also saved under .bench_out/<workload>/ for
servebench/steadiness.py.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search_real", "wire_small")


def die(msg):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(1)


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build(build_dir):
    """Configures (Release) and builds the two binaries; build chatter goes
    to stderr so stdout stays the result stream."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the FAST source tree (src/) is missing next to servebench/")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "-j4", "--target",
                 "servebench", "fast_server_bin"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    build_type = cache_value(build_dir, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        die(f"{build_dir} is built as '{build_type or 'unknown'}', not Release; "
            "results from other build types are not comparable")
    return build_type


def tree_commit():
    """The git commit when there is one; otherwise a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "servebench", "bench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def compiler(build_dir):
    cxx = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.splitlines()[0] if out.stdout else cxx
    except (OSError, subprocess.SubprocessError, IndexError):
        return cxx or "unknown"


def load_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_type = build(build_dir)
    end_to_end, per_layer = load_catalogue()

    out_dir = os.path.join(".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"seed{args.seed}-trace{args.trace}"
    trace_out = os.path.join(out_dir, f"{tag}.trace.json")
    cmd = [os.path.join(build_dir, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(build_dir, "fast_src", "server", "fast_server"),
           "--work", os.path.join(".bench_work", f"{args.workload}-{tag}")]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        die("servebench did not finish within 170 s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"servebench exited {proc.returncode}")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("servebench-detail "):
            detail = json.loads(line.split(" ", 1)[1])

    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("result line has unexpected keys")
    expected = per_layer if args.trace else end_to_end
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        die("emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"extra {sorted(set(got) - set(expected))}")

    stamp = {
        "commit": tree_commit(),
        "compiler": compiler(build_dir),
        "build_type": build_type,
        "host": platform.node(),
        "cores": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "server_flags": detail.get("server_flags", "").strip(),
    }
    if args.trace:
        # Tracing overhead: this traced run against the untraced run of the
        # same seed, when one was saved.
        untraced = os.path.join(out_dir, f"seed{args.seed}-trace0.json")
        if os.path.exists(untraced):
            with open(untraced) as f:
                base = json.load(f)["result"]["metrics"]
            traced = result["metrics"]
            detail["trace_overhead.query_p50_ms"] = (
                traced["trace.query_p50_ms"]["value"] - base["query_p50_ms"]["value"])
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as f:
        json.dump({"stamp": stamp, "detail": detail, "result": result}, f,
                  indent=1)
    print("servebench-stamp " + json.dumps(stamp))
    print("servebench-detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
