#!/usr/bin/env python3
"""Build lakebench from source and run one LAKE benchmark workload.

Run from the root of a LAKE checkout:

    python3 lakebench/run.py --workload score_open --seed 1 --seconds 15 --trace 0

The first run configures and builds the library and lakebench under
$CARGO_TARGET_DIR (default .bench_build) inside the checkout; later runs
only re-check the build. Build output goes to stderr, so the last line
of stdout is lakebench's JSON result. A traced run (--trace 1) also
writes its spans as Chrome trace-event JSON to
<build dir>/traces/<workload>.json.

Exits non-zero without printing a result when the build or the run
fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("score_open", "score_fleet", "capture_closed", "crypt_bulk")
RUN_TIMEOUT_S = 170


def source_revision(root):
    """The git revision, or a digest of the sources outside a git tree."""
    try:
        if not os.path.isdir(os.path.join(root, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10, check=True)
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "lakebench"],
            cwd=root, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base in ("src", "lakebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(root, build_dir, jobs):
    """Configures (when the revision changed) and builds lakebench."""
    src = os.path.join(root, "lakebench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("lakebench: no LAKE sources under %s/src" % root)
    rev = source_revision(root)
    stamp = os.path.join(build_dir, "lakebench.rev")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    old = open(stamp).read() if os.path.exists(stamp) else None
    if not os.path.exists(cache) or old != rev:
        cmd = ["cmake", "-S", src, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DLAKEBENCH_GIT_REV=" + rev]
        if shutil.which("ninja") and not os.path.exists(cache):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
        with open(stamp, "w") as f:
            f.write(rev)
    subprocess.run(["cmake", "--build", build_dir, "--target", "lakebench",
                    "-j", str(jobs)], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "lakebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "lakebench")
    os.makedirs(build_dir, exist_ok=True)
    ncpu = len(os.sched_getaffinity(0))
    try:
        binary = build(root, build_dir, min(4, ncpu))
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("lakebench: build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    # One load-generating thread and a one-thread host pool: on a shared
    # machine, waking pool workers for every small batch measures the
    # scheduler, not the program. Outputs are the same at any pool size.
    env = dict(os.environ, LAKE_CPU_THREADS="1")
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("lakebench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
