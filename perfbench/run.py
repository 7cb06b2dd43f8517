#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload tpch --seed 1 --seconds 20 --trace 0

The first run in a checkout compiles the engine sources (src/main/scala)
together with the harness (perfbench/src) with sbt, into .bench_build/.
Later runs reuse that build while the sources are unchanged. Each run
starts one JVM with Spark in local mode, which writes a JSON report; this
script prints the run's environment and details as one JSON line, then
the result as the last line:

    {"correct": true, "attempted": 160, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
DRIVER_HEAP = "3g"
# Module opens Spark needs on Java 17 (as in the repository's build.sbt).
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]
SOURCES = ["src/main/scala", "perfbench/src/main", "perfbench/build.sbt",
           "perfbench/project/build.properties"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash(root):
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_child(cmd, cwd, env, timeout):
    """Run a command in its own process group, its output to our stderr.
    The group is killed on timeout, and when this script is terminated."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    handlers = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} exceeded {timeout}s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        for s, h in handlers.items():
            signal.signal(s, h)


def build(root, digest):
    """Compile with sbt unless the build of these sources already exists."""
    build_dir = os.path.join(root, BUILD_DIR)
    stamp = os.path.join(build_dir, "stamp")
    classpath = os.path.join(build_dir, "classpath.txt")
    if os.path.exists(stamp) and os.path.exists(classpath):
        with open(stamp) as fh:
            if fh.read() == digest:
                return classpath
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    os.makedirs(build_dir, exist_ok=True)
    code = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                     os.path.join(root, "perfbench"), os.environ.copy(), BUILD_TIMEOUT_S)
    if code != 0 or not os.path.exists(classpath):
        fail(f"build failed (sbt exit {code})")
    with open(stamp, "w") as fh:
        fh.write(digest)
    return classpath


def commit_of(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["tpch", "explore", "etl_spill"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ["src/main/scala/repro", "perfbench/build.sbt"]:
        if not os.path.exists(os.path.join(root, need)):
            fail(f"run from the repository root: {need} not found")
    if shutil.which("java") is None:
        fail("java is not on PATH")
    digest = source_hash(root)
    with open(build(root, digest)) as fh:
        classpath = fh.read().strip()

    work = os.path.join(root, BUILD_DIR, "run")
    shutil.rmtree(work, ignore_errors=True)
    tmp, local = os.path.join(work, "tmp"), os.path.join(work, "spark-local")
    os.makedirs(tmp)
    os.makedirs(local)
    report = os.path.join(work, "report.json")
    env = os.environ.copy()
    env["SPARK_LOCAL_DIRS"] = local
    cmd = (["java", f"-Xmx{DRIVER_HEAP}", f"-Djava.io.tmpdir={tmp}",
            "-Dspark.sql.warehouse.dir=" + os.path.join(work, "warehouse")]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", classpath, "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--commit", commit_of(root), "--out", report])
    t0 = time.monotonic()
    code = run_child(cmd, root, env, RUN_TIMEOUT_S)
    if code != 0 or not os.path.exists(report):
        fail(f"benchmark JVM failed (exit {code})")
    with open(report) as fh:
        out = json.load(fh)
    shutil.rmtree(work, ignore_errors=True)

    res = out["report"]
    env_rec = dict(out["environment"], source_sha256=digest, driver_heap=DRIVER_HEAP,
                   run_wall_s=round(time.monotonic() - t0, 3))
    print(json.dumps({"environment": env_rec, "details": res["details"]}))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
