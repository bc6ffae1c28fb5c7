#!/usr/bin/env python3
"""Run one benchmark workload in one JVM and print its result.

    python3 perfbench/run.py --heap 3g --threads 4 \
        --workload lj-core --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test     # the answer checker's own test

Builds the program from source first (perfbench/build.py). Timing happens
inside the JVM (repro.perfbench.Main), so JVM start and compilation are not
measured. The last line of standard output is the JSON result; a run that
fails in any way exits non-zero without printing one.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

# The set spark-submit opens on Java 17+ (Kryo needs reflective access).
ADD_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]
RUN_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--heap", default="3g", help="fixed JVM heap (-Xms = -Xmx)")
    ap.add_argument("--threads", type=int, default=4,
                    help="Spark task threads, capped at the number of processors")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not args.self_test and (args.workload is None or args.seed is None or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")
    return args


def jvm_command(root: Path, jar: Path, heap: str, main: str, main_args, cds: str):
    jars = build.spark_jars()
    tmp = root / build.BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return ([build.java_bin(), f"-Xms{heap}", f"-Xmx{heap}", cds,
             f"-Djava.io.tmpdir={tmp}",
             # deep enough call sites that a job's program frame is never cut off
             "-Dspark.callstack.depth=64",
             f"-Dlog4j2.configurationFile={root / 'perfbench' / 'log4j2.properties'}"]
            + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in ADD_OPENS]
            + ["-cp", os.pathsep.join([str(jar), str(jars / "*")]), main]
            + main_args)


def class_archive(root: Path, jar: Path, heap: str, threads: int) -> str:
    """JVM flag that maps the class-data archive of this build, dumping it
    first from a set-up-only training run. Start-up then skips loading and
    verifying Spark's classes; if no archive could be dumped, the JVM's
    default sharing applies.
    """
    archive = root / build.BUILD_DIR / "bench.jsa"
    if archive.exists() and archive.stat().st_mtime >= jar.stat().st_mtime:
        return f"-XX:SharedArchiveFile={archive}"
    archive.unlink(missing_ok=True)
    cmd = jvm_command(root, jar, heap, "repro.perfbench.ClassArchiveTraining",
                      [str(threads), str(root / build.BUILD_DIR)],
                      f"-XX:ArchiveClassesAtExit={archive}")
    with open(root / build.BUILD_DIR / "class-archive.log", "w") as log:
        try:
            subprocess.run(cmd, cwd=root, stdout=log, stderr=log, timeout=300)
        except subprocess.TimeoutExpired:
            pass
    return f"-XX:SharedArchiveFile={archive}" if archive.exists() else "-Xshare:auto"


def run_jvm(cmd, cwd: Path, timeout_s: float):
    """Run the JVM, relay its stdout, kill it on timeout or on our own exit."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run: JVM exceeded {timeout_s:.0f} s and was stopped", file=sys.stderr)
        return None, 1
    return out, proc.returncode


def main(argv) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        jar = build.build(root)
    except (build.BuildError, subprocess.TimeoutExpired) as err:
        print(f"build: {err}", file=sys.stderr)
        return 2
    threads = max(1, min(args.threads, os.cpu_count() or 1))
    if args.self_test:
        cmd = jvm_command(root, jar, args.heap, "repro.perfbench.CheckerSelfTest", [],
                          "-Xshare:auto")
    else:
        cmd = jvm_command(root, jar, args.heap, "repro.perfbench.Main", [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--threads", str(threads), "--work-dir", str(root / build.BUILD_DIR)],
            class_archive(root, jar, args.heap, threads))
    out, code = run_jvm(cmd, root, RUN_TIMEOUT_S)
    if out is None:
        return code
    lines = [l for l in out.splitlines() if l.strip()]
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        print(f"run: JVM exited with code {code}", file=sys.stderr)
        return code or 1
    if args.self_test:
        print(lines[-1])
        return 0
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("run: last line is not a JSON result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
