#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program's sources (src/main/scala) together with the benchmark's
own sources (perfbench/src) with the Scala compiler that ships with Spark, and
packs them into .bench_build/bench.jar of the checkout. A stamp of the source
contents skips the compile when nothing changed. No sbt, no network: the only
inputs are the checkout and the Spark distribution named by SPARK_HOME (or the
one whose spark-submit is on PATH).

    python3 perfbench/build.py          # build, print the jar's path
"""
import hashlib
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

BUILD_DIR = ".bench_build"
PROGRAM_SRC = Path("src/main/scala")
BENCH_SRC = Path("perfbench/src")


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(os.path.realpath(submit)).parent.parent)
    jars = Path(home or "") / "jars"
    if not home or not jars.is_dir():
        raise BuildError("no Spark distribution: set SPARK_HOME or put spark-submit on PATH")
    return jars


def java_bin() -> str:
    home = os.environ.get("JAVA_HOME")
    if home and (Path(home) / "bin" / "java").exists():
        return str(Path(home) / "bin" / "java")
    java = shutil.which("java")
    if not java:
        raise BuildError("no java on PATH")
    return java


def sources(root: Path):
    prog = sorted((root / PROGRAM_SRC).rglob("*.scala"))
    bench = sorted((root / BENCH_SRC).rglob("*.scala"))
    if not prog:
        raise BuildError(f"no program sources under {PROGRAM_SRC}")
    if not bench:
        raise BuildError(f"no benchmark sources under {BENCH_SRC}")
    return prog + bench


def scala_jars(jars: Path):
    def one(prefix):
        found = sorted(jars.glob(prefix + "-2.13*.jar"))
        if not found:
            raise BuildError(f"{prefix} jar missing from {jars}")
        return str(found[-1])
    return [one("scala-compiler"), one("scala-library"), one("scala-reflect")]


def build(root: Path) -> Path:
    """Compile if needed; return the jar."""
    jars = spark_jars()
    srcs = sources(root)
    digest = hashlib.sha256()
    for f in srcs:
        digest.update(str(f.relative_to(root)).encode())
        digest.update(f.read_bytes())
    stamp_value = digest.hexdigest()
    out = root / BUILD_DIR / "bench.jar"
    stamp = root / BUILD_DIR / "bench.stamp"
    if out.is_file() and stamp.exists() and stamp.read_text() == stamp_value:
        return out
    stamp.unlink(missing_ok=True)
    # Compile beside the old jar and swap it in only on success.
    fresh = root / BUILD_DIR / f"classes.{os.getpid()}"
    fresh.mkdir(parents=True)
    cmd = [java_bin(), "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(scala_jars(jars)),
           "scala.tools.nsc.Main", "-nowarn",
           "-classpath", str(jars / "*"), "-d", str(fresh)] + [str(f) for f in srcs]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
        if proc.returncode != 0:
            raise BuildError(f"scalac failed with exit code {proc.returncode}")
        packed = out.with_suffix(f".{os.getpid()}")
        with zipfile.ZipFile(packed, "w", zipfile.ZIP_STORED) as jar:
            for f in sorted(fresh.rglob("*.class")):
                jar.write(f, f.relative_to(fresh).as_posix())
        packed.replace(out)
    finally:
        shutil.rmtree(fresh, ignore_errors=True)
    stamp.write_text(stamp_value)
    return out


def main() -> int:
    try:
        print(build(Path.cwd()))
    except (BuildError, subprocess.TimeoutExpired) as err:
        print(f"build: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
