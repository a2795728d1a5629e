#!/usr/bin/env python3
"""Build permea from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a permea checkout. The script builds the benchmark
harness (perfbench/, a package of its own) and the `permea-server` binary
in release mode into $CARGO_TARGET_DIR (default .bench_build), runs the
harness, and passes its output through: every metric by name and unit,
then, as the last line, the JSON result. A machine fingerprint is printed
first and stored with the full result under .bench_work/results/.

`--self-test` runs the harness's own tests (generation determinism,
scenario round trips, metric names, daemon clean-up) instead.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORK = Path(".bench_work")
SOURCE_GLOBS = ["Cargo.toml", "Cargo.lock", "crates/**/*", "vendor/**/*", "perfbench/**/*"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cargo_env():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return dict(os.environ, CARGO_TARGET_DIR=str(target)), target


def build(env, self_test):
    # The self-tests compare the benchmark's artifact stage with the
    # `study` binary's output.
    bins = ["--bin", "permea-server"] + (["--bin", "study"] if self_test else [])
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "permea-analysis", *bins],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for pattern in SOURCE_GLOBS:
        for path in sorted(Path(".").glob(pattern)):
            skip = any(part == "target" or part.startswith(".") for part in path.parts)
            if path.is_file() and not skip:
                digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "-V"]),
        "git_revision": command_output(["git", "rev-parse", "HEAD"]) if Path(".git").exists() else None,
        "source_sha256": digest.hexdigest(),
        "build_profile": "release",
    }


def stop_orphans(work):
    """Kills any daemon a dead harness left behind and removes `work`."""
    for pid_file in work.rglob("server.pid"):
        try:
            pid = int(pid_file.read_text())
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except (OSError, ValueError):
            continue
        if b"permea-server" in cmdline:
            os.kill(pid, signal.SIGKILL)
            for _ in range(500):
                if not Path(f"/proc/{pid}").exists():
                    break
                time.sleep(0.01)
    shutil.rmtree(work, ignore_errors=True)


def main():
    # Only --self-test is the script's own; every other argument goes to the
    # harness, which validates it (exit 2 on a usage error).
    self_test = "--self-test" in sys.argv[1:]
    if not (Path("Cargo.toml").is_file() and Path("crates").is_dir() and Path("perfbench/Cargo.toml").is_file()):
        log("run.py must run from the root of a permea checkout (Cargo.toml, crates/, perfbench/)")
        return 2

    env, target = cargo_env()
    if not build(env, self_test):
        return 3
    server_bin = target / "release" / "permea-server"
    if self_test:
        env["PERMEA_SERVER_BIN"] = str(server_bin)
        env["PERMEA_STUDY_BIN"] = str(target / "release" / "study")
        cmd = ["cargo", "test", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"]
        return subprocess.run(cmd, env=env).returncode

    work = WORK / f"run-{os.getpid()}"
    cmd = [
        str(target / "release" / "permea-perfbench"),
        *sys.argv[1:],
        "--work-dir", str(work),
        "--server-bin", str(server_bin),
        "--results-dir", str(WORK / "results"),
        "--fingerprint", json.dumps(fingerprint(), sort_keys=True),
    ]
    child = subprocess.Popen(cmd)

    def terminate(signum, _frame):
        child.terminate()
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        stop_orphans(work)


if __name__ == "__main__":
    sys.exit(main())
