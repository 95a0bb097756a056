#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

    python3 pipebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 pipebench/run.py --self-test
    python3 pipebench/run.py --record <workload>

Run from the repository root.  The benchmark binary is compiled from
pipebench/CMakeLists.txt (which builds the libraries from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset.  Every run gets a
fresh scratch directory there for checkpoint, store and tuner files, with the
environment pinned (OMP_NUM_THREADS = 1, QDB_TUNER_CACHE in the scratch
directory, QDB_FULL / QDB_LOG / QDB_FAULT_SEED / QDB_FLIGHT_DUMP cleared).
Inputs that depend only on the binary (the served store) are built by the
first run that needs them and kept under inputs/<binary digest> there.
The last line of stdout is the JSON result.  Exits non-zero without a result
when anything fails, including when the library sources are missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOADS = ["vqe-batch", "fold-dock", "screen-funnel", "serve-mixed"]
RUN_TIMEOUT_S = 170
CLEARED_ENV = ["QDB_FULL", "QDB_LOG", "QDB_FAULT_SEED", "QDB_FLIGHT_DUMP"]


def fail(message, code=2):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(target):
    """Configure once, then build `target`; returns the build directory."""
    if not (REPO_ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {REPO_ROOT / 'src'}; run from a full checkout")
    out = build_root() / "pipebench"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", target, "-j", str(os.cpu_count())],
                   check=True, stdout=sys.stderr)
    return out


def source_id():
    """The git commit when run in a checkout, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((REPO_ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(REPO_ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def inputs_dir(binary):
    """Where runs of this exact binary keep the inputs they share."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    return build_root() / "inputs" / digest


def pinned_env(scratch):
    env = dict(os.environ)
    for name in CLEARED_ENV:
        env.pop(name, None)
    env["OMP_NUM_THREADS"] = "1"
    env["QDB_TUNER_CACHE"] = str(scratch / "tuner.json")
    return env


def check_result_line(line):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    return result


def run_workload(args):
    binary = build("pipebench") / "pipebench"
    scratch = build_root() / "runs" / f"{args.workload}-{os.getpid()}"
    results = build_root() / "results"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", str(scratch),
           "--reference-dir", str(BENCH_DIR / "reference"), "--results", str(results),
           "--inputs", str(inputs_dir(binary)), "--source", source_id()]
    try:
        proc = subprocess.run(cmd, env=pinned_env(scratch), stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}", 1)
    try:
        check_result_line(lines[-1])
    except ValueError as ex:
        sys.stderr.write(proc.stdout)
        fail(f"bad result line: {ex}", 1)
    print("\n".join(lines), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true", help="build and run the self-tests")
    parser.add_argument("--record", choices=WORKLOADS[:3],
                        help="regenerate the recorded expected outputs of a workload")
    args = parser.parse_args()

    if args.self_test:
        out = build("pipebench_tests")
        sys.exit(subprocess.run([str(out / "pipebench_tests")], env=pinned_env(out)).returncode)
    if args.record:
        binary = build("pipebench") / "pipebench"
        sys.exit(subprocess.run([str(binary), "--record", args.record, "--reference-dir",
                                 str(BENCH_DIR / "reference")],
                                env=pinned_env(build_root())).returncode)
    if not args.workload:
        parser.error("--workload is required")
    run_workload(args)


if __name__ == "__main__":
    try:
        main()
    except subprocess.CalledProcessError as ex:
        fail(f"command failed with code {ex.returncode}: {' '.join(map(str, ex.cmd))}", 1)
