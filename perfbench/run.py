#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # the benchmark's own tests
    python3 perfbench/run.py --pin          # re-pin simulated results

Builds the library and the benchmark from source (CMake) into the
directory named by CARGO_TARGET_DIR (default .bench_build), runs the
perfbench binary, checks its metrics against BENCHMARK.json, and prints
the host identity and then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
            / "perfbench")


def build(out):
    """Configure once, then build incrementally; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    with open(log, "w") as f:
        if not (out / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT):
                f.close()
                sys.stderr.write(log.read_text()[-4000:])
                fail("configure failed")
        cmd = ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)]
        if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT):
            f.close()
            sys.stderr.write(log.read_text()[-4000:])
            fail("build failed")
    return out


def run_child(cmd, cwd):
    """Run cmd in its own process group; stdout lines are returned."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=cwd, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout.splitlines()


def host_identity(out):
    cache = {}
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    # The checkout may not be a git repository: a digest of the sources
    # identifies the code either way.
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*")) +
                       list(HERE.rglob("*"))):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "commit": commit or "unknown",
            "source_sha256": digest.hexdigest()[:16]}


def checked_metrics(result, names_units, fill_missing):
    """The metrics named in BENCHMARK.json, in its order and units."""
    got = result["metrics"]
    unknown = sorted(set(got) - set(names_units))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in names_units.items():
        if name not in got:
            if not fill_missing:
                fail(f"metric {name} missing from the result")
            # A layer this workload does not exercise did no work.
            metrics[name] = {"value": 0.0, "unit": unit}
            continue
        if got[name]["unit"] != unit:
            fail(f"metric {name}: unit {got[name]['unit']}, "
                 f"BENCHMARK.json says {unit}")
        metrics[name] = got[name]
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = HERE / "pins.txt"
    out = build(build_dir())
    binary = out / "perfbench"

    if args.selftest:
        sys.exit(subprocess.call([str(out / "perfbench_selftest")]))
    if args.pin:
        sys.exit(subprocess.call([str(binary), "--pin", f"--pins={pins}"]))

    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        fail(f"--workload must be one of {sorted(workloads)}")
    if args.seed is None or args.seconds is None or args.trace is None:
        fail("--seed, --seconds and --trace are required")

    # The server's Unix socket lives in the work directory; a relative
    # path keeps it within the 108-byte socket path limit.
    work = out / "work"
    work.mkdir(exist_ok=True)
    code, lines = run_child([
        str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        "--workdir=.", f"--pins={pins}",
        f"--trace-file={work / f'trace-{args.workload}-{args.seed}.json'}"],
        cwd=work)
    if code != 0 or not lines:
        print("\n".join(lines))
        fail(f"perfbench exited with status {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines))
        fail("perfbench printed no result")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = checked_metrics(
        result, {m["name"]: m["unit"] for m in listed},
        fill_missing=bool(args.trace))
    print("\n".join(lines[:-1]))
    print("host: " + json.dumps(host_identity(out)))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
