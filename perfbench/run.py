"""D³L benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload point_small --seed 21 --seconds 8 --trace 0

Run from the root of a source checkout. The run generates its lake from
``--seed``, builds the D³L index through ``repro``'s public API, answers
discovery queries for ``--seconds`` in a closed loop, checks the answers and
prints as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics. See
``perfbench/README.md``.
"""
import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("point_small", "point_large")

SHUFFLE_PARTITIONS = 8
MAX_CORES = 4


def driver_memory() -> str:
    """Half the machine's memory in GiB, clamped to 2..8 (the tier-1 rule)."""
    try:
        with open("/proc/meminfo") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def session_settings(work: Path) -> dict[str, str]:
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": str(nproc),
        "master": f"local[{min(nproc, MAX_CORES)}]",
        "spark.driver.memory": driver_memory(),
        "spark.sql.shuffle.partitions": str(SHUFFLE_PARTITIONS),
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.ui.showConsoleProgress": "false",
        "spark.ui.enabled": "false",
        "spark.driver.host": "127.0.0.1",
        "spark.local.dir": str(work / "spark"),
        "spark.sql.warehouse.dir": str(work / "warehouse"),
    }


def start_session(settings: dict[str, str], work: Path):
    """A pinned local session whose JVM, Python workers and scratch files
    all stay inside ``work``; ``src`` is on the workers' import path."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = settings["spark.local.dir"]
    # The JVM inherits this environment and passes PYTHONPATH on to the
    # pandas-UDF workers it forks, which import ``repro`` by name.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    args = ["--master", settings["master"], "--driver-memory", settings["spark.driver.memory"]]
    for key in ("spark.ui.enabled", "spark.driver.host", "spark.local.dir", "spark.ui.showConsoleProgress"):
        args += ["--conf", f"{key}={settings[key]}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])

    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key in (
        "spark.sql.shuffle.partitions",
        "spark.sql.autoBroadcastJoinThreshold",
        "spark.sql.execution.arrow.pyspark.enabled",
        "spark.sql.warehouse.dir",
    ):
        builder = builder.config(key, settings[key])
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark, then end the JVM and wait for it."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the point-query order")
    parser.add_argument(
        "--lake-seed", type=int, default=None, help="lake seed (default: the preset, 21 / 23)"
    )
    parser.add_argument("--seconds", type=float, default=5.0, help="closed-loop duration")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        settings = session_settings(work)
        spark = start_session(settings, work)
        try:
            session_s = time.perf_counter() - PROCESS_START
            import bench

            print(
                f"workload={args.workload} seed={args.seed} seconds={args.seconds}",
                f"trace={args.trace}",
                f"spark={spark.version}",
                *(f"{k}={v}" for k, v in settings.items() if "dir" not in k),
                "clients=1 (closed loop)",
                flush=True,
            )
            if args.trace:
                out = bench.run_traced(spark, args.workload, args.seed, args.lake_seed)
            else:
                out = bench.run_untraced(
                    spark,
                    args.workload,
                    args.seed,
                    args.lake_seed,
                    seconds=args.seconds,
                    work=work,
                    session_s=session_s,
                )
        finally:
            stop_session(spark)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    declared = declared_metrics(bool(args.trace))
    missing = sorted(set(declared) - set(out.metrics))
    correct = out.failed == 0 and not missing
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
    for name in declared:
        if name in out.metrics:
            value, unit = out.metrics[name]
            n = out.samples.get(name)
            print(f"  {name:32s} {value:14.6g} {unit:6s}" + (f" (n={n})" if n else ""))
    print(f"  {'failed_share':32s} {out.failed}/{out.attempted}")
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(out.metrics[name][0]), "unit": unit}
            for name, unit in declared.items()
            if name in out.metrics
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
