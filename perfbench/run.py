"""nvpol benchmark: run one workload through ``nvpol.cli.main`` and print metrics.

    python3 perfbench/run.py --workload strain-map --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The program is imported from ``src``; no
install is needed.  With ``--trace 0`` the run prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The
last line of standard output is one JSON object.  The exit code is 0 when
every correctness gate passed, 1 when one failed (the result is still
printed), and 2 when the benchmark could not run at all (nothing printed).
See perfbench/README.md for the workloads and metrics.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere: with the
# OpenBLAS default a serial sweep burns about twice its wall time in CPU.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
NAMES = ("strain-map", "triplet-fit", "strain-fit")

END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("job_s_tail", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)
SETUP_REPEATS = 3
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import nvpol.cli\n"
    "from nvpol.config import load_config\n"
    "load_config(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(config: str, repeats: int) -> list:
    """Seconds to import nvpol.cli and load the config, each in a fresh interpreter."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, config], env=_child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def tail(samples) -> tuple:
    """(value, percentile, n): the highest percentile with at least ten samples
    beyond it.  With fewer than 44 samples the requirement drops to a quarter
    of them, so a short run reports its upper quartile, never one outlier."""
    xs = sorted(samples)
    n = len(xs)
    i = n - 1 - min(10, n // 4)
    return xs[i], 100.0 * (i + 1) / n, n


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    import nvpol

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "pyyaml": yaml.__version__,
        "numba_enabled": getattr(nvpol, "NUMBA_ENABLED", None),
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_job(cli, job, tracer):
    """Wall seconds and exit codes of one job; outputs are checked later."""
    job.prepare()
    if tracer is None:
        t0 = time.perf_counter()
        codes = [cli.main(argv) for argv in job.commands]
        return time.perf_counter() - t0, codes, None
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span("job", label=job.label, **job.attrs) as root:
            codes = []
            for argv in job.commands:
                with tracer.span("cli.main"):
                    codes.append(cli.main(argv))
        dt = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    root.attrs["out_bytes"] = job.output_bytes()
    if job.checkpoint is not None and job.checkpoint.exists():
        root.attrs["checkpoint_bytes"] = job.checkpoint.stat().st_size
    return dt, codes, root


def measure(cli, workload, seconds: float, tracer):
    """Closed loop, one client: run rounds of jobs until the next round would
    end after `seconds`, but at least the workload's min_rounds.  With a tracer
    the jobs run traced, and the run's first job also runs untraced just
    before, for the tracing overhead."""
    untraced, traced, paired = [], [], []
    attempted = failed = wrong = 0
    round_times = []
    start = time.perf_counter()
    for rnd in workload.rounds():
        r0 = time.perf_counter()
        for job in rnd:
            uses = (tracer,) if tracer is None or untraced else (None, tracer)
            for use in uses:
                dt, codes, root = run_job(cli, job, use)
                a, f, w = workload.check(job, codes)
                attempted, failed, wrong = attempted + a, failed + f, wrong + w
                if root is None:
                    untraced.append(dt)
                    continue
                traced.append(dt)
                if len(uses) == 2:
                    paired.append(dt)
                if "points_expected" in job.attrs:
                    root.attrs.update(points_total=a, points_ok=a - f)
        round_times.append(time.perf_counter() - r0)
        if (len(round_times) >= workload.min_rounds
                and time.perf_counter() - start + statistics.median(round_times) > seconds):
            break
    return untraced, traced, paired, attempted, failed, wrong


def run(args) -> int:
    if not (SRC / "nvpol" / "__init__.py").is_file():
        print(f"no nvpol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from nvpol import cli
    import layers
    import workloads
    from spans import Tracer, span_cost

    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE))
    tiny = args.size == "tiny"
    threads = workloads.map_threads()
    tracer = Tracer() if args.trace else None
    try:
        wl = workloads.make(args.workload, work, args.seed, tiny, threads)
        setup = [] if args.trace else measure_setup(wl.config, 1 if tiny else SETUP_REPEATS)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        untraced, traced, paired, attempted, failed, wrong = measure(cli, wl, args.seconds, tracer)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        gates = wl.final_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for _name, a, f, w, _detail in gates:
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
    problems = []
    notes = [f"{g}: {'ok' if w == 0 else 'FAILED'} ({d})" for g, _a, _f, w, d in gates]

    if args.trace:
        metrics, problems = layers.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = statistics.median(paired) - statistics.median(untraced)
        units = dict(layers.PER_LAYER)
        cost = span_cost()
        notes.append(f"trace: {len(traced)} traced jobs; overhead = median of {len(paired)} "
                     f"traced minus median of the same {len(untraced)} jobs untraced")
        notes.append(f"trace: {metrics['trace.spans']:.0f} spans per job x {cost * 1e6:.2f} us "
                     f"per span = {metrics['trace.spans'] * cost:.3g} s per job expected")
        if tracer.missing:
            notes.append(f"targets not found: {', '.join(tracer.missing)}")
        notes += [f"count check FAILED: {p}" for p in problems]
        if not problems:
            notes.append("count check: ok")
    else:
        value, pct, n = tail(untraced)
        metrics = {
            "setup_s": statistics.median(setup),
            "job_s": statistics.median(untraced),
            "job_s_tail": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END)
        notes += [
            f"job_s: median of {len(untraced)} jobs",
            f"job_s_tail: p{pct:.4g} of {n} jobs"
            + ("" if n >= 44 else f" ({min(10, n // 4)} beyond it: fewer than 44 jobs)"),
            f"setup_s: median of {len(setup)} fresh interpreters",
            f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted} operations failed, "
            f"{wrong} of them wrong or failed gates)",
        ]
    correct = wrong == 0 and not problems

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": environment(),
        "map_threads": threads, "jobs_s": untraced, "traced_jobs_s": traced,
        "paired_traced_jobs_s": paired,
        "setup_s_samples": setup, "cpu_s": cpu, "wall_s": wall,
        "attempted": attempted, "failed": failed, "wrong": wrong, "correct": correct,
        "gates": [list(g) for g in gates], "count_problems": problems,
        "metrics": metrics, "notes": notes,
    }
    results = STATE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.jsonl")

    for line in notes:
        print("#", line)
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced: every metric named in
    BENCHMARK.json must be printed with its unit and every gate must pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "1", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            got = {k: m.get("unit") for k, m in result.get("metrics", {}).items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            bad = []
            if proc.returncode != 0 or result.get("correct") is not True:
                bad.append(f"exit {proc.returncode}, correct={result.get('correct')}")
            if got != want:
                bad.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                           f"extra {sorted(set(got) - set(want))}, units "
                           f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            print(f"smoke {name} trace={trace}: {'ok' if not bad else '; '.join(bad)}")
            if bad:
                ok = False
                sys.stderr.write(proc.stderr[-2000:])
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the output")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
