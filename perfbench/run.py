"""cstarkit job benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload abelian --seed 1 --seconds 25 --trace 0

Each job is one user-level call on seeded inputs whose output is checked
against an independent reference (see jobs.py).  A run repeats rounds of
its workload's mix for ``--seconds``; each round draws fresh inputs and runs
them in a seeded order.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics, from rounds in which every
job runs both untraced and traced.  The line before it records the
environment and the counts behind the metrics.
"""

import os

# One BLAS thread, set before numpy loads, so job timings are not shared
# out across cores by OpenBLAS.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import collections  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import mmap  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

DENSE_KINDS = ("spectrum", "radius", "exp", "sqrt", "neumann")

# Each mix entry is (kind, labels, sizes, copies per round).  The copies
# put a band of same-kind jobs across the 50th and the 90th percentile of a
# round, so the percentiles do not jump between kinds from run to run.  The
# copies are also the weights of the entries in the end-to-end metrics, so
# the metrics do not depend on how many rounds a run managed to finish.
# round_s, the timed length of one round on a 2-core x86 machine with one
# BLAS thread, sets the fixed round count of a traced run, so that its call
# counts repeat exactly for a given seed.
WORKLOADS = {
    # Algebra.coords-heavy commutative algebras.  Doubled eigenvalues halve
    # the algebra dimension at the same n: one third of the mix.
    "abelian": {
        "round_s": 2.9,
        "mix": [
            (kind, ("distinct", "doubled", "circulant"), (6, 8, 12, 16), 1)
            for kind in ("characters", "gelfand")
        ],
    },
    # Non-commutative algebras up to dimension 36: Gram matrices, left
    # regular matrices, and quotient_norm's Nelder-Mead search as the tail.
    "states": {
        "round_s": 6.7,
        "mix": [
            ("gns", ("full", "rank2"), (3,), 17),
            ("gns", ("full", "rank2"), (4,), 4),
            ("gns", ("full", "rank2"), (5,), 2),
            ("gns", ("full", "rank2"), (6,), 1),
            ("universal", ("real",), (2,), 6),
            ("universal", ("real",), (3, 4), 1),
            ("quotient-norm", ("summand",), (2, 3), 1),
            ("gkz", ("density",), (3, 4, 6), 4),
        ],
    },
    # No algebra basis: LAPACK in linalg, report code in cli, n^2 JSON.
    "dense": {
        "round_s": 10.0,
        "mix": [
            *[(kind, ("gaussian",), (32,), 16) for kind in DENSE_KINDS],
            ("spectrum", ("gaussian",), (64,), 6),
            *[(kind, ("gaussian",), (64,), 2) for kind in DENSE_KINDS[1:]],
            *[(kind, ("gaussian",), (128,), 1) for kind in DENSE_KINDS],
            ("qm", ("box",), (250,), 8),
            ("qm", ("box",), (500,), 2),
            ("qm", ("box",), (1000,), 1),
        ],
    },
    # Construction-heavy library calls with one query per algebra.
    "closure": {
        "round_s": 1.9,
        "mix": [
            ("closure.generators", ("pair",), (3, 4, 5, 6), 1),
            ("closure.normal", ("normal",), (4,), 2),
            ("closure.normal", ("normal",), (8, 16), 1),
            ("closure.cyclic", ("cyclic",), (16, 24), 1),
            ("closure.cyclic", ("cyclic",), (32,), 2),
            ("closure.direct_sum", ("full+full",), (2,), 2),
            ("closure.direct_sum", ("full+full",), (3, 4), 1),
            ("closure.quotient", ("full+full",), (2, 3, 4), 1),
        ],
    },
}


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_program():
    """Import cstarkit from this checkout's src/, and from nowhere else."""
    if not (SRC / "cstarkit" / "cli.py").is_file():
        fail(f"no cstarkit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cstarkit
    import cstarkit.cli

    if Path(cstarkit.__file__).resolve().parent != SRC / "cstarkit":
        fail(f"imported cstarkit from {cstarkit.__file__}, not from {SRC}")
    return cstarkit


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing cstarkit.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import cstarkit.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"fresh import of cstarkit.cli failed: {proc.stderr.strip()[-300:]}", 1)
    return statistics.median(times)


# A fixed piece of work, timed before every job, that stands for the speed
# of the machine at that moment.  It mixes the kinds of work the jobs do:
# Python object work, small numpy and LAPACK calls of the sizes the algebra
# code makes, a mid-size SVD, a tall least-squares solve like the one that
# finds an algebra's identity, and page faults on a fresh buffer, as large
# numpy temporaries take.  Shared hosts run the same code up to 1.5x slower
# for minutes at a time; job latencies scaled by REFERENCE_S over the
# reference time around them read as on a machine where this work takes
# REFERENCE_S, and keep still.
_REF_RNG = np.random.default_rng(0x5EED)
_REF_8 = _REF_RNG.standard_normal((8, 8))
_REF_16 = _REF_RNG.standard_normal((16, 16)) + 1j * _REF_RNG.standard_normal((16, 16))
_REF_48 = _REF_RNG.standard_normal((48, 48))
_REF_TALL = _REF_RNG.standard_normal((1024, 32)) + 1j * _REF_RNG.standard_normal((1024, 32))
_REF_FRESH_BYTES = 1 << 20
REFERENCE_S = 6.0e-3
SPEED_SPAN = 10  # jobs on either side of a job whose reference times set its speed


def reference_work() -> float:
    """Run the reference work once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    table = {(i, i % 7): [i, str(i)] for i in range(1000)}
    sum(len(v) for v in table.values())
    for _ in range(10):
        np.linalg.svd(_REF_8)
        _REF_16 @ _REF_16
        np.linalg.eigh(_REF_16 + _REF_16.conj().T)
    np.linalg.svd(_REF_48)
    np.linalg.lstsq(_REF_TALL, _REF_TALL[:, 0], rcond=None)
    with mmap.mmap(-1, _REF_FRESH_BYTES) as fresh:
        page = mmap.PAGESIZE
        for offset in range(0, _REF_FRESH_BYTES, page):
            fresh[offset] = 1
    return time.perf_counter() - t0


def build_round(jobs, workload: str, seed: int, rnd: int, workdir: str) -> list:
    """The jobs of one round; every round draws fresh inputs from (seed, round)."""
    rng = np.random.default_rng([seed, rnd, 0x5EED])
    out = []
    for kind, labels, sizes, copies in WORKLOADS[workload]["mix"]:
        for size in sizes:
            for label in labels:
                for _ in range(copies):
                    path = jobs.input_path(workdir, len(out))
                    out.append(jobs.GENERATORS[kind](rng, size, label, path))
    return out


class Record(NamedTuple):
    round: int
    kind: str
    size: int
    label: str
    seconds: float
    failure: str | None
    residual_miss: bool
    reference: float  # time of the reference work run just before the job


def run_rounds(jobs, cli, make_round, seed, done, tracer=None):
    """Run rounds, each in a seeded order, until ``done(round, untraced
    jobs run)`` holds before a job.

    Returns (untraced, traced).  The reference work runs before every job.
    With a tracer every job runs twice back to back, untraced and traced,
    in alternating order, with the wrappers installed only for the traced
    call; machine speed drifts then cancel out of the tracing overhead.
    """
    plain: list[Record] = []
    traced: list[Record] = []

    def record(r, job, out, ref):
        return Record(r, job.kind, job.size, job.label, out.seconds, out.failure,
                      out.residual_miss, ref)

    def run_traced(r, job, ref):
        with tracer.job(len(traced)):
            out = jobs.execute(job, cli, time.perf_counter)
        traced.append(record(r, job, out, ref))

    for r in itertools.count():
        job_list = make_round(r)
        for n, i in enumerate(np.random.default_rng([seed, r]).permutation(len(job_list))):
            if done(r, len(plain)):
                return plain, traced
            job = job_list[i]
            ref = reference_work()
            if tracer is not None and n % 2:
                run_traced(r, job, ref)
            plain.append(record(r, job, jobs.execute(job, cli, time.perf_counter), ref))
            if tracer is not None and not n % 2:
                run_traced(r, job, ref)


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated linearly between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaling_slopes(records) -> dict:
    """Least-squares slope of log(median latency) against log(size), per kind."""
    by_kind: dict = {}
    for rec in records:
        by_kind.setdefault(rec.kind, {}).setdefault(rec.size, []).append(rec.seconds)
    slopes = {}
    for kind, per_size in by_kind.items():
        if len(per_size) < 2:
            continue
        xs = [math.log(s) for s in per_size]
        ys = [math.log(statistics.median(v)) for v in per_size.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slopes[kind] = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )
    return slopes


def speed_factors(records) -> list[float]:
    """REFERENCE_S over the median reference time around each job: the
    factor that scales the job's latency to the reference machine."""
    refs = [rec.reference for rec in records]
    return [REFERENCE_S / statistics.median(refs[max(0, i - SPEED_SPAN):i + SPEED_SPAN + 1])
            for i in range(len(refs))]


def end_to_end(records, setup_s) -> tuple[dict, dict]:
    """End-to-end metrics, and the counts behind them.

    The time metrics come from the median round: every mix entry (kind,
    size, input family) stands in with the median latency of its jobs in
    the run, as many times as it has copies in a round.  A slow spell of
    the machine that hits a minority of an entry's jobs then does not move
    the metrics, while a change of the program's speed moves every job and
    so the medians.  Every latency is first scaled to the reference machine
    by the speed of the machine around it; set-up time by the median speed.
    """
    lat = [rec.seconds for rec in records]
    speeds = speed_factors(records)
    speed = REFERENCE_S / statistics.median(rec.reference for rec in records)
    per_entry: dict = {}
    for rec, f in zip(records, speeds):
        per_entry.setdefault((rec.kind, rec.size, rec.label), []).append(rec.seconds * f)
    copies = collections.Counter((r.kind, r.size, r.label) for r in records if r.round == 0)
    typical = [statistics.median(v) for e, v in per_entry.items() for _ in range(copies[e])]
    failed = sum(rec.failure is not None for rec in records)
    missed = sum(rec.residual_miss for rec in records)
    p90 = quantile(lat, 90)
    values = {
        "jobs_per_s": len(typical) / sum(typical),
        "job_p50_s": quantile(typical, 50),
        "job_p90_s": quantile(typical, 90),
        "ok_frac": 1.0 - failed / len(lat),
        "residual_ok_frac": 1.0 - missed / len(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s * speed if setup_s is not None else None,
    }
    counts = {
        "jobs": len(lat),
        "rounds": 1 + max(rec.round for rec in records),
        "jobs_above_p90": sum(x > p90 for x in lat),
        "timed_s": sum(lat),
        "speed_factor": speed,
        "raw_setup_s": setup_s,
        "raw_jobs_per_s": len(lat) / sum(lat),
        "raw_p50_s": quantile(lat, 50),
        "raw_p90_s": p90,
        "failed_frac": failed / len(lat),
        "residual_miss_frac": missed / len(lat),
        "failures": sorted({f"{rec.kind} n={rec.size}: {rec.failure}"
                            for rec in records if rec.failure})[:10],
        "median_s": {f"{k}/{lab} n={n}": statistics.median(v)
                     for (k, n, lab), v in sorted(per_entry.items())},
        "scaling_slopes": scaling_slopes(records),
    }
    return values, counts


def per_layer(names, tracer, total_s, overhead_frac, slopes) -> dict:
    """Resolve each per-layer metric name of BENCHMARK.json against the trace."""
    from tracer import CLI_GROUPS, MODULES

    spans = tracer.per_span()

    def span_sum(members, key):
        return sum(spans[m][key] for m in members)

    groups = {g: list(m) for g, m in CLI_GROUPS.items()}
    groups["cli.handler"] = [s for s in spans if s.startswith("cli.cmd_")]
    for mod in MODULES:
        groups[mod] = [s for s in spans if s.startswith(mod + ".")]

    out = {}
    for name in names:
        base, _, key = name.rpartition(".")
        if name == "trace.overhead_frac":
            out[name] = overhead_frac
        elif name.startswith("scaling.") and key == "slope":
            out[name] = slopes.get(base[len("scaling."):], 0.0)
        elif key == "op_norm_calls":
            calls = spans[base]["calls"]
            out[name] = tracer.child_calls(base, "linalg.op_norm") / calls if calls else 0.0
        elif key == "share" and base in MODULES:
            out[name] = span_sum(groups[base], "self_s") / total_s
        elif key in ("calls", "self_s") and base in spans:
            out[name] = spans[base][key]
        elif key in ("calls", "self_s") and base in groups:
            out[name] = span_sum(groups[base], key)
        else:
            raise KeyError(f"per-layer metric {name!r} names no traced span or group")
    return out


def environment(args, counts_by_kind) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_by_kind": counts_by_kind,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec = load_spec()
    package = import_program()
    sys.path.insert(0, str(HERE))
    import jobs

    setup_s = measure_setup() if args.trace == 0 else None
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work")
    cli = package.cli
    try:
        def make_round(r):
            return build_round(jobs, args.workload, args.seed, r, workdir)

        # untimed warm-up: the smallest job of each kind, and the reference
        first = make_round(0)
        for kind in dict.fromkeys(j.kind for j in first):
            smallest = min((j for j in first if j.kind == kind), key=lambda j: j.size)
            jobs.execute(smallest, cli, time.perf_counter)
        for _ in range(20):
            reference_work()

        if args.trace == 0:
            # --seconds, a whole first round, and at least 100 jobs, so that
            # ten or more lie above p90
            deadline = time.perf_counter() + args.seconds
            records, _ = run_rounds(
                jobs, cli, make_round, args.seed,
                lambda r, n: r > 0 and n >= 100 and time.perf_counter() >= deadline)
            values, counts = end_to_end(records, setup_s)
            names = spec["end_to_end"]
        else:
            from tracer import Tracer

            # Each job untraced and traced: at most half the time each.
            n_rounds = max(1, int(args.seconds / 2 / WORKLOADS[args.workload]["round_s"]))
            tracer = Tracer(package)
            plain, traced = run_rounds(jobs, cli, make_round, args.seed,
                                       lambda r, n: r >= n_rounds, tracer)
            traced_s = sum(rec.seconds for rec in traced)
            plain_s = sum(rec.seconds for rec in plain)
            values = per_layer([m["name"] for m in spec["per_layer"]], tracer, traced_s,
                               traced_s / plain_s - 1.0, scaling_slopes(plain))
            names = spec["per_layer"]
            (HERE / ".out").mkdir(exist_ok=True)
            tracer.save(str(HERE / ".out" / f"spans-{args.workload}-seed{args.seed}.npz"))
            records = plain + traced
            _, counts = end_to_end(plain, None)
            counts.update(traced_rounds=n_rounds, spans=len(tracer.start))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    by_kind: dict = {}
    for rec in records:
        by_kind[rec.kind] = by_kind.get(rec.kind, 0) + 1
    failed = sum(rec.failure is not None for rec in records)
    print(json.dumps({"environment": environment(args, by_kind), "counts": counts}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
