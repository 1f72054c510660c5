"""Self-tests of the benchmark (run from the repository root):

    python3 perfbench/selftest.py

1. The reference checks are not vacuous.  For every job kind the untouched
   output passes its check, and a copy whose result numbers are nudged by
   1e-3 (relative) fails it; so do a non-zero exit code and a raising job.
2. Tracing is transparent.  With the wrappers installed every CLI report is
   byte-identical to the untraced report for the same input and seed; the
   traced call counts repeat exactly; and after uninstall every module,
   class and handler attribute is the original object again.

Uses the smallest size of every job kind, so it takes well under a minute.
Exits 0 when every test passes, 1 otherwise.
"""

import json
import shutil
import sys
import tempfile
import time

import run  # sets the BLAS thread count before numpy loads

import numpy as np  # noqa: E402


def smallest_jobs(jobs, workdir: str, seed: int) -> list:
    rng = np.random.default_rng(seed)
    smallest: dict = {}
    for spec in run.WORKLOADS.values():
        for kind, labels, sizes, _ in spec["mix"]:
            for label in labels:
                key = (kind, label)
                smallest[key] = min(smallest.get(key, min(sizes)), min(sizes))
    return [
        jobs.GENERATORS[kind](rng, size, label, jobs.input_path(workdir, i))
        for i, ((kind, label), size) in enumerate(sorted(smallest.items()))
    ]


def perturb(x):
    """Nudge every number (not flags) by 1e-3 * (1 + |x|)."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, (int, float)):
        return x + 1e-3 * (1.0 + abs(x))
    if isinstance(x, np.ndarray):
        return x + 1e-3 * (1.0 + np.abs(x))
    if isinstance(x, dict):
        return {k: perturb(v) for k, v in x.items()}
    if isinstance(x, list):
        return [perturb(v) for v in x]
    return x


def test_checks_catch_perturbed_outputs(jobs, cli, job_list) -> list[str]:
    errors = []
    for job in job_list:
        tag = f"{job.kind}/{job.label} n={job.size}"
        out = jobs.execute(job, cli, time.perf_counter)
        if out.failure is not None:
            errors.append(f"{tag}: unperturbed output failed: {out.failure}")
            continue
        if job.is_cli:
            bad = dict(out.output, results=perturb(out.output["results"]))
            failure, _, _ = jobs.judge(job, 0, json.dumps(bad))
            exit_failure, _, _ = jobs.judge(job, 1, "error: NotPositive")
            if exit_failure is None:
                errors.append(f"{tag}: exit code 1 counted as correct")
        else:
            failure, _, _ = jobs.judge(job, 0, perturb(out.output))
        if failure is None:
            errors.append(f"{tag}: perturbed output passed its check")

    def boom():
        raise ValueError("deliberate")

    raising = jobs.Job("closure.raises", 1, "x", call=boom)
    if jobs.execute(raising, cli, time.perf_counter).failure is None:
        errors.append("a raising job counted as correct")
    return errors


def _attributes(package, tracer_mod) -> dict:
    snap = {}
    for name in tracer_mod.MODULES:
        mod = getattr(package, name)
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, type):
                for cattr, cobj in vars(obj).items():
                    snap[(mod.__name__, attr, cattr)] = cobj
    for attr, obj in vars(package).items():
        snap[(package.__name__, attr)] = obj
    for key, fn in package.cli._HANDLERS.items():
        snap[("cli._HANDLERS", key)] = fn
    return snap


def test_tracing_is_transparent(jobs, package, job_list) -> list[str]:
    import tracer as tracer_mod

    errors = []
    cli_jobs = [j for j in job_list if j.is_cli]
    before = _attributes(package, tracer_mod)
    plain = [jobs.run_cli(package.cli, j.argv) for j in cli_jobs]
    counts = []
    for _ in range(2):
        tr = tracer_mod.Tracer(package)
        traced = []
        for i, job in enumerate(cli_jobs):
            with tr.job(i):
                traced.append(jobs.run_cli(package.cli, job.argv))
        counts.append({k: v["calls"] for k, v in tr.per_span().items()})
        if not tr.start:
            errors.append("the traced pass recorded no spans")
        for job, a, b in zip(cli_jobs, plain, traced):
            if a != b:
                errors.append(f"{job.kind} n={job.size}: report differs with tracing on")
    if counts[0] != counts[1]:
        errors.append("traced call counts differ between two identical passes")
    after = _attributes(package, tracer_mod)
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed or set(after) != set(before):
        errors.append(f"attributes not restored after uninstall: {changed[:5]}")
    return errors


def main() -> int:
    package = run.import_program()
    sys.path.insert(0, str(run.HERE))
    import jobs

    (run.HERE / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.HERE / ".work")
    try:
        job_list = smallest_jobs(jobs, workdir, seed=7)
        results = {
            "checks catch perturbed outputs": test_checks_catch_perturbed_outputs(
                jobs, package.cli, job_list),
            "tracing is transparent": test_tracing_is_transparent(jobs, package, job_list),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, errors in results.items():
        print(f"{'PASS' if not errors else 'FAIL'} {name} ({len(job_list)} jobs)")
        for e in errors:
            print(f"  {e}")
    return 0 if not any(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
