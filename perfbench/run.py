"""rieszkit benchmark: seeded closed-loop workloads over the public API and CLI.

    python3 perfbench/run.py --workload cdf-recovery --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from a checkout: the library is imported from ``src/``. One client in
one process, BLAS pinned to one thread; each job starts when the previous
one has ended. A run builds the workload's fixed job batch from ``--seed``,
runs one warm-up job per layer, then repeats the batch until ``--seconds``
have passed (at least once). Every job is checked against its reference;
every repetition must produce the same output digest.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes that import ``rieszkit`` and ``rieszkit.cli`` and run the
warm-up jobs), ``wall_s`` (the batch's time to solution: the sum of the
jobs' latencies), ``job_p50_ms`` and ``job_p90_ms`` (Harrell-Davis
quantiles across the jobs' latencies), ``peak_rss_mb`` (after the first
repetition) and ``pass_frac``, and prints ``max_err_ratio``, the
unscaled timings and the output digests. A job's latency is its fastest
over the repetitions, each repetition's times scaled to the reference
speed by a calibration kernel timed before every job (see _end_to_end).
``--trace 1`` alternates untraced and traced repetitions, reports the
per-layer metrics of ``tracer.py``, checks the layers each workload must
bypass, and writes the spans to ``.bench_work/``. The last line of stdout is one JSON object; the exit
code is 1 when a job fails a check.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("cdf-recovery", "paths", "expectations")
SETUP_SAMPLES = 7
# Fastest time of _calibration_kernel on the machine the baseline was
# measured on (2-vCPU Xeon VM at 2.1 GHz nominal); timed latencies are
# stated at the speed at which the kernel takes this long.
CAL_REF_S = 0.15e-3
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "1",
}


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "rieszkit", "__init__.py")):
        sys.exit(f"no rieszkit sources under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [SRC, BENCH_DIR]
    import jobs

    return jobs


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


# --------------------------------------------------------------------------
# running jobs
# --------------------------------------------------------------------------


def _calibration_kernel():
    """Fixed work in the style of the library's inner loops (small numpy
    arrays: linspace, interp, diff, dot, driven from Python); no library
    code, so no change to the library alters its time."""
    import numpy as np

    s = 0.0
    for k in range(3, 11):
        nodes = np.linspace(-0.9, 0.9, 2**k + 1)
        masses = np.diff(np.interp(nodes, [-0.5, 0.5], [0.0, 1.0]))
        tags = 0.5 * (nodes[:-1] + nodes[1:])
        s += float(np.dot(np.interp(tags, [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]), masses))
    return s


def run_batch(batch, tracer=None, calibrate=False):
    """Run every job once, in order; time each job's library call only.
    With ``calibrate`` the calibration kernel is timed before each job."""
    clock = time.perf_counter
    cal = []
    digest = hashlib.sha256()
    cli_digest = hashlib.sha256()
    latencies, ratios, failures = [], [], []
    t0 = clock()
    for k, job in enumerate(batch):
        if tracer is not None:
            tracer.job = k
        if calibrate:
            c0 = clock()
            _calibration_kernel()
            cal.append(clock() - c0)
        j0 = clock()
        try:
            out = job.run()
        except Exception as exc:  # a failed job is counted, not fatal
            latencies.append(clock() - j0)
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(clock() - j0)
        try:
            items, ratio = job.check(out)
        except Exception as exc:
            failures.append(f"{job.name}: check raised {type(exc).__name__}: {exc}")
            continue
        ratios.append(ratio)
        if not ratio <= 1.0:
            failures.append(f"{job.name}: error ratio {ratio!r} exceeds 1")
        text = f"{job.name}|{items!r}".encode()
        digest.update(text)
        if job.seeded_cli:
            cli_digest.update(text)
    return {
        "wall": clock() - t0,
        "cal": cal,
        "latencies": latencies,
        "max_ratio": max(ratios, default=0.0),
        "failures": failures,
        "digest": digest.hexdigest(),
        "cli_digest": cli_digest.hexdigest(),
    }


def setup_child(workload):
    """Fresh-process set-up: import the library and CLI, run the warm-ups."""
    jobs = _import_library()
    import rieszkit  # noqa: F401
    import rieszkit.cli  # noqa: F401

    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        res = run_batch(jobs.warmup_jobs(workload, tmp))
    if res["failures"]:
        sys.exit("warm-up failed: " + "; ".join(res["failures"]))
    print(repr(time.perf_counter() - T_START))


def measure_setup(workload):
    """Set-up time of SETUP_SAMPLES fresh processes, after one untimed one
    that leaves the byte-code caches written."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child", workload]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode:
            sys.exit(f"set-up process failed: {proc.stderr.strip()}")
        if k:
            samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_workload(workload, seed, seconds, trace):
    jobs = _import_library()
    os.makedirs(WORK, exist_ok=True)
    setup = [] if trace else measure_setup(workload)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        batch = jobs.build_batch(workload, seed, tmp)
        warm = run_batch(jobs.warmup_jobs(workload, tmp))
        # the batch's pre-built inputs (up to 1e5-atom tuples) are long-lived;
        # keep the collector from re-scanning them inside the jobs' timings
        gc.collect()
        gc.freeze()
        if trace:
            result = _traced_reps(workload, seed, batch, seconds)
        else:
            result = _timed_reps(batch, seconds)
    failures = warm["failures"] + result["failures"]
    digests = {r["digest"] for r in result["reps"]}
    cli_digests = {r["cli_digest"] for r in result["reps"]}
    problems = list(result.get("problems", []))
    if len(digests) != 1 or len(cli_digests) != 1:
        problems.append("job outputs differ between repetitions of one batch")
    print(f"workload {workload} seed {seed}: {len(batch)} jobs x {len(result['reps'])} repetitions")
    print(f"digest {sorted(digests)[0]}")
    print(f"cli_digest {sorted(cli_digests)[0]}")
    for f in sorted(set(failures)):
        print(f"FAIL {f}")
    for p in problems:
        print(f"CHECK FAILED {p}")
    attempted = len(batch) * len(result["reps"])
    failed = len(result["failures"])
    if trace:
        metrics = result["metrics"]
    else:
        metrics = _end_to_end(result["reps"], setup, result["peak_rss_mb"], attempted, failed)
        print(f"tensor cap per job {jobs.TENSOR_CAP_BYTES / 2**20:.0f} MiB computed; "
              f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f}")
    ok = not failures and not problems
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def _hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of all order statistics. A job batch mixes job kinds of
    very different cost, so the single order statistic at rank pn jumps
    whenever a few jobs cross it; the weighted mean moves smoothly."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20 * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, cdf.size), cdf)
    return float(np.dot(np.diff(edges), x))


def _time_left(t0, seconds, walls):
    """Room for one more repetition of the median length, or none done yet."""
    return not walls or time.perf_counter() - t0 + statistics.median(walls) <= seconds


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_reps(batch, seconds):
    """Repeat the batch; the peak memory is read after the first repetition,
    since later ones only add allocator growth that depends on their count."""
    reps = []
    t0 = time.perf_counter()
    while _time_left(t0, seconds, [r["wall"] for r in reps]):
        reps.append(run_batch(batch, calibrate=True))
        if len(reps) == 1:
            peak = _peak_rss_mb()
    return {"reps": reps, "failures": [f for r in reps for f in r["failures"]], "peak_rss_mb": peak}


def _end_to_end(reps, setup, peak_rss_mb, attempted, failed):
    """Timed metrics at the reference speed, from each job's fastest run.

    The machine's speed swings by tens of percent, both from one job to
    the next and in phases that last seconds to minutes. A job's latency
    in repetition r is scaled by CAL_REF_S / (fastest calibration kernel
    in r), which takes out the phase, and the job's latency is the
    fastest of these over the repetitions, which takes out the jitter.
    p50 and p90 are taken across jobs, and ``wall_s``, the time to
    solution of the batch, is the sum of the jobs' latencies."""
    walls = [r["wall"] for r in reps]
    floors = [min(r["cal"]) for r in reps]
    per_job = list(zip(*(r["latencies"] for r in reps)))
    lat_ms = [min(t * CAL_REF_S / f for t, f in zip(x, floors)) * 1e3 for x in per_job]
    raw_ms = [min(x) * 1e3 for x in per_job]
    p90 = _hd_quantile(lat_ms, 0.9)
    values = {
        "setup_s": (statistics.median(setup), _quartiles(setup), len(setup)),
        "wall_s": (sum(lat_ms) / 1e3, None, len(walls)),
        "job_p50_ms": (_hd_quantile(lat_ms, 0.5), _quartiles(lat_ms), len(lat_ms)),
        "job_p90_ms": (p90, _quartiles(lat_ms), len(lat_ms)),
        "peak_rss_mb": (peak_rss_mb, None, 1),
        "pass_frac": ((attempted - failed) / attempted, None, attempted),
    }
    for name, (value, q, n) in values.items():
        spread = f"  q1 {q[0]:.6g}  median {q[1]:.6g}  q3 {q[2]:.6g}" if q else ""
        print(f"  {name:<14} {value:>14.6g} {END_TO_END[name]:<3} n={n}{spread}")
    print(f"  jobs above p90: {sum(x > p90 for x in lat_ms)}")
    print(f"  batch repetitions: median {statistics.median(walls):.6g} s, quartiles "
          f"{' '.join(f'{q:.6g}' for q in _quartiles(walls))}, n={len(walls)}")
    print(f"  calibration kernel fastest per repetition: min {min(floors) * 1e3:.6g} ms, "
          f"median {statistics.median(floors) * 1e3:.6g} ms, max {max(floors) * 1e3:.6g} ms "
          f"(reference {CAL_REF_S * 1e3:.6g} ms)")
    print(f"  unscaled fastest: wall_s {sum(raw_ms) / 1e3:.6g}  job_p50_ms "
          f"{_hd_quantile(raw_ms, 0.5):.6g}  job_p90_ms {_hd_quantile(raw_ms, 0.9):.6g}")
    # seed-dependent by nature (it is a max over the drawn inputs), so it
    # gates correctness but is not a tracked metric
    print(f"  max_err_ratio  {max(r['max_ratio'] for r in reps):>14.6g} 1   n={attempted}")
    return {name: {"value": v[0], "unit": END_TO_END[name]} for name, v in values.items()}


def _traced_reps(workload, seed, batch, seconds):
    import tracer as tr

    t = tr.Tracer()
    reps, untraced, per_rep, spans_all, problems = [], [], [], [], []
    t0 = time.perf_counter()
    while _time_left(t0, seconds, [a + b["trace.wall_s"] for a, b in zip(untraced, per_rep)]):
        plain = run_batch(batch)
        untraced.append(plain["wall"])
        t.install()
        try:
            traced = run_batch(batch, t)
        finally:
            t.restore()
        spans, counts = t.take()
        spans_all.extend(spans)
        per_rep.append(tr.layer_metrics(spans, counts, traced["wall"]))
        reps += [plain, traced]
    metrics = {}
    for name, (unit, _) in tr.PER_LAYER.items():
        if name == "trace.overhead_s":
            value = statistics.median(r["trace.wall_s"] for r in per_rep) - statistics.median(untraced)
        else:
            vals = [r[name] for r in per_rep]
            value = statistics.median(vals)
            if unit != "s" and len(set(vals)) != 1:
                problems.append(f"{name} differs between traced repetitions: {sorted(set(vals))}")
        metrics[name] = {"value": value, "unit": unit}
    wall = metrics["trace.wall_s"]["value"]
    print(f"traced wall_s {wall:.4f}  untraced wall_s {statistics.median(untraced):.4f}  "
          f"({len(per_rep)} traced repetitions)")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    print("share of traced wall time:")
    for layer in tr.LAYERS + ("bench",):
        print(f"  {layer:<12} {metrics[f'{layer}.self_s']['value'] / wall:7.1%}")
    if metrics["bench.self_s"]["value"] < 0:
        problems.append("layer self times exceed the traced wall time")
    for name in tr.PREDICTED_ZERO[workload]:
        if metrics[name]["value"] != 0:
            problems.append(f"bypass: {name} = {metrics[name]['value']} on {workload}, predicted 0")
    for name in tr.PREDICTED_NONZERO[workload]:
        if not metrics[name]["value"] > 0:
            problems.append(f"stress: {name} = {metrics[name]['value']} on {workload}, predicted > 0")
    tr.dump_spans(spans_all, os.path.join(WORK, f"trace-{workload}-{seed}.jsonl"))
    # traced and untraced repetitions must agree on every output digest
    failures = [f for r in reps for f in r["failures"]]
    return {"reps": reps, "failures": failures, "metrics": metrics, "problems": problems}


# --------------------------------------------------------------------------
# every workload in one command, and the self-check
# --------------------------------------------------------------------------


def _child(args):
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def run_all(seed, seconds, trace):
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS:
        code, out = _child(["--workload", w, "--seed", str(seed), "--seconds", str(seconds),
                            "--trace", str(trace)])
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct &= code == 0 and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{w}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def self_check():
    jobs = _import_library()
    import rieszkit.wiener as wn

    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok &= bool(passed)
        print(f"{'ok  ' if passed else 'FAIL'} {name} {detail}")

    # the tensor cap, by computation only: nothing of this size is built
    cap = jobs.TENSOR_CAP_BYTES
    admitted = True
    try:
        wn._check_budget(4, 70)
    except Exception:
        admitted = False
    report("cap rejects N=4 n=70", jobs.tensor_bytes(4, 70) > cap and admitted,
           f"({jobs.tensor_bytes(4, 70) / 2**30:.2f} GiB computed, admitted by the work budget: {admitted})")
    report("cap admits N=4 n=32", jobs.tensor_bytes(4, 32) <= cap,
           f"({jobs.tensor_bytes(4, 32) / 2**20:.0f} MiB computed, cap {cap / 2**20:.0f} MiB)")
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for seed in range(20):  # building a batch raises on a job over the cap
            jobs.build_batch("paths", seed, tmp)
    report("paths batches of 20 seeds stay under the cap", True)

    # the same seed gives the same outputs, across processes
    for w in WORKLOADS:
        digests = []
        for _ in range(2):
            code, out = _child(["--workload", w, "--seed", "20261017", "--seconds", "0",
                                "--trace", "0"])
            lines = dict(line.split(" ", 1) for line in out.splitlines()
                         if line.startswith(("digest ", "cli_digest ")))
            digests.append((code, lines.get("digest"), lines.get("cli_digest")))
        report(f"{w} digests repeat", digests[0] == digests[1] and digests[0][0] == 0,
               str(digests[0][1:]))

    # seeded CLI commands print the same bytes in fresh processes and in process
    env = dict(os.environ, PYTHONPATH=SRC)
    for args in (["bridge-sample", "--times", "0.2,0.5", "--paths", "5", "--seed", "11"],
                 ["wiener-integrate", "--F", "mono:2", "--times", "0.5", "--nodes", "8,16",
                  "--paths", "1000", "--seed", "3"]):
        outs = [subprocess.run([sys.executable, "-m", "rieszkit.cli", *args], env=env,
                               capture_output=True, timeout=CHILD_TIMEOUT_S).stdout
                for _ in range(2)]
        inproc = jobs.invoke_cli(args).encode()
        report(f"{args[0]} byte-identical", outs[0] == outs[1] == inproc and len(inproc) > 0)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--setup-child", choices=WORKLOADS, help=argparse.SUPPRESS)
    a = ap.parse_args()
    if a.setup_child:
        return setup_child(a.setup_child)
    if a.self_check:
        return self_check()
    if a.workload is None:
        ap.error("--workload is required")
    if a.workload == "all":
        return run_all(a.seed, a.seconds, a.trace)
    return run_workload(a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    sys.exit(main())
