"""schemekit benchmark: closed-loop workloads, end to end and per layer.

    python3 bench/run.py --workload symbolic --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --self-test               # a corrupted output fails

Run from the root of a checkout; the package is imported from `src/`.
One client sends each job only after the previous one returned.  The
job list (a "pass") is repeated until `--seconds` have gone by, each
pass in a fresh process.  Times are in reference seconds (see
measure.py).  With `--trace 0` the last line of output is a JSON object
holding the end-to-end metrics; with `--trace 1` it holds the per-layer
metrics of a separate traced pass.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import cli_workload  # noqa: E402
import workloads  # noqa: E402
from measure import (CAL_NOMINAL_S, COLD_CAL_NOMINAL_S,  # noqa: E402
                     cold_calibrate, quantile, run_jobs, scale, scale_pass,
                     tail_quantile)
from tracer import Tracer, merge_summaries, write_spans  # noqa: E402

WORKLOADS = ("symbolic", "explicit", "codes", "cli")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001      # not used to tune the benchmark
SETUP_REPEATS = 3
TARGET_SEED = 20101105    # fixed inputs of the target jobs

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("job_p50_ms", "ms"),
              ("job_tail_ms", "ms"), ("peak_rss_mb", "MB"),
              ("fail_ratio", "ratio"))


class BenchError(Exception):
    pass


# -- timing helpers ----------------------------------------------------------


def latency_summary(passes):
    """Figures of a run from its passes, in reference seconds.

    Every pass runs the same list of N jobs in a fresh process.  solve_s
    is the median over passes of the pass's summed job latencies.  p50
    and the tail are quantiles of all job runs of the run; the tail's
    quantile (N-10)/N is the highest with ten jobs of one pass beyond it.
    """
    scaled = [scale_pass(p["raw"], p["cals"],
                         p.get("nominal", CAL_NOMINAL_S)) for p in passes]
    n = len(scaled[0])
    runs = [seconds for s in scaled for seconds in s]
    q = tail_quantile(n)
    return {
        "solve_s": statistics.median(sum(s) for s in scaled),
        "job_p50_ms": 1000 * quantile(runs, 0.5),
        "job_tail_ms": 1000 * quantile(runs, q),
        "tail_percentile": 100 * q,
        "jobs_per_pass": n,
        "passes": len(passes),
        "pass_raw_s": [sum(p["raw"]) for p in passes],
        "pass_scaled_s": [sum(s) for s in scaled],
    }


def setup_summary(setups):
    return {"setup_s": statistics.median(scale(s["setup_raw_s"],
                                               s["setup_cals"])
                                         for s in setups),
            "setup_raw_s": [s["setup_raw_s"] for s in setups]}


def closed_loop(run_pass, seconds):
    """Repeat passes until the next one would end after `seconds`;
    run_pass gets the index of the pass.  The output checks a pass ran
    after its timed phase (`checks_s`, the identities on the first
    pass) do not count towards the length of the next one."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(len(passes)))
        now = time.perf_counter()
        length = now - t0 - passes[-1].get("checks_s", 0.0)
        if (now - start) + length > seconds:
            return passes


def pin_to_one_cpu():
    """Run the benchmark and every process it starts on one CPU.

    The speed of a CPU of this machine changes with the load other
    tenants put on it; a process the scheduler moves between CPUs would
    be calibrated on one and timed on another.  The workloads are one
    client running one job at a time, so one CPU is what they use.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env():
    return cli_workload.child_env(str(SRC))


def probe(*args):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"),
                           *map(str, args)],
                          env=child_env(), capture_output=True, text=True,
                          timeout=150, cwd=str(ROOT))
    if proc.returncode != 0:
        raise BenchError("probe %s failed: %s" % (args, proc.stderr.strip()))
    return proc.stdout


class OutputCheck:
    """Counts job runs and failed job runs; keeps the first reason a
    computation failed."""

    def __init__(self):
        self.failures = {}    # key -> reason
        self.failed = 0
        self.attempted = 0

    def add(self, key, bad):
        """Record one job run; `bad` is the reason it failed, or None."""
        self.attempted += 1
        if bad:
            self.failed += 1
            self.failures.setdefault(key, bad)


def judge(check, rows, reference, seen, identity_bad):
    for row in rows:
        check.add(row[0], checks.verdict(row, reference, seen, identity_bad))


# -- library workloads -------------------------------------------------------


def import_schemekit():
    import schemekit
    where = Path(schemekit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError("schemekit was imported from %s, not from %s"
                         % (where, SRC))
    return schemekit


def library_end_to_end(workload, seed, seconds, workdir):
    """Each pass in a fresh process (probe.py pass); the first pass also
    runs the identity checks, after its timed phase.  Later passes are
    held to the first one's digests, so the identities cover them too."""
    def one_pass(index):
        out = os.path.join(workdir, "pass-%d.json" % index)
        probe("pass", out, workload, seed, int(index == 0))
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    passes = closed_loop(one_pass, seconds)
    setups = passes + [json.loads(probe("setup"))
                       for _ in range(SETUP_REPEATS - len(passes))]
    reference, seen = checks.load_reference(), {}
    check = OutputCheck()
    identity_bad = passes[0]["identity_failures"]
    for p in passes:
        judge(check, p["rows"], reference, seen, identity_bad)
    summary = latency_summary(passes)
    summary.update(setup_summary(setups),
                   peak_rss_mb=max(p["peak_rss_mb"] for p in passes))
    props = {"repeated_share": passes[0]["repeated_share"],
             "additive_share": passes[0]["additive_share"]}
    return summary, check, props


def library_traced(workload, seed, seconds):
    sk = import_schemekit()
    bases = workloads.build_bases(sk)
    jobs = workloads.make_jobs(sk, workload, bases, seed)
    reference, seen = checks.load_reference(), {}
    check = OutputCheck()
    targets = run_targets(sk, seconds)

    untraced = run_jobs(jobs)
    judge(check, checks.outcome_rows(jobs, untraced["outcomes"]), reference,
          seen, checks.identity_failures(sk, bases, jobs,
                                         untraced["outcomes"]))

    tracer = Tracer()
    with tracer:
        tracer.job = "setup"
        traced_bases = workloads.build_bases(sk)
    traced_jobs = workloads.make_jobs(sk, workload, traced_bases, seed)
    with tracer:
        traced = run_jobs(traced_jobs, tracer=tracer)
    judge(check, checks.outcome_rows(traced_jobs, traced["outcomes"]),
          reference, seen, {})
    summary = tracer.summary()
    summary["import_cli_s"] = float(probe("import-cli"))
    write_spans(spans_path(workload, seed), tracer.spans)
    metrics = per_layer_metrics(summary, targets,
                                traced["wall"] - untraced["wall"])
    return metrics, check


# -- cli workload ------------------------------------------------------------


def cold_pass(jobs, workdir, env):
    """Run commands one at a time, with a cold calibration before the
    first and after every one.  Returns the pass and the processes."""
    raw, cals, rss, procs = [], [cold_calibrate(env)], [], []
    for job in jobs:
        seconds, proc, peak = cli_workload.run_command(
            cli_workload.python_prefix(), job, workdir, env)
        cals.append(cold_calibrate(env))
        raw.append(seconds)
        rss.append(peak)
        procs.append(proc)
    return {"raw": raw, "cals": cals, "nominal": COLD_CAL_NOMINAL_S,
            "peak_rss_mb": max(rss)}, procs


def cli_end_to_end(seed, seconds, workdir):
    env = child_env()
    cli_workload.write_inputs(workdir)
    help_job = cli_workload.CliJob(("--help",), (0,))
    setup, _procs = cold_pass([help_job] * SETUP_REPEATS, workdir, env)
    jobs = cli_workload.command_list(seed)
    check, reference = OutputCheck(), checks.load_reference()

    def one_pass(_index):
        result, procs = cold_pass(jobs, workdir, env)
        for job, proc in zip(jobs, procs):
            check.add(job.key, cli_workload.check(job, proc, reference))
        return result

    passes = closed_loop(one_pass, seconds)
    summary = latency_summary(passes)
    summary.update(setup_s=statistics.median(scale_pass(
                       setup["raw"], setup["cals"], COLD_CAL_NOMINAL_S)),
                   setup_raw_s=setup["raw"],
                   peak_rss_mb=max(p["peak_rss_mb"] for p in passes))
    return summary, check, {"repeated_share": 0.0, "additive_share": 0.0}


def cli_traced(seed, seconds, workdir):
    env = child_env()
    cli_workload.write_inputs(workdir)
    jobs = cli_workload.command_list(seed)
    check, reference = OutputCheck(), checks.load_reference()
    start = time.perf_counter()
    for job in jobs:
        _s, proc, _rss = cli_workload.run_command(
            cli_workload.python_prefix(), job, workdir, env)
        check.add(job.key, cli_workload.check(job, proc, reference))
    untraced_wall = time.perf_counter() - start
    summaries, imports, spans = [], [], []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        out = os.path.join(workdir, "trace-%d.json" % index)
        prefix = [sys.executable, str(BENCH_DIR / "probe.py"), "cli", out]
        _seconds, proc, _rss = cli_workload.run_command(prefix, job, workdir,
                                                        env)
        check.add(job.key, cli_workload.check(job, proc, reference))
        with open(out, encoding="utf-8") as fh:
            child = json.load(fh)
        summaries.append(child["trace"])
        imports.append(child["import_s"])
        spans.extend((name, t0, t1, parent, index)
                     for name, t0, t1, parent, _job in child["spans"])
    traced_wall = time.perf_counter() - start
    sk = import_schemekit()
    targets = run_targets(sk, seconds)
    summary = merge_summaries(summaries)
    summary["import_cli_s"] = statistics.median(imports)
    write_spans(spans_path("cli", seed), spans)
    metrics = per_layer_metrics(summary, targets,
                                traced_wall - untraced_wall)
    return metrics, check


# -- per-layer metrics -------------------------------------------------------


def run_targets(sk, seconds):
    """The ROADMAP target jobs, timed one call each with tracing off."""
    out = {}
    # binary induced_matrix: double n while the next call (about 8x the
    # last one) still fits in half the run length
    K = sk.ExactMatrix([[1, 1], [1, -1]])
    spent, n = 0.0, 10
    while True:
        t0 = time.perf_counter()
        sk.induced_matrix(K, n)
        last = time.perf_counter() - t0
        spent += last
        out["target.induced_binary_s"] = last
        out["target.induced_binary_n"] = n
        if n >= 80 or spent + 8 * last > seconds / 2:
            break
        n *= 2

    z4 = sk.group_scheme([4])
    P = sk.eigenmatrix(z4)
    composite = sk.build_explicit(z4, 3)
    P3 = sk.eigenmatrix_gh(P, 3)
    t0 = time.perf_counter()
    ok = sk.certify_eigenmatrix(composite, P3)
    out["target.certify_z4_n3_s"] = time.perf_counter() - t0
    if not ok:
        raise BenchError("target: composite Z4 n=3 P did not certify")

    words = workloads.random_words(random.Random(TARGET_SEED), 4, 8, 64)
    code = sk.Code(words, z4)
    W = sk.weight_enumerator(code)
    t0 = time.perf_counter()
    sk.macwilliams_transform(W, P, 4, len(code))
    out["target.transform_z4_n8_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sk.build_explicit(z4, 4)
    out["target.build_explicit_z4_n4_s"] = time.perf_counter() - t0
    return out


def per_layer_metrics(summary, targets, overhead_s):
    self_t, calls = summary["self_time"], summary["calls"]
    counts, outcomes = summary["counts"], summary["outcomes"]

    def ratio(name):
        hits, total = outcomes.get(name, (0, 0))
        return hits / total if total else 0.0

    def family(prefix):
        return sum(v for k, v in self_t.items() if k.startswith(prefix))

    m = {
        "exact.gaussrat_ops": counts.get("exact.gaussrat_ops", 0),
        "genham.h_vector.calls": counts.get("genham.h_vector", 0),
        "scheme.certify_eigenmatrix.ok_ratio":
            ratio("scheme.certify_eigenmatrix"),
        "modular.search_T.found_ratio": ratio("modular.search_T"),
        "modular.verify_modular.fail_ratio": ratio("modular.verify_modular"),
        "builders.self_s": family("builders."),
        "jsonio.self_s": family("jsonio."),
        "cli.import_s": summary["import_cli_s"],
        "trace.overhead_s": overhead_s,
    }
    for name in CALLS:
        m[name + ".calls"] = calls.get(name, 0)
    for name in SELF_TIMES:
        m[name + ".self_s"] = self_t.get(name, 0.0)
    m.update(targets)
    return m


CALLS = ("exact.induced_matrix", "exact.ExactMatrix.inverse",
         "exact.MPoly.mul", "scheme.verify_axioms", "scheme.eigenmatrix",
         "scheme.certify_eigenmatrix", "genham.build_explicit",
         "modular.search_T", "modular.least_squares", "modular.verify_modular")
SELF_TIMES = ("exact.induced_matrix", "exact.ExactMatrix.inverse",
              "exact.ExactMatrix.matmul", "exact.MPoly.mul",
              "exact.substitute_polys", "scheme.verify_axioms",
              "scheme.eigenmatrix", "scheme.certify_eigenmatrix",
              "scheme.krein_parameters", "genham.build_explicit",
              "genham.formal_duality_check", "codes.weight_enumerator",
              "codes.inner_distribution", "codes.macwilliams_transform",
              "codes.dual_code", "modular.search_T",
              "modular.induced_modular_check", "cli.run")


def spans_path(workload, seed):
    """Where the traced run writes its spans."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    return out_dir / ("spans-%s-%d.jsonl.gz" % (workload, seed))


# -- reporting ---------------------------------------------------------------


def environment(workload, seed, props):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((SRC / "schemekit").glob("*.py")):
        source.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "source_sha256": source.hexdigest()[:16],
            "workload": workload, "seed": seed,
            "held_out_seed": HELD_OUT_SEED, **props}


def report(workload, seed, trace, summary, check, props):
    fail_ratio = check.failed / check.attempted
    print("workload %s, seed %d, trace %d" % (workload, seed, trace))
    if not trace:
        summary["fail_ratio"] = fail_ratio
        units = dict(END_TO_END)
        for name, _unit in END_TO_END:
            print("  %-12s %12.6g %s" % (name, summary[name], units[name]))
        print("  job_tail_ms is the p%.1f latency; %d jobs per pass, %d passes"
              % (summary["tail_percentile"], summary["jobs_per_pass"],
                 summary["passes"]))
    else:
        for name in sorted(summary):
            print("  %-40s %.6g" % (name, summary[name]))
    print("  failed %d of %d job runs" % (check.failed, check.attempted))
    for key, reason in sorted(check.failures.items()):
        print("  FAILED %s: %s" % (key, reason))
    record = environment(workload, seed, props)
    if not trace:
        record.update({k: summary[k] for k in (
            "tail_percentile", "jobs_per_pass", "passes", "pass_raw_s",
            "pass_scaled_s", "setup_raw_s")})
    print(json.dumps({"record": record}))


def result_line(check, metrics, known_defects):
    unexpected = [k for k in check.failures if k not in known_defects]
    return json.dumps({"correct": not unexpected, "attempted": check.attempted,
                       "failed": check.failed, "metrics": metrics})


def run_workload(workload, seed, seconds, trace):
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % workload, dir=str(WORK_ROOT))
    try:
        known = {j.key for j in cli_workload.COMMANDS if j.defect}
        if workload == "cli":
            if trace:
                metrics, check = cli_traced(seed, seconds, workdir)
                props = {}
            else:
                summary, check, props = cli_end_to_end(seed, seconds, workdir)
        elif trace:
            metrics, check = library_traced(workload, seed, seconds)
            props = {}
        else:
            summary, check, props = library_end_to_end(workload, seed,
                                                       seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        report(workload, seed, trace, dict(metrics), check, props)
    else:
        report(workload, seed, trace, summary, check, props)
        metrics = {k: summary[k] for k, _u in END_TO_END if k != "fail_ratio"}
    units = metric_units()
    print(result_line(check, {k: {"value": v, "unit": units[k]}
                              for k, v in metrics.items()}, known))
    return 0


def metric_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(seed, seconds):
    """Every workload in its own process; one table of end-to-end metrics."""
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, cwd=str(ROOT),
                              timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((workload, json.loads(proc.stdout.splitlines()[-1])))
    print("\n%-10s" % "workload" + "".join(
        "%18s" % ("%s[%s]" % (n, u)) for n, u in END_TO_END))
    for workload, res in rows:
        vals = [res["metrics"][n]["value"] for n, _u in END_TO_END[:-1]]
        vals.append(res["failed"] / res["attempted"])
        print("%-10s" % workload + "".join("%18.6g" % v for v in vals))
    return 0


def self_test():
    """A corrupted output must be counted as a failed job."""
    sk = import_schemekit()
    bases = workloads.build_bases(sk)
    jobs = {j.key: j for j in workloads.symbolic_pool(sk, bases)
            if j.task == "eigenmatrix_gh"}
    jobs = list(jobs.values())[:3]
    reference = checks.load_reference()

    def failed(outcomes, reference, identities):
        check = OutputCheck()
        bad = (checks.identity_failures(sk, bases, jobs, outcomes)
               if identities else {})
        judge(check, checks.outcome_rows(jobs, outcomes), reference, {}, bad)
        return check.failed

    outcomes = run_jobs(jobs)["outcomes"]
    clean = failed(outcomes, reference, True)
    M, err = outcomes[0]
    rows = [list(r) for r in M.rows()]
    rows[-1][-1] = rows[-1][-1] + 1
    outcomes[0] = (sk.ExactMatrix(rows), err)
    corrupt = failed(outcomes, {}, True)          # identities only
    digest_only = failed(outcomes, reference, False)
    ok = clean == 0 and corrupt == 1 and digest_only == 1
    print("self-test %s: clean %d failed, corrupted %d failed by identity, "
          "%d by digest" % ("ok" if ok else "FAILED", clean, corrupt,
                            digest_only))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "schemekit" / "__init__.py").is_file():
        print("error: %s has no schemekit package; run from a checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
