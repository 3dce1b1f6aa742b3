"""Child processes of the benchmark, each started in a fresh interpreter.

    probe.py setup              time `import schemekit` plus the base
                                builders; prints raw and reference
                                seconds as JSON
    probe.py pass OUT WORKLOAD SEED IDENTITIES
                                set up as `setup` does, then run one
                                calibrated pass of a library workload;
                                writes timings and outcome digests to
                                OUT, and with IDENTITIES=1 also the
                                identity checks of the outputs
    probe.py import-cli         time a cold `import schemekit.cli`
    probe.py cli SUMMARY ARGS   run `schemekit ARGS` with the tracer
                                installed; writes the import time, the
                                trace summary and the spans to SUMMARY

The parent puts the checkout's `src` directory on PYTHONPATH.  Each pass
runs in its own process, so whatever schemekit keeps in memory lasts one
pass only.
"""

import json
import sys
import time

import measure
import workloads


def setup():
    """Cold set-up: (schemekit, bases, seconds, calibrations around it)."""
    before = measure.calibrate()
    start = time.perf_counter()
    import schemekit
    bases = workloads.build_bases(schemekit)
    seconds = time.perf_counter() - start
    return schemekit, bases, seconds, [before, measure.calibrate()]


def library_pass(workload, seed, identities):
    sk, bases, setup_s, setup_cals = setup()
    import checks
    jobs = workloads.make_jobs(sk, workload, bases, seed)
    result = measure.run_jobs(jobs, calibrated=True)
    rss = measure.peak_rss_mb()
    outcomes = result["outcomes"]
    start = time.perf_counter()
    rows = checks.outcome_rows(jobs, outcomes)
    bad = (checks.identity_failures(sk, bases, jobs, outcomes)
           if identities else {})
    return {"setup_raw_s": setup_s, "setup_cals": setup_cals,
            "raw": result["raw"], "cals": result["cals"],
            "peak_rss_mb": rss, "rows": rows, "identity_failures": bad,
            "checks_s": time.perf_counter() - start,
            "repeated_share": workloads.repeated_share(jobs),
            "additive_share": workloads.additive_share(jobs)}


def main(argv):
    mode = argv[0]
    if mode == "setup":
        _sk, _bases, seconds, cals = setup()
        print(json.dumps({"setup_raw_s": seconds, "setup_cals": cals}))
        return 0
    if mode == "pass":
        out = library_pass(argv[2], int(argv[3]), argv[4] == "1")
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(out, fh)
        return 0
    if mode == "import-cli":
        start = time.perf_counter()
        import schemekit.cli  # noqa: F401
        print(repr(time.perf_counter() - start))
        return 0
    if mode == "cli":
        start = time.perf_counter()
        import schemekit.cli
        import_s = time.perf_counter() - start
        from tracer import Tracer
        tracer = Tracer()
        try:
            with tracer:
                return schemekit.cli.run(argv[2:])
        finally:
            # also when run() raises: the traceback and exit code 1 then
            # match the plain `schemekit` command
            with open(argv[1], "w", encoding="utf-8") as fh:
                json.dump({"import_s": import_s, "trace": tracer.summary(),
                           "spans": tracer.spans}, fh)
    raise SystemExit("unknown probe mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
