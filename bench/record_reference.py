"""Record the reference digests in reference.json.

    python3 bench/record_reference.py

Run from the root of a checkout whose outputs are trusted; the digests
then pin those outputs for every later run.  The symbolic and explicit
workloads draw from finite pools, so every job any seed can draw is
recorded.  The codes workload draws random codes, so only the jobs of
the default and held-out seeds are recorded; other seeds rely on the
identity checks.  For the cli workload the stdout of every command that
exits 0 is recorded, except the commands with a known defect.
"""

import json
import sys
import tempfile

import run
from run import checks, cli_workload, workloads


def main():
    sys.path.insert(0, str(run.SRC))
    sk = run.import_schemekit()
    reference = {}
    bases = workloads.build_bases(sk)
    record(reference, workloads.symbolic_pool(sk, bases))
    record(reference, workloads.explicit_pool(sk, bases))
    for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
        record(reference, workloads.make_jobs(sk, "codes", bases, seed))

    run.WORK_ROOT.mkdir(exist_ok=True)
    env = run.child_env()
    with tempfile.TemporaryDirectory(dir=str(run.WORK_ROOT)) as workdir:
        cli_workload.write_inputs(workdir)
        for job in cli_workload.COMMANDS:
            _s, proc, _rss = cli_workload.run_command(cli_workload.python_prefix(),
                                                job, workdir, env)
            if proc.returncode == 0 and not job.defect:
                reference[job.key] = cli_workload.stdout_digest(proc.stdout)

    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=0)
        fh.write("\n")
    print("recorded %d digests in %s"
          % (len(reference), checks.REFERENCE_PATH))


def record(reference, jobs):
    for job in jobs:
        if job.key in reference:
            continue
        try:
            out, error = job.fn(), ""
        except Exception as exc:  # recorded only when it is the expected one
            out, error = None, type(exc).__name__
        if error != job.expect_error:
            raise SystemExit("%s: unexpected outcome %r" % (job.key, error))
        reference[job.key] = error or checks.digest(out)


if __name__ == "__main__":
    main()
