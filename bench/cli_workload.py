"""The `cli` workload: a fixed list of schemekit commands.

Each command runs in a fresh interpreter as `python3 -m schemekit.cli`
(the same entry point as the installed `schemekit` script), one at a
time.  The input files are fixed; the seed only shuffles the order.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

CYCLE4_RELATION = [[min(abs(i - j), 4 - abs(i - j)) for j in range(4)]
                   for i in range(4)]

INPUT_FILES = {
    # the 4-cycle with its exact eigenmatrix attached
    "c4.json": json.dumps({
        "v": 4, "d": 2, "relation": CYCLE4_RELATION,
        "P": [["1", "2", "1"], ["1", "0", "-1"], ["1", "-2", "1"]]}),
    # one_class:2 with P[1][1] tampered from -1 to 5
    "bad.json": json.dumps({
        "v": 2, "d": 1, "relation": [[0, 1], [1, 0]],
        "P": [["1", "1"], ["1", "5"]]}),
    "bin.code": "0 0 0 0 0 0\n1 1 1 0 0 0\n0 1 1 1 1 0\n1 0 0 1 1 1\n"
                "0 0 1 1 0 1\n1 1 0 0 1 0\n0 1 0 1 0 1\n",
    # additive: span of (1 0 1 2) and (0 1 3 1) over Z4
    "z4.code": "".join(
        " ".join(str((a * x + b * y) % 4)
                 for x, y in zip((1, 0, 1, 2), (0, 1, 3, 1))) + "\n"
        for a in range(4) for b in range(4)),
    # no zero word, so not closed under addition
    "nonadd.code": "1 0 0 0\n0 2 1 0\n3 3 0 1\n",
    "badfmt.code": "0 1 0 0\n0 x 1 0\n",
}


@dataclass
class CliJob:
    argv: tuple
    exit_codes: tuple           # the correct exit codes
    stdout_empty: bool = False  # a correct run prints nothing on stdout
    defect: str = ""            # known defect at the time of writing

    @property
    def key(self):
        return "cli/" + " ".join(self.argv)


COMMANDS = (
    CliJob(("scheme", "build", "cycle", "4", "--json"), (0,)),
    CliJob(("scheme", "eigen", "c4.json", "--dual"), (0,)),
    CliJob(("scheme", "eigen", "cycle:5"), (1,), True),
    CliJob(("scheme", "fuse", "group:4", "--blocks", "0;1,3;2", "--json"),
           (0,)),
    CliJob(("gh", "eigen", "--base", "hamming:2:2", "--n", "3", "--json"),
           (0,)),
    CliJob(("gh", "fusion-check", "--base", "one_class:2", "--m", "2",
            "--n", "2"), (0,)),
    CliJob(("code", "enumerate", "--base", "one_class:2", "bin.code",
            "--json"), (0,)),
    CliJob(("code", "transform", "--base", "group:4", "z4.code"), (0,)),
    CliJob(("code", "z4", "z4.code", "--json"), (0,)),
    CliJob(("code", "dual", "--base", "group:4", "nonadd.code"), (1,), True),
    CliJob(("code", "enumerate", "--base", "one_class:2", "badfmt.code"),
           (2,), True),
    CliJob(("modinv", "lift", "--base", "cycle:4", "--n", "3", "--json"),
           (0,)),
    CliJob(("scheme", "build", "one_class", "3"), (0,)),
    CliJob(("scheme", "verify", "c4.json", "--json"), (0,)),
    CliJob(("scheme", "krein", "hamming:2:2"), (0,)),
    CliJob(("scheme", "eigen", "group:2:2", "--json"), (0,)),
    CliJob(("scheme", "build", "nosuch"), (2,), True),
    CliJob(("gh", "build", "--base", "one_class:2", "--n", "3", "--json"),
           (0,)),
    CliJob(("gh", "eigen", "--base", "group:4", "--n", "2"), (0,)),
    CliJob(("code", "gray-check", "z4.code"), (0,)),
    CliJob(("code", "dual", "--base", "group:4", "z4.code", "--json"), (0,)),
    CliJob(("modinv", "search", "--base", "hamming:2:2", "--json"), (0,)),
    CliJob(("modinv", "verify", "--base", "one_class:2", "--T", "1,1"), (1,),
           True),
    # trust boundary: an attached P from JSON must be certified before use
    CliJob(("code", "transform", "--base", "bad.json", "bin.code"), (1, 2),
           True, defect="uncertified P from JSON is used (prints a transform, "
                  "exit 0)"),
    # a negative size is a usage error
    CliJob(("gh", "eigen", "--base", "one_class:2", "--n=-1"), (2,), True,
           defect="ValueError traceback, exit 1"),
)


def write_inputs(workdir):
    for name, text in INPUT_FILES.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def command_list(seed):
    jobs = list(COMMANDS)
    random.Random(seed).shuffle(jobs)
    return jobs


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_command(prefix, job, workdir, env):
    """Run one command to completion.  Returns (seconds, CompletedProcess,
    peak RSS of the command's process in MB)."""
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(prefix + list(job.argv), cwd=workdir, env=env,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(150, proc.kill)
        watchdog.start()
        # wait4 rather than wait, for the resource usage of this child
        _pid, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(proc.args, proc.returncode,
                                           out.read().decode(),
                                           err.read().decode())
    return seconds, done, usage.ru_maxrss / 1024.0


def stdout_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(job, proc, reference):
    """None if the command behaved correctly, else the reason."""
    if proc.returncode not in job.exit_codes:
        return "exit %d, expected %s" % (
            proc.returncode, " or ".join(map(str, job.exit_codes)))
    if job.stdout_empty and proc.stdout:
        return "printed on stdout, expected nothing"
    if proc.returncode != 0 and not proc.stderr.startswith("error:"):
        return "stderr is not an error message"
    if proc.returncode == 0:
        expected = reference.get(job.key)
        if expected is not None and stdout_digest(proc.stdout) != expected:
            return "stdout digest %s, reference %s" % (
                stdout_digest(proc.stdout), expected)
    return None


def python_prefix():
    return [sys.executable, "-m", "schemekit.cli"]
