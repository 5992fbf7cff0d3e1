"""The same verdicts on every OpenBLAS kernel, and the same bytes on the reports that are portable so far.

numpy's OpenBLAS, when built with DYNAMIC_ARCH, picks a kernel for the CPU at
start-up, and the environment variable OPENBLAS_CORETYPE picks another one for
that process alone.  One interpreter runs a small job set per kernel through
`cli.main`.  Every job must give the same exit code and verdict on every
kernel; the jobs in PORTABLE must also give the same report bytes.  The other
jobs print numbers that still move with the kernel: part3's sigma_min on m_kl
by 1 ulp, and the search's scores and witnesses.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNELS = ["", "Haswell", "Prescott"]  # "" leaves the choice to OpenBLAS

PORTABLE = {
    "part3:t1_sphere(3)": ["check", "--entry", "t1_sphere", "--n", "3", "--method", "part3"],
    "part3:sp_example(4)": ["check", "--entry", "sp_example", "--n", "4", "--method", "part3"],
    "part3:t1_projective(H,2)": ["check", "--entry", "t1_projective", "--field", "H", "--n", "2",
                                 "--method", "part3"],
}
VERDICT_ONLY = {
    "part3:m_kl(2,1,1)": ["check", "--entry", "m_kl", "--n", "2", "--k", "1", "--l", "1",
                          "--method", "part3"],
    "fat:t1_sphere(3)": ["check", "--entry", "t1_sphere", "--n", "3", "--method", "fat",
                         "--starts", "16"],
}

# Runs every job and prints {"kernel": name or null, "jobs": {id: [exit code, stdout]}}.
RUNNER = '''
import contextlib, io, json, sys
from curvcert.cli import main
from helpers import openblas_corename

jobs = {}
for job, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        jobs[job] = [main(argv), out.getvalue()]
print(json.dumps({"kernel": openblas_corename(), "jobs": jobs}))
'''


def _dynamic_openblas() -> bool:
    """True when numpy.show_config reports an OpenBLAS built with DYNAMIC_ARCH."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its configuration
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _run(coretype: str) -> dict:
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    run = subprocess.run([sys.executable, "-c", RUNNER, json.dumps({**PORTABLE, **VERDICT_ONLY})],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    return json.loads(run.stdout)


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's BLAS is not an OpenBLAS with DYNAMIC_ARCH")
def test_verdicts_and_portable_bytes_agree_across_kernels():
    runs = {coretype: _run(coretype) for coretype in KERNELS}
    names = [run["kernel"] for run in runs.values()]
    if None not in names:  # otherwise the kernels cannot be told apart here
        assert len(set(names)) >= 2, names
    default = runs[""]["jobs"]
    for coretype, run in runs.items():
        for job, (code, out) in run["jobs"].items():
            expect_code, expect_out = default[job]
            assert (code, json.loads(out)["verdict"]) == (expect_code, json.loads(expect_out)["verdict"]), \
                (coretype, job)
            if job in PORTABLE:
                assert out == expect_out, (coretype, job)
