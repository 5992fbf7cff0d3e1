"""Seeded defects in the verdict rules, and which tier-1 test catches each.

Each defect is one source edit (file, old text, new text).  For each, the
runner copies the tree to a temporary directory, makes the edit there and
runs tier-1 with -x, then prints the first failing test: the one that
killed the edit.  An edit that leaves tier-1 green survived; an edit whose
old text is not in the file exactly once is stale, which means the rule
moved and the edit must be written anew.  The tree itself is only read.

    python tests/seeded_defects.py            # every defect
    python tests/seeded_defects.py part3-refutes-at-tol ...

Exits 1 when a defect survived or is stale.  pytest does not collect this
file: its name does not start with test_.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CERTIFY = "src/curvcert/certify.py"
TRIPLE = "src/curvcert/triple.py"

# name: (file, old text, new text)
DEFECTS = {
    "no-A-in-p-check": (CERTIFY, "    if not triple.p_basis.contains(a):\n", "    if False:\n"),
    "no-unit-A-check": (CERTIFY, "    if abs(a.norm() - 1.0) > _IN_SPAN_TOL:\n", "    if False:\n"),
    "no-element-path-recheck": (CERTIFY, "_unconfirmed(val, element, refute_tol)", "()"),
    "part2-without-second-term": (
        CERTIFY, "triple.gk_basis(), (images, element_images),", "triple.gk_basis(), None,"),
    "symmetric-pair-always-true": (
        TRIPLE, "    p, h = triple.p_basis, triple.h_basis\n",
        "    return True\n    p, h = triple.p_basis, triple.h_basis\n"),
    "ortho-tol-1e-2": (TRIPLE, "_ORTHO_TOL = 1e-10\n", "_ORTHO_TOL = 1e-2\n"),
    "in-span-tol-1e-2": (TRIPLE, "_IN_SPAN_TOL = 1e-8\n", "_IN_SPAN_TOL = 1e-2\n"),
    "max-iters-20": (CERTIFY, "_MAX_ITERS = 200\n", "_MAX_ITERS = 20\n"),
    "no-z-perp-w-constraint": (CERTIFY, "gmat = gmat if constrained else None", "gmat = None"),
    "part3-certifies-at-tol/100": (CERTIFY, "    if sigma_min > tol:\n", "    if sigma_min > tol / 100:\n"),
    "part3-refutes-at-tol": (CERTIFY, "    elif sigma_min < tol / 10.0:\n", "    elif sigma_min <= tol:\n"),
    "search-certifies-at-tol/100": (CERTIFY, "        elif val > tol:\n", "        elif val > tol / 100:\n"),
    "search-refutes-at-100-refute_tol": (
        CERTIFY, "        if val < refute_tol:\n", "        if val < 100 * refute_tol:\n"),
}

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench_work", "*.egg-info")
_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run_defect(name: str) -> tuple[str, str, float]:
    """The outcome of one defect ("killed", "survived" or "stale"), what decided it and the seconds taken."""
    path, old, new = DEFECTS[name]
    text = (ROOT / path).read_text()
    if text.count(old) != 1:
        return "stale", f"{path} holds the old text {text.count(old)} times, not once", 0.0
    with tempfile.TemporaryDirectory(prefix="seeded-defect-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        (copy / path).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "survived", done.stdout.strip().splitlines()[-1], seconds
    found = _FIRST_FAILURE.search(done.stdout)
    return "killed", found.group(1) if found else f"pytest exit {done.returncode}", seconds


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in DEFECTS]
    if unknown:
        print(f"unknown defect: {', '.join(unknown)}; known: {', '.join(DEFECTS)}", file=sys.stderr)
        return 2
    print("| defect | outcome | first failing test | s |")
    print("|---|---|---|---|")
    alive = 0
    for name in names or DEFECTS:
        outcome, detail, seconds = run_defect(name)
        alive += outcome != "killed"
        print(f"| {name} | {outcome} | {detail} | {seconds:.0f} |", flush=True)
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
