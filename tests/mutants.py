"""Mutation check: plant one deliberate bug (a mutant) at a time in a copy of
the tree and see whether the tests that should catch it fail.

Each mutant names a source file, an exact snippet that occurs once in it, the
snippet's replacement and the test ids expected to catch it.  For each one
the script copies the working tree (without ``.git``, ``.bench_work`` and the
caches) into a temporary directory, applies the edit there, runs the named
tests in a subprocess and prints ``mutant  caught|survived  seconds``.  The
working tree itself is never edited.  Run from anywhere:

    python tests/mutants.py                       # every mutant
    python tests/mutants.py adam-bias-correction  # the named ones

It exits 0 when every mutant run is caught.  pytest does not collect this
file; ``test_mutants.py`` checks that every snippet still occurs exactly once
in ``src/``, so a rewrite of the code updates its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
_SKIP = shutil.ignore_patterns(".git", ".bench_work", "__pycache__", ".pytest_cache",
                               ".hypothesis", ".benchmarks")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant(
        "vqc-second-group-half",  # the second RY group's weight partials halved
        "src/vqcontrast/vqc.py",
        "d_weights[layer, start:stop] = 0.5 * (",
        "d_weights[layer, start:stop] = (0.25 if k == 1 else 0.5) * (",
        ("tests/test_vqc.py::test_weight_partials_match_parameter_shift",
         "tests/test_harness.py::test_gradcheck_all_passes_for_default_config"),
    ),
    Mutant(
        "linear-bias-sum-reversed",  # the same sum in another order: only the bits move
        "src/vqcontrast/diffnet.py",
        "x.data.T @ g, g.sum(axis=0)))",
        "x.data.T @ g, g[::-1].sum(axis=0)))",
        ("tests/test_identity.py::test_recipe_writes_the_recorded_bytes",),
    ),
    Mutant(
        "batch-norm-mean-term",  # train mode's backward forgets the batch mean depends on x
        "src/vqcontrast/diffnet.py",
        "dx = (g_hat - (g_sum / count)[:, None]\n",
        "dx = (g_hat\n",
        ("tests/test_harness.py::test_gradcheck_all_passes_for_default_config",),
    ),
    Mutant(
        "clip-one-direction",  # EEG-to-image only, value and gradient consistent
        "src/vqcontrast/contrastive.py",
        "    grad = ((rows - eye) + (cols.T - eye)) / (2.0 * l.shape[0])\n"
        "    return (row_loss + col_loss) / 2.0, grad\n",
        "    grad = (rows - eye) / l.shape[0]\n"
        "    return row_loss, grad\n",
        ("tests/test_contrastive.py::test_transpose_symmetry_is_exact",),
    ),
    Mutant(
        "adam-bias-correction",  # m and v used as they stand
        "src/vqcontrast/diffnet.py",
        "        correct1 = 1.0 - self.beta1**self.steps\n"
        "        correct2 = 1.0 - self.beta2**self.steps\n",
        "        correct1 = correct2 = 1.0\n",
        ("tests/test_diffnet.py::test_adam_first_step_closed_form",),
    ),
    Mutant(
        "tape-backward-no-pop",  # the tape kept, so a second backward adds again
        "src/vqcontrast/diffnet.py",
        "        while self._ops:\n"
        "            self._ops.pop()()\n",
        "        for fn in reversed(self._ops):\n"
        "            fn()\n",
        ("tests/test_diffnet.py::test_backward_frees_each_op_it_has_passed",),
    ),
]


def run(mutant: Mutant) -> tuple[str, float]:
    """Plant ``mutant`` in a fresh copy of the tree and run its tests there;
    return the verdict and the seconds the tests took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        target = tree / mutant.path
        source = target.read_text(encoding="utf-8")
        if source.count(mutant.snippet) != 1:
            return "stale", 0.0
        target.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tree, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(tree / "src")},
        )
        seconds = time.perf_counter() - start
    # pytest exits 1 when a test failed; 0 is a pass, anything else a broken run
    verdict = {0: "survived", 1: "caught"}.get(proc.returncode, f"error({proc.returncode})")
    return verdict, seconds


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 1
    width = max(len(m.name) for m in MUTANTS)
    verdicts = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        verdict, seconds = run(mutant)
        verdicts.append(verdict)
        print(f"{mutant.name:<{width}}  {verdict:<8}  {seconds:6.1f}", flush=True)
    return 0 if all(v == "caught" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
