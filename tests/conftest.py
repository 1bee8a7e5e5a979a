import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from vqcontrast.oracles import cnot, dense_unitary_oracle, expect_z, ry

pytest_plugins = ["pytester"]

# pytest finds the package through ``pythonpath`` in pyproject.toml; the CLI and
# demo subprocesses the tests start find it through PYTHONPATH, uninstalled too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# Property tests draw the same bounded examples on every run.
settings.register_profile("tier1", derandomize=True, database=None, max_examples=100,
                          deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def oracle_z():
    """Per-qubit <Z> after a gate list acts on |0...0>, read off the dense oracle."""

    def expect(gates, n_qubits):
        return expect_z(dense_unitary_oracle(gates, n_qubits)[:, 0])

    return expect


@pytest.fixture
def random_gates():
    """Draws ``length`` random RY and CNOT gates on ``n_qubits`` from ``rng``."""

    def draw(rng, n_qubits, length):
        ops = []
        for _ in range(length):
            if n_qubits >= 2 and rng.random() < 0.4:
                control, target = rng.choice(n_qubits, size=2, replace=False)
                ops.append(cnot(int(control), int(target)))
            else:
                qubit = int(rng.integers(n_qubits))  # drawn before the angle
                ops.append(ry(qubit, float(rng.uniform(-2 * np.pi, 2 * np.pi))))
        return ops

    return draw


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible [PASS]/[FAIL]/[NOT RUN] line per acceptance criterion.

    A criterion passes only on a call-phase report whose outcome is passed;
    one that was deselected or skipped, or errored before its call, did not run.
    """
    rank = {"NOT RUN": 0, "PASS": 1, "FAIL": 2}
    verdicts = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            if "test_criterion_" not in nodeid:
                continue
            outcome = getattr(rep, "outcome", "")
            if outcome == "failed":
                verdict = "FAIL"
            elif outcome == "passed" and getattr(rep, "when", "") == "call":
                verdict = "PASS"
            else:
                verdict = "NOT RUN"
            verdicts[nodeid] = max(verdicts.get(nodeid, verdict), verdict, key=rank.get)
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(verdicts):
        terminalreporter.write_line(f"[{verdicts[nodeid]}] {nodeid.split('::')[-1]}")
