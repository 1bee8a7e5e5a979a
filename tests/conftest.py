import numpy as np
import pytest
from hypothesis import settings

from vqcontrast.statevector import dense_unitary_oracle

pytest_plugins = ["pytester"]

# Property tests draw the same bounded examples on every run.
settings.register_profile("tier1", derandomize=True, database=None, max_examples=100,
                          deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def oracle_z():
    """Per-qubit <Z> after a gate list acts on |0...0>, read off the dense oracle."""

    def expect(gates, n_qubits):
        probs = np.abs(dense_unitary_oracle(gates, n_qubits)[:, 0]) ** 2
        bits = (np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits)) & 1
        return probs @ np.where(bits == 1, -1.0, 1.0)

    return expect


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
