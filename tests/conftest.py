import numpy as np
import pytest

from vqcontrast.statevector import dense_unitary_oracle


@pytest.fixture
def oracle_z():
    """Per-qubit <Z> after a gate list acts on |0...0>, read off the dense oracle."""

    def expect(gates, n_qubits):
        probs = np.abs(dense_unitary_oracle(gates, n_qubits)[:, 0]) ** 2
        bits = (np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits)) & 1
        return probs @ np.where(bits == 1, -1.0, 1.0)

    return expect


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible [PASS]/[FAIL] line per acceptance criterion."""
    verdicts = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            if "test_criterion_" not in nodeid:
                continue
            failed = getattr(rep, "outcome", "") == "failed"
            verdicts[nodeid] = verdicts.get(nodeid, False) or failed
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(verdicts):
        marker = "FAIL" if verdicts[nodeid] else "PASS"
        terminalreporter.write_line(f"[{marker}] {nodeid.split('::')[-1]}")
