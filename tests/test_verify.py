"""The verify suites' own checks: each must be able to fail."""

import pytest

from framelab import frames, verify
from framelab.errors import DomainError


def _verdicts(results):
    return {r.name: r.passed for r in results}


def test_translation_invariance_fails_under_a_broken_translate(monkeypatch):
    # moving only the first element is not a translation of the set
    monkeypatch.setattr(verify, "translate", lambda g, S, c: (g.add(S[0], c),) + tuple(S[1:]))
    got = _verdicts(verify.suite_properties())
    assert not got["properties/translation-invariance"]
    assert got["properties/pds-reversibility"]


def test_pds_reversibility_fails_under_a_broken_reversal(monkeypatch):
    # -S shifted by a nonzero element: a reversible set no longer maps to itself
    def shifted(g, S):
        return tuple(g.add(g.neg(x), g.elements()[1]) for x in S)

    monkeypatch.setattr(verify, "reversal", shifted)
    got = _verdicts(verify.suite_properties())
    assert not got["properties/pds-reversibility"]
    assert got["properties/translation-invariance"]


def test_proper_nested_check_fails_on_a_chain_one_step_too_long(monkeypatch):
    search = verify.enumerate_and_classify

    def longer_chains(job):
        report = search(job)
        for r in report.records:
            if r.flags.get("t") is not None:
                r.flags["t"] += 1
        return report

    checks = {r.name: r for r in verify.suite_exhaustion_order8()}
    for name in ("Z2xZ4", "Z8"):
        assert checks[f"exhaustion-order8/{name}-all-proper-nested"].passed
    monkeypatch.setattr(verify, "enumerate_and_classify", longer_chains)
    checks = {r.name: r for r in verify.suite_exhaustion_order8()}
    assert checks["exhaustion-order8/Z2xZ4-all-proper-nested"].detail == "0/32 proper chains"
    assert checks["exhaustion-order8/Z8-all-proper-nested"].detail == "0/16 proper chains"
    assert not checks["exhaustion-order8/Z8-all-proper-nested"].passed


def test_etf_difference_sweep_fails_under_a_shifted_welch_bound(monkeypatch):
    checks = {r.name: r for r in verify.suite_etf_difference()}
    equivalence = checks["etf-difference/equivalence"]
    assert equivalence.passed
    assert equivalence.detail == "2988 subsets over orders 2..10, 0 mismatches"
    welch = frames.welch_bound
    monkeypatch.setattr(frames, "welch_bound", lambda n, m: welch(n, m) + 0.01)
    checks = {r.name: r for r in verify.suite_etf_difference()}
    assert not checks["etf-difference/equivalence"].passed


def test_unknown_suite_is_a_domain_error():
    with pytest.raises(DomainError):
        verify.run_suite("no-such-suite")
