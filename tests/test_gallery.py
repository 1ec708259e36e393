"""The built-in worked examples."""

import re

import pytest

from ebx import gallery
from ebx.gallery import CASE_NAMES, GalleryCheck, run_all, run_case


def test_run_case_names_the_known_cases():
    known = ", ".join(CASE_NAMES)
    with pytest.raises(KeyError, match=re.escape(f"unknown gallery case 'nope'; known: {known}")):
        run_case("nope")


def test_outcomes_are_named_by_the_registry_and_pass_by_their_checks(monkeypatch):
    outcomes = run_all()
    assert [o.name for o in outcomes] == list(CASE_NAMES)
    for o in outcomes:
        assert o.passed == all(c.passed for c in o.checks)
    checks = [GalleryCheck("holds", True), GalleryCheck("fails", False)]
    failing = ("a case with one failing check", checks, {})
    monkeypatch.setitem(gallery._CASES, "tetrahedral", lambda tol: failing)
    outcome = run_case("tetrahedral")
    assert (outcome.name, outcome.summary, outcome.passed) == ("tetrahedral", failing[0], False)
    assert outcome.checks == tuple(checks)
