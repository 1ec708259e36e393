"""The built-in worked examples."""

import re

import pytest

from ebx.gallery import CASE_NAMES, run_case


def test_run_case_names_the_known_cases():
    known = ", ".join(CASE_NAMES)
    with pytest.raises(KeyError, match=re.escape(f"unknown gallery case 'nope'; known: {known}")):
        run_case("nope")
