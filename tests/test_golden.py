"""Replay the committed golden set: every recorded CLI case and library record
must reproduce its bytes.  ``tests/golden/make.py`` checks or rebuilds the set."""

import json

import pytest

from golden.make import CASES_FILE, LIBRARY_FILE, library_result, run_case

CASES = json.loads(CASES_FILE.read_text(encoding="utf-8"))
RECORDS = [json.loads(line) for line in LIBRARY_FILE.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("name", list(CASES))
def test_cli_case_is_byte_identical(name):
    case = CASES[name]
    assert run_case(case["argv"], case["inputs"]) == case


@pytest.mark.parametrize("record", RECORDS,
                         ids=[f"{i}-{r['theory']}-{r['op']}" for i, r in enumerate(RECORDS)])
def test_library_record_reproduces_its_result(record):
    assert library_result(record) == record["result"]
