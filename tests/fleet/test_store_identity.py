"""The fleet-store-identity invariant, end to end on fuzz cases."""

import pytest

from repro.fleet.profile_cache import case_store_identity_violations
from repro.qa.context import CaseContext
from repro.qa.fuzzer import fuzz_case
from repro.qa.invariants import get_invariant, invariant_names


@pytest.fixture(scope="module", params=[5, 11])
def context(request):
    return CaseContext(fuzz_case(request.param))


def test_invariant_is_registered():
    assert "fleet-store-identity" in invariant_names()
    invariant = get_invariant("fleet-store-identity")
    assert "profile store" in invariant.description


def test_store_identity_holds_on_a_fuzz_case(context):
    assert case_store_identity_violations(context) == []


def test_registered_invariant_routes_to_the_checker(context):
    assert get_invariant("fleet-store-identity").evaluate(context) == []
