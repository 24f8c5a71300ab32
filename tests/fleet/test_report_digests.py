"""Pinned ``report_bytes`` digests of drawn fleets, for every policy.

The digests were recorded from the fleet engine before its hot path
was memoized (profile keys, candidate tables, tail reallocation), so
they prove that speed-only changes to ``repro.fleet`` stay byte-neutral:
any change that moves one byte of a canonical report fails here.

One profile store is shared by every case; ``report_bytes`` drops the
execution-only diagnostics, so warm and cold stores give the same bytes.
"""

import hashlib

import pytest

from repro.fleet.engine import FleetConfig, run_fleet
from repro.fleet.policy import policy_names
from repro.fleet.profiles import ProfileStore
from repro.fleet.report import report_bytes

TENANTS = 256

#: (seed, policy, power cap W) -> sha256 of the canonical report.
DIGESTS = {
    (3, "static-max", 400.0): "77f1fa8a8f52389a06fa6b4ffc9f9562d90c93a3cb45a3ef826c09800ca05f42",
    (3, "paper-governor", 400.0): "f9204a2f5dc4729d406a696ba2fd6cf1bd57a420766db2e17db59d7ad1b7c51e",
    (3, "static-oracle", 400.0): "c9533231e35545282f55ea909ad43a151b673600c18b239b586db949c7ab1b19",
    (3, "predictive-admission", 400.0): "9f377ee53d4145b0796c26c8d9bac7c4097e8b67012d3d49d0c80d75d6abad95",
    (3, "tail-allocator", 400.0): "12ed261fe763dbbe381959e9e2afb2946062147ac2bec4ecbb621aeacdd0826a",
    (1234, "static-max", 400.0): "ccd629ed56964d3bca72b67ed1ee73dc6c8d93be1872309355bd28fdb4ccdfa4",
    (1234, "paper-governor", 400.0): "0c1afa17bec344c05c42dabaddb05b22583e29f04e6faf3e517b3e417fd80c82",
    (1234, "static-oracle", 400.0): "f1951a384710d2976ee51d4cf275185ca1827626e5ec615a7e7688f0b029e241",
    (1234, "predictive-admission", 400.0): "9548ca7f2f9e222392adbc2e0fdfc5c0781671909ea189283d4fb8b4b85530db",
    (1234, "tail-allocator", 400.0): "15052b3862a7e4cbac3d4bfb941f571c4809ed335b587ff700c9f90b69d743e4",
    (3, "tail-allocator", 150.0): "d941daf2c302c02a8aa337dc0513ebe3503b2523b41d9e773d8c991a309fd497",
    (3, "predictive-admission", 150.0): "afe639951850f5011aac09be9a6e6ec7c9d7b478d4fd31bb3013c7c206c5b5d5",
    (1234, "tail-allocator", 150.0): "9abb1f62abf9e5406a6f3a01f95d5019f3af33ebf9f459b73c4b99f7e718a17e",
    (1234, "predictive-admission", 150.0): "dc7a3771c7b1087eb77484042be96363fedb15cc6188fe53c3791dce4c52043c",
}


@pytest.fixture(scope="module")
def drawn_store():
    return ProfileStore()


def test_every_policy_is_pinned():
    pinned = {policy for _, policy, cap in DIGESTS if cap == 400.0}
    assert pinned == set(policy_names())


@pytest.mark.parametrize(
    "seed,policy,cap",
    sorted(DIGESTS),
    ids=lambda value: str(value),
)
def test_report_bytes_match_the_pinned_digest(drawn_store, seed, policy, cap):
    report = run_fleet(
        FleetConfig(tenants=TENANTS, seed=seed, policy=policy, power_cap_w=cap),
        store=drawn_store,
    )
    digest = hashlib.sha256(report_bytes(report)).hexdigest()
    assert digest == DIGESTS[(seed, policy, cap)]
