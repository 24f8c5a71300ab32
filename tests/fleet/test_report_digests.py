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
    (3, "static-max", 400.0): "0550bbca46d9744866a2f982a249b36934a28f443074afee598bd62711fb9cad",
    (3, "paper-governor", 400.0): "749639e09a367120172b29925e59163b731e4c6e10333aca97b7f11eabceaaee",
    (3, "static-oracle", 400.0): "a5b6a830103c39b2645735b1d3c5dcaae365dadab2d7146be56f89b2112ec855",
    (3, "predictive-admission", 400.0): "880fac06a6b61d640e7067de016e075473daaf469020b52360881072ca6ab029",
    (3, "tail-allocator", 400.0): "8fa867766707ba3406bbf2bc194ba986e7e80b27975f30f4d12cbc741e1aebd5",
    (1234, "static-max", 400.0): "67a9f24af4aff5e623c9b0c53d2fcb1a379861d140bb34fb3ec19ee8ca244ef0",
    (1234, "paper-governor", 400.0): "20fc81bf4bf0b6ad953f4c4bb3b0bf5abc8ecb083e3d766a874215ef7e13304c",
    (1234, "static-oracle", 400.0): "b1ba2abf7d7e290b1bad4fdd1793e561f4b04b78a05dc75f63416ba9b039d7bb",
    (1234, "predictive-admission", 400.0): "10c27aa7e70f1a2661c12fc82b8f844b21385e1e43c865f03ebe0b76717e802f",
    (1234, "tail-allocator", 400.0): "02cd3daa1313c75e6a289a47a79491f5c1c049377f3544e43c06df5860ccf0c2",
    (3, "tail-allocator", 150.0): "0e65fc7b9b50813dec1ceca30742bfaf2b1ec2e31c299dfcaf91262ba0d439b5",
    (3, "predictive-admission", 150.0): "d377a90057628bc114fe4384987a07402f062615748edd3c9622dd2b09467430",
    (1234, "tail-allocator", 150.0): "5b9c6a5e073fb951a43adc2c38fb8d95829d40d07e665cd77321d1926f93d213",
    (1234, "predictive-admission", 150.0): "3ddce86a4f460c069a79c17e1e6406ceb858d0fbe37e8bf4e2cba84a2efd56f6",
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
