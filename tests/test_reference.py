"""Byte-identity guard: the cheap digest pins of the benchmark's reference
file (the six degree-2 sweep hits and the A/B/C chains) must be reproduced."""

import importlib.util
from pathlib import Path

import pytest

from e510 import verma as V

_spec = importlib.util.spec_from_file_location(
    "perfbench_reference",
    Path(__file__).resolve().parent.parent / "perfbench" / "reference.py")
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)

DEGREE2 = sorted(key for key in ref.SWEEP_HITS if key[1] == 2)
CHAINS = sorted(key for key in ref.CHAIN_DIGESTS if key.split("|")[0] in ("A", "B", "C"))


def test_pins_cover_six_degree2_hits_and_nine_chains():
    assert len(DEGREE2) == 6 and len(CHAINS) == 9


@pytest.mark.parametrize("mu,d", DEGREE2)
def test_degree2_sweep_hit_pins(mu, d):
    rows = V.classify_mu(mu, d)
    assert {(r.lam, r.family) for r in rows} == ref.SWEEP_HITS[(mu, d)]
    for r in rows:
        (w,) = r.vectors
        assert ref.digest(V, w) == ref.SWEEP_DIGESTS[ref.sweep_key(mu, r.lam, d)]


@pytest.mark.parametrize("key", CHAINS)
def test_chain_pins(key):
    chain, m, n = key.split("|")
    phi = V.family_instance(chain, int(m), int(n))
    assert ref.digest(V, phi.hw_image()) == ref.CHAIN_DIGESTS[key]


def test_compose_makes_each_u_product_once_and_keeps_the_CBA_pin(monkeypatch):
    from e510 import uminus

    real, calls = uminus.u_mul, []

    def counting(u, v):
        calls.append((tuple(u.items()), tuple(v.items())))
        return real(u, v)

    monkeypatch.setattr(uminus, "u_mul", counting)
    phi = V.family_instance("CBA")
    assert ref.digest(V, phi.hw_image()) == ref.CHAIN_DIGESTS["CBA|0|0"]
    # 600 distinct products (the two compositions share none); 2,190 calls
    # when every column recomputed them
    assert len(calls) == len(set(calls)) == 600
