"""Coefficient interning in the dispatch path.

NodePlan fan-out would re-pickle the node's full coefficient tuple into
every sign/gap task; instead the parent interns it once per node as a
``(sha256 digest, pickle blob)`` pair and workers resolve it through a
small per-process cache.  These tests pin the round-trip, the content
keying (with no coefficient-size limit), and the cache bound.
"""

import hashlib
import pickle

from repro.sched import executor
from repro.sched.executor import intern_coeffs, _resolve_coeffs


def test_intern_round_trip():
    coeffs = (-6, 1, 1)
    key, blob = intern_coeffs(coeffs)
    assert key == hashlib.sha256(blob).digest()
    assert key == intern_coeffs((-6, 1, 1))[0]
    assert key != intern_coeffs((-6, 1, 2))[0]
    assert pickle.loads(blob) == coeffs
    assert _resolve_coeffs((key, blob)) == coeffs
    # Beyond Python's 4300-digit limit for str(int): still interned.
    big = (-(7 ** 20000), 1)
    assert _resolve_coeffs(intern_coeffs(big)) == big


def test_resolve_caches_by_key():
    executor._COEFFS_CACHE.clear()
    ref = intern_coeffs((1, 0, -2, 5))
    first = _resolve_coeffs(ref)
    second = _resolve_coeffs(ref)
    assert second is first  # cache hit, no second unpickle
    assert executor._COEFFS_CACHE[ref[0]] is first


def test_cache_is_bounded():
    executor._COEFFS_CACHE.clear()
    for k in range(executor._COEFFS_CACHE_MAX * 2 + 3):
        _resolve_coeffs(intern_coeffs((k, 1)))
    assert len(executor._COEFFS_CACHE) <= executor._COEFFS_CACHE_MAX
