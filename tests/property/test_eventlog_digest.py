"""Property: ``EventLog.digest()`` is lazy and incremental, never different.

The log hashes only the entries appended since the previous ``digest()``
call and drops its hash state when pickled, so the value must equal the
from-scratch ``digest16`` of the entries after *any* interleaving of
appends, digests and pickle round-trips — the empty log included.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")  # optional dep; CI installs it in brain-smoke

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brain.log import BrainLog
from repro.utils.eventlog import digest16

steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.floats(0.0, 1e6, allow_nan=False),
            st.text(max_size=6),
            st.one_of(st.none(), st.integers(-5, 5), st.lists(st.integers(0, 9), max_size=3)),
        ),
        st.tuples(st.just("digest")),
        st.tuples(st.just("pickle")),
        st.tuples(st.just("deepcopy")),
    ),
    max_size=30,
)


@given(steps=steps)
@settings(max_examples=200, deadline=None)
def test_digest_equals_a_from_scratch_hash_after_any_interleaving(steps):
    log = BrainLog()
    assert log.digest() == digest16([])
    for step in steps:
        if step[0] == "append":
            _, t, job, extra = step
            log.append("tick", t=t, job=job, extra=extra)
        elif step[0] == "digest":
            assert log.digest() == digest16(log.to_dicts())
        elif step[0] == "pickle":
            log = pickle.loads(pickle.dumps(log))
        else:
            log = copy.deepcopy(log)
    assert log.digest() == digest16(log.to_dicts())
    assert log.digest() == log.digest()  # asking twice hashes nothing new
