"""The digest corpus reproduces: every embedding file and stage dump that
`tests/data/digests.json` pins (see `tests/digests.py`) is byte-identical."""
from __future__ import annotations

import json

import digests
from test_tracing_names import load_perfbench


def test_every_digest_of_the_corpus_reproduces():
    want = json.loads(digests.CORPUS.read_text())
    assert len(want) == 774 + 6 + 1 + 12
    got = digests.corpus(load_perfbench("ops"), load_perfbench("workloads"))
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []
