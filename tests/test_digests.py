"""The digest corpus reproduces: every embedding file, stage dump and audit
report that `tests/data/digests.json` pins (see `tests/digests.py`) is
byte-identical."""
from __future__ import annotations

import json

import digests
from test_tracing_names import load_perfbench

from gridcube import checks


def test_every_digest_of_the_corpus_reproduces():
    want = json.loads(digests.CORPUS.read_text())
    assert len(want) == 774 + 6 + 1 + 12 + 51
    got = digests.corpus(load_perfbench("ops"), load_perfbench("workloads"))
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


def test_one_changed_check_status_changes_its_report_digest(monkeypatch):
    """A report digest pins each check's status: with `embedding.injective`
    read as failed, the first family grid's report no longer matches."""
    want = json.loads(digests.CORPUS.read_text())
    dims = digests.report_grids()[0]
    key = "report:" + "x".join(map(str, dims))
    assert digests.report(dims) == want[key]
    real = checks._check

    def mutant(name, ok, *args, **kwargs):
        return real(name, ok and name != "embedding.injective", *args, **kwargs)

    monkeypatch.setattr(checks, "_check", mutant)
    assert digests.report(dims) != want[key]
