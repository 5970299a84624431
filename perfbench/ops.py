"""The three benchmark operations, timed tightly, and their checked outcomes.

Each ``run_*`` function times only the calls into the public gridcube API;
digests and verdict checks are computed after the clock stops.  An outcome
is a dict ``{"digest", "dilation", "problems"}``: ``digest`` identifies the
output (sha256 of the embedding file, or of the ordered check names and
statuses), ``problems`` lists every FAIL and every dilation above its
implied bound.
"""
from __future__ import annotations

import hashlib
import json
import time


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def checks_digest(checks) -> str:
    return sha256(json.dumps([[c.name, c.status] for c in checks]))


def _failures(checks) -> list[str]:
    return [f"{c.name}: FAIL {c.detail}" for c in checks if c.status == "FAIL"]


def embed_text(g, dims) -> str:
    """The file ``gridcube embed`` writes for this grid."""
    fk = g.build_fk(g.GridSpec(dims))
    return g.dump_embedding(g.assemble_Hk(fk))


def run_embed(g, dims):
    spec = g.GridSpec(dims)
    start = time.perf_counter()
    fk = g.build_fk(spec)
    emb = g.assemble_Hk(fk)
    report = g.dilation(emb)
    text = g.dump_embedding(emb)
    elapsed = time.perf_counter() - start
    del fk, emb
    problems = _failures(report.checks())
    if report.dilation > report.implied_bound:
        problems.append(
            f"dilation {report.dilation} above implied bound {report.implied_bound}"
        )
    return elapsed, {
        "digest": sha256(text),
        "dilation": report.dilation,
        "problems": problems,
    }


def run_audit_grid(g, dims):
    spec = g.GridSpec(dims)
    start = time.perf_counter()
    checks, emb, report = g.audit_grid(spec)
    elapsed = time.perf_counter() - start
    del emb
    problems = _failures(checks)
    if report.dilation > report.implied_bound:
        problems.append(
            f"dilation {report.dilation} above implied bound {report.implied_bound}"
        )
    return elapsed, {
        "digest": checks_digest(checks),
        "dilation": report.dilation,
        "problems": problems,
    }


def run_audit_file(g, text):
    start = time.perf_counter()
    checks = g.audit_file(text)
    elapsed = time.perf_counter() - start
    problems = _failures(checks)
    dil = [int(c.detail) for c in checks if c.name == "file.dilation"]
    if not dil:
        problems.append("no file.dilation in the audit")
    return elapsed, {
        "digest": checks_digest(checks),
        "dilation": dil[0] if dil else None,
        "problems": problems,
    }


def compare(outcome: dict, ref: dict | None) -> list[str]:
    """Problems of an outcome, plus any difference from its pinned reference."""
    problems = list(outcome["problems"])
    if ref is None:
        return problems + ["no pinned reference"]
    for field in ("digest", "dilation"):
        if outcome[field] != ref[field]:
            problems.append(f"{field} {outcome[field]} differs from pinned {ref[field]}")
    return problems
