"""Command-line front door: build embeddings, audit them, manage labelings.

Exit codes: 0 when every applicable assertion passed, 1 when a check failed
(a malformed embedding file fails ``file.parse``), 2 for usage errors (bad
arguments, malformed seed files, infeasible or oversized instances), 3 for
an internal error (out of memory or any other unexpected exception; the
traceback goes to stderr).
"""
from __future__ import annotations

import argparse
import contextlib
import sys
import traceback
from pathlib import Path

from .caterpillars import caterpillar_for, gray_label, label_from_caterpillar
from .checks import (
    assemble_Hk,
    audit_file,
    audit_grid,
    dilation,
    embedding_blocks,
    failed,
    render_report,
)
from .grids import DEFAULT_VERTEX_CAP, GridSpec, level_budget
from .rounding import parse_matrices
from .stages import build_fk, dump_stage

PASS, CHECK_FAILED, USAGE, INTERNAL = 0, 1, 2, 3

CAP_HELP = "vertex-count cap (default %(default)s), at most 2^31 (the chain is int32)"


def _load_seeds(path: str | None):
    if path is None:
        return None
    return parse_matrices(Path(path).read_text())


def _write(blocks, out: str | None) -> None:
    """Write blocks of bytes, one at a time, to the file `out` or to stdout's
    byte stream (after whatever its text layer holds)."""
    if not out:
        sys.stdout.flush()
    with open(out, "wb") if out else contextlib.nullcontext(sys.stdout.buffer) as sink:
        for block in blocks:
            sink.write(block)
        sink.flush()


def _labelings_from_windows(spec: GridSpec, windows: list[int]):
    if len(windows) != spec.k:
        raise ValueError(
            f"need {spec.k} window values (one per dimension), got {len(windows)}"
        )
    labelings = []
    for jdim, w in enumerate(windows, start=1):
        width = spec.block_width(jdim)
        if w == 0:
            labelings.append(gray_label(width))
        elif w in (3, 5):
            try:
                cat = caterpillar_for(width, w - 2)
            except ValueError:
                raise ValueError(
                    f"window {w} does not fit dimension {jdim}, "
                    f"whose block is {width} bits wide"
                ) from None
            labelings.append(label_from_caterpillar(cat))
        else:
            raise ValueError(
                f"window {w} not available; use 0 (plain reflected labels), 3, or 5"
            )
    return labelings


def cmd_embed(args) -> int:
    spec = GridSpec(tuple(args.dims), vertex_cap=args.cap)
    fk = build_fk(spec, seed_matrices=_load_seeds(args.seed))
    if args.dump_stage is not None:
        stages = {st.stage: st for st in fk.stage_chain()}
        if args.dump_stage not in stages:
            raise ValueError(
                f"stage {args.dump_stage} not in 2..{spec.k} for this grid"
            )
        _write(dump_stage(stages[args.dump_stage]), args.out)
        return PASS
    labelings = None
    if args.windows is not None:
        labelings = _labelings_from_windows(spec, args.windows)
    emb = assemble_Hk(fk, labelings)
    report = dilation(emb)
    # the file is written block by block as it is rendered, never joined
    _write(embedding_blocks(emb), args.out)
    sink = sys.stdout if args.out else sys.stderr
    levels = " ".join(str(level_budget(spec, i)) for i in range(2, spec.k + 1))
    print(f"n: {spec.n}", file=sink)
    print(f"levels: {levels}", file=sink)
    print(f"windows: {' '.join(str(w) for w in emb.windows())}", file=sink)
    print(f"dilation: {report.dilation}", file=sink)
    return PASS


def cmd_audit(args) -> int:
    tokens = args.target
    path = Path(tokens[0])
    # one target is a file when it names a path or is not a number
    if len(tokens) == 1 and (path.exists() or not tokens[0].lstrip("-").isdigit()):
        if args.seed is not None:
            raise ValueError("--seed applies to a grid audit, not to a file")
        if not path.is_file():
            problem = "not a file" if path.exists() else "no such file"
            raise ValueError(f"{problem}: {path}")
        # one character per byte, with no newline translation: a CRLF file or
        # a non-ASCII byte reaches the parser as written and fails it
        checks = audit_file(path.read_bytes().decode("latin-1"), vertex_cap=args.cap)
    else:
        try:
            dims = [int(t) for t in tokens]
        except ValueError:
            raise ValueError(
                "audit takes either grid side lengths or one file path"
            ) from None
        spec = GridSpec(tuple(dims), vertex_cap=args.cap)
        checks, _, _ = audit_grid(spec, seed_matrices=_load_seeds(args.seed))
    sys.stdout.write(render_report(checks))
    return PASS if not failed(checks) else CHECK_FAILED


def cmd_cat(args) -> int:
    # the widest coordinate block of any grid under the default vertex cap;
    # a wider cube is refused before anything of size 2^t is built
    widest = (DEFAULT_VERTEX_CAP - 1).bit_length()
    if args.t > widest:
        raise ValueError(
            f"cube dimension {args.t} above {widest}, the widest block of a "
            "grid under the default vertex cap"
        )
    cat = caterpillar_for(args.t, args.leaf_degree)
    labeling = label_from_caterpillar(cat)
    breach = labeling.window_breach
    if breach is not None:
        a, b, dist = breach
        print(f"cat.window: FAIL labels {a},{b} at distance {dist}")
        return CHECK_FAILED
    print(
        f"Cat({cat.spine_length},{cat.leaf_degree}) at Q_{cat.t}: "
        f"window {labeling.window} verified"
    )
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcube",
        description=(
            "Embed a multidimensional grid into its optimal hypercube, "
            "audit the construction, and manage cube labelings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("embed", help="build an embedding and write it out")
    pe.add_argument("dims", nargs="+", type=int, help="grid side lengths")
    pe.add_argument("--seed", help="file of designation matrices to use")
    pe.add_argument("--out", help="output path (default: stdout)")
    pe.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP, help=CAP_HELP)
    what = pe.add_mutually_exclusive_group()
    what.add_argument(
        "--dump-stage",
        type=int,
        dest="dump_stage",
        help="dump one intermediate stage instead of the final embedding",
    )
    what.add_argument(
        "--windows",
        type=int,
        nargs="+",
        help="per-dimension labeling windows (0 for plain reflected labels)",
    )

    pa = sub.add_parser("audit", help="run the invariant battery")
    pa.add_argument(
        "target", nargs="+", help="grid side lengths, or one embedding file"
    )
    pa.add_argument("--seed", help="file of designation matrices to use")
    pa.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP, help=CAP_HELP)

    pc = sub.add_parser(
        "cat",
        help="build a cube caterpillar from its built-in base and verify it",
    )
    pc.add_argument("t", type=int, help="cube dimension")
    pc.add_argument("leaf_degree", type=int, help="leaves per spine vertex")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"embed": cmd_embed, "audit": cmd_audit, "cat": cmd_cat}[
        args.command
    ]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        summary = traceback.format_exception_only(exc)[-1].strip()
        print(f"internal error: {summary}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
