"""Tests for the command-line interface."""
from __future__ import annotations

import io
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracles
import pytest

from gridcube.checks import assemble_Hk, dump_embedding, embedding_blocks
from gridcube.cli import main
from gridcube.grids import GridSpec
from gridcube.rounding import parse_matrices
from gridcube.stages import build_fk, dump_stage

DATA = Path(__file__).parent / "data"


def console():
    """A text stream over a bytes buffer, as a console's stdout is: text
    goes through it, bytes straight to its `buffer`."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8")


def run_cli(argv):
    out, err = console(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode(), err.getvalue()


def test_embed_three_dim_example():
    code, out, err = run_cli(["embed", "3", "7", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "GRIDCUBE 1"
    assert len(lines) == 4 + 84
    assert "n: 7" in err
    assert "levels: 21 3" in err
    assert "dilation:" in err


def test_embed_smallest_grid_reports_dilation_one():
    code, out, err = run_cli(["embed", "2", "2"])
    assert code == 0
    assert len(out.strip().splitlines()) == 4 + 4
    assert "dilation: 1" in err


def test_embed_output_is_byte_identical():
    _, first, _ = run_cli(["embed", "3", "7", "4"])
    _, second, _ = run_cli(["embed", "3", "7", "4"])
    assert first == second


def test_embed_to_file_then_audit_round_trip(tmp_path):
    target = tmp_path / "emb.txt"
    code, out, _ = run_cli(["embed", "3", "7", "4", "--out", str(target)])
    assert code == 0
    assert "n: 7" in out
    code, out, _ = run_cli(["audit", str(target)])
    assert code == 0
    assert "file.parse: PASS" in out
    assert "file.dilation: REPORTED" in out


class Recorder(io.BytesIO):
    """A byte sink that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, b):
        self.sizes.append(len(b))
        return super().write(b)


def test_embed_writes_the_text_in_slices_to_either_sink(tmp_path):
    # 40^3 renders 1.6 MB of text: stdout takes it as the header and then
    # one block of lines at a time, as the file's blocks are rendered,
    # never the joined text, and both sinks hold exactly the dumped text
    emb = assemble_Hk(build_fk(GridSpec((40, 40, 40))))
    text = dump_embedding(emb)
    out, err = io.TextIOWrapper(Recorder(), encoding="utf-8"), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["embed", "40", "40", "40"]) == 0
    assert out.buffer.getvalue() == text.encode()
    sizes = [len(block) for block in embedding_blocks(emb)]
    assert out.buffer.sizes == sizes and len(sizes) == 3
    assert "dilation:" in err.getvalue()
    target = tmp_path / "emb.txt"
    code, out, _ = run_cli(["embed", "40", "40", "40", "--out", str(target)])
    assert code == 0 and "dilation:" in out
    assert target.read_bytes() == text.encode()


def test_embed_with_seed_matrices():
    code, out, _ = run_cli(
        ["embed", "3", "7", "4", "--seed", str(DATA / "seed_374_stage2.txt")]
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 4 + 84


def readme_seed_example() -> str:
    """The seed file shown in the README's `--seed FILE` paragraph."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme[readme.index("`embed --seed FILE`") :]
    return section.split("```text\n", 1)[1].split("```", 1)[0]


def test_readme_seed_example_parses_and_embeds(tmp_path):
    text = readme_seed_example()
    assert text == (DATA / "seed_374_stage2.txt").read_text()
    (F,) = parse_matrices(text)
    assert (F.m, F.n, oracles.row_counts(F)) == (4, 8, (2, 3, 3, 3))
    seed = tmp_path / "seed.txt"
    seed.write_text(text)
    for argv in (["embed", "3", "7", "4"], ["audit", "3", "7", "4"]):
        code, _, err = run_cli([*argv, "--seed", str(seed)])
        assert code == 0, err


@pytest.mark.parametrize(
    "bad",
    [
        lambda text: text.replace("10010010\n", ""),  # one row short
        lambda text: text.replace("01010010", "0101001x"),
        lambda text: text.replace("01010010", "0101001"),
        lambda text: text.replace("4 8", "4"),
        lambda text: text.replace("10001000", "11111111"),  # breaks the contract
        lambda text: text + text,  # a matrix too many for k = 3
    ],
)
def test_malformed_seed_file_is_usage_error(tmp_path, bad):
    seed = tmp_path / "seed.txt"
    seed.write_text(bad(readme_seed_example()))
    for argv in (["embed", "3", "7", "4"], ["audit", "3", "7", "4"]):
        code, _, err = run_cli([*argv, "--seed", str(seed)])
        assert code == 2, err
        assert err.startswith("error: ")


def test_embed_dump_stage():
    code, out, _ = run_cli(["embed", "3", "7", "4", "--dump-stage", "2"])
    assert code == 0
    assert out.startswith("STAGE 2 ")
    code, _, err = run_cli(["embed", "3", "7", "4", "--dump-stage", "9"])
    assert code == 2
    assert "stage 9" in err
    # 40^3's stage 3 reaches stdout as `dump_stage`'s blocks, one at a time:
    # the header, then the lines of at most RANK_BLOCK ranks per block
    blocks = [bytes(block) for block in dump_stage(build_fk(GridSpec((40, 40, 40))))]
    out = io.TextIOWrapper(Recorder(), encoding="utf-8")
    with redirect_stdout(out):
        assert main(["embed", "40", "40", "40", "--dump-stage", "3"]) == 0
    assert out.buffer.getvalue() == b"".join(blocks)
    assert out.buffer.sizes == [len(block) for block in blocks] and len(blocks) == 3


def test_embed_with_explicit_windows():
    code, out, _ = run_cli(["embed", "3", "7", "4", "--windows", "0", "3", "0"])
    assert code == 0
    _, default_out, _ = run_cli(["embed", "3", "7", "4"])
    assert out == default_out
    code, _, err = run_cli(["embed", "3", "7", "4", "--windows", "7", "0", "0"])
    assert code == 2
    assert "window 7" in err
    code, _, err = run_cli(["embed", "3", "7", "4", "--windows", "0", "3"])
    assert code == 2


def test_embed_rejects_bad_grids():
    code, _, err = run_cli(["embed", "1", "5"])
    assert code == 2
    code, _, err = run_cli(["embed", "9", "9", "9", "--cap", "100"])
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("command", ["embed", "audit"])
def test_cap_admits_no_grid_above_2_31_vertices(command):
    # 2^31 + 2^16 vertices under a cap of 2^40: refused before anything of
    # the grid's size is built
    code, out, err = run_cli([command, "65536", "32769", "--cap", str(1 << 40)])
    assert code == 2 and out == ""
    assert "above 2^31" in err


def test_audit_dims_passes():
    code, out, _ = run_cli(["audit", "3", "7", "4"])
    assert code == 0
    assert "pipeline.stage2.blank-budget: PASS" in out
    assert "chain.occupancy-and-monotone: PASS" in out
    assert "dilation.value: REPORTED" in out
    assert "FAIL" not in out


def test_audit_trivial_grid_passes():
    code, out, _ = run_cli(["audit", "8", "8"])
    assert code == 0
    assert "FAIL" not in out


# (5,5,40000) and (5000,2) in 1 GiB of address space: the batteries' tables
# are linear in |G|, the page count and a_1.  Measured 311 MB ru_maxrss and
# about 7 s, and 202 MB and about 2 s, on a 2-vCPU Xeon virtual machine
# (Python 3.11.7, numpy 2.4.6).
LONG_GRID_ADDRESS_SPACE = 1 << 30
LONG_GRID_RSS_MB = 400


def limit_address_space():
    cap = LONG_GRID_ADDRESS_SPACE
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def child_env():
    path = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def run_bounded(argv):
    """The command in a child process under LONG_GRID_ADDRESS_SPACE."""
    return subprocess.run(
        [sys.executable, "-m", "gridcube.cli", *argv],
        preexec_fn=limit_address_space,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_audit_long_thin_grid_in_bounded_memory():
    proc = run_bounded(["audit", "5", "5", "40000"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "FAIL" not in proc.stdout
    assert "pipeline.stage3.stack-top-occupancy: PASS" in proc.stdout
    # the chain battery's window counts are checked one width at a time
    proc = run_bounded(["audit", "5000", "2"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "FAIL" not in proc.stdout
    assert "chain.window-counts: PASS" in proc.stdout
    # the largest of this process's waited-for children, these included
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert peak_mb < LONG_GRID_RSS_MB


def test_audit_malformed_file_fails(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("junk\n")
    code, out, _ = run_cli(["audit", str(bad)])
    assert code == 1
    assert "file.parse: FAIL" in out


def test_audit_mutated_file_fails(tmp_path):
    target = tmp_path / "emb.txt"
    run_cli(["embed", "3", "7", "4", "--out", str(target)])
    text = target.read_text()
    target.write_text(text.replace("\n2 1 1 ", "\n2 1 1 2", 1))
    code, out, _ = run_cli(["audit", str(target)])
    assert code == 1
    assert out.startswith("file.parse: FAIL line 6 is not the line of rank 1")


def test_audit_of_a_crlf_file_fails(tmp_path):
    # the file must reach the parser byte for byte: a universal-newline read
    # would turn CRLF back into LF and pass it
    target = tmp_path / "emb.txt"
    run_cli(["embed", "3", "7", "4", "--out", str(target)])
    target.write_bytes(target.read_bytes().replace(b"\n", b"\r\n"))
    code, out, _ = run_cli(["audit", str(target)])
    assert code == 1
    assert out.startswith("file.parse: FAIL")


def test_audit_of_a_non_utf8_byte_fails_the_parse(tmp_path):
    # a byte that is not UTF-8 fails the parse as a UTF-8 letter does
    target = tmp_path / "emb.txt"
    run_cli(["embed", "3", "7", "4", "--out", str(target)])
    lines = target.read_bytes().split(b"\n")
    line = lines[6]
    outs = []
    for letter in (b"\xff", "é".encode()):
        lines[6] = line.replace(b"0", letter, 1)
        target.write_bytes(b"\n".join(lines))
        code, out, err = run_cli(["audit", str(target)])
        assert (code, err) == (1, "")
        outs.append(out)
    assert outs == ["file.parse: FAIL line 7 is not the line of rank 2\n"] * 2


def test_audit_of_a_directory_is_usage_error(tmp_path):
    code, out, err = run_cli(["audit", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err == f"error: not a file: {tmp_path}\n"


# A header that declares 2^26 vertices over a three-line body.  The parse
# must count the lines before it renders the 2.4 GB expected body; measured
# tracemalloc peak 3 kB on a 2-vCPU Xeon virtual machine (Python 3.11.7,
# numpy 2.4.6).  It runs in a child under the address-space cap, so a parse
# that did build the body fails there instead of taking the machine's memory.
LYING_HEADER = "GRIDCUBE 1\ndims 8192 8192\n26 13 26\nlabelings 0 0\n" + "".join(
    f"{x} 1 {'0' * 25}{x - 1}\n" for x in (1, 2, 3)
)
LYING_HEADER_PEAK_BYTES = 64 << 10


def test_audit_of_a_lying_header_counts_lines_first():
    script = (
        "import sys, tracemalloc\n"
        "from gridcube.checks import audit_file\n"
        "text = sys.stdin.read()\n"
        "tracemalloc.start()\n"
        "checks = audit_file(text)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
        "print(checks[0].line())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=LYING_HEADER,
        preexec_fn=limit_address_space,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    peak, line = proc.stdout.splitlines()
    assert line == "file.parse: FAIL expected 67108864 vertex lines, found 3 newlines"
    assert int(peak) < LYING_HEADER_PEAK_BYTES


def test_audit_of_a_file_reads_the_cap(tmp_path):
    # the cap a file was embedded under audits it: a 25-vertex file under
    # a cap of 10 is refused as the 25-vertex grid is, and a header of 10^8
    # vertices under a cap of 2 * 10^8 passes the cap and fails on its line
    # count instead
    target = tmp_path / "emb.txt"
    run_cli(["embed", "5", "5", "--out", str(target)])
    assert run_cli(["audit", str(target), "--cap", "25"])[0] == 0
    code, out, err = run_cli(["audit", str(target), "--cap", "10"])
    assert (code, out) == (2, "")
    assert err == "error: grid has 25 vertices, above the cap 10\n"
    assert run_cli(["audit", "5", "5", "--cap", "10"])[1:] == (out, err)
    target.write_text(
        "GRIDCUBE 1\ndims 10000 10000\n27 14 27\nlabelings 0 0\n1 1 " + "0" * 27 + "\n"
    )
    code, out, _ = run_cli(["audit", str(target), "--cap", str(2 * 10**8)])
    assert code == 1
    assert out == "file.parse: FAIL expected 100000000 vertex lines, found 1 newlines\n"


def test_audit_of_a_file_with_seed_is_usage_error(tmp_path):
    target = tmp_path / "emb.txt"
    run_cli(["embed", "5", "5", "--out", str(target)])
    code, out, err = run_cli(["audit", str(target), "--seed", "/nonexistent"])
    assert code == 2 and out == ""
    assert "--seed" in err


def test_audit_of_a_file_named_by_a_number(tmp_path, monkeypatch):
    # one target that names a file is that file, even when it reads as a
    # side length; a number that names no file is still a grid side
    monkeypatch.chdir(tmp_path)
    run_cli(["embed", "5", "5", "--out", "25"])
    code, out, err = run_cli(["audit", "25"])
    assert (code, err) == (0, "")
    assert out == run_cli(["audit", "./25"])[1]
    assert out.startswith("file.parse: PASS")
    code, out, err = run_cli(["audit", "26"])
    assert (code, out) == (2, "")
    assert err == "error: a grid needs at least two dimensions\n"


def test_audit_of_a_directory_named_by_a_number(tmp_path, monkeypatch):
    # a number that names any existing path, a directory too, is that path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "25").mkdir()
    for target in ("25", "./25"):
        code, out, err = run_cli(["audit", target])
        assert (code, out, err) == (2, "", "error: not a file: 25\n")


def test_audit_missing_file_is_usage_error():
    code, _, err = run_cli(["audit", "no_such_file.txt"])
    assert code == 2


def test_audit_mixed_arguments_is_usage_error():
    code, _, err = run_cli(["audit", "abc", "def"])
    assert code == 2


def test_cat_base_search():
    code, out, _ = run_cli(["cat", "3", "1"])
    assert code == 0
    assert out.strip() == "Cat(4,1) at Q_3: window 3 verified"
    code, out, _ = run_cli(["cat", "6", "3"])
    assert code == 0
    assert out.strip() == "Cat(16,3) at Q_6: window 5 verified"


def test_cat_doubling_with_cache():
    code, out, _ = run_cli(["cat", "4", "1"])
    assert code == 0
    assert out.strip() == "Cat(8,1) at Q_4: window 3 verified"


def test_cat_infeasible_parameters():
    code, _, err = run_cli(["cat", "5", "3"])
    assert code == 2
    assert "needs dimension >= 6" in err


def test_cat_above_the_widest_block_is_refused_up_front():
    # 2^40 cube vertices: refused before any of them is built
    proc = run_bounded(["cat", "40", "1"])
    assert proc.returncode == 2
    assert "above 26" in proc.stderr


def test_usage_errors_from_parser():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["embed"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["embed", "3", "7", "4", "--threads", "2"])
    assert exc.value.code == 2
    # a stage dump takes no windows, valid or not
    for windows in (["0", "0", "0"], ["9"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(["embed", "3", "7", "4", "--dump-stage", "2", "--windows"] + windows)
        assert exc.value.code == 2


def test_window_wider_than_its_block_is_usage_error():
    # the message names the window, the grid dimension and its block width
    code, out, err = run_cli(["embed", "3", "7", "4", "--windows", "3", "3", "3"])
    assert (code, out) == (2, "")
    assert err == "error: window 3 does not fit dimension 1, whose block is 2 bits wide\n"


def test_internal_errors_exit_three(monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("gridcube.cli.build_fk", out_of_memory)
    code, out, err = run_cli(["embed", "3", "7", "4"])
    assert code == 3
    assert out == ""
    assert "Traceback" in err
    assert err.rstrip().endswith("internal error: MemoryError")


def test_embed_of_colliding_labels_exits_three(monkeypatch):
    def colliding(spec, seed_matrices=None):
        fk = build_fk(spec)
        final = oracles.final(fk)
        final[:, 1] = final[:, 0]
        return oracles.per_vertex(fk, final)

    monkeypatch.setattr("gridcube.cli.build_fk", colliding)
    code, out, err = run_cli(["embed", "5", "5", "6"])
    assert code == 3
    assert out == ""
    assert err.rstrip().endswith("RuntimeError: labels collide; embedding bug")
