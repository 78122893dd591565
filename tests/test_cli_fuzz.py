"""A bytes-level fuzz of the command line: corpus files with bytes
deleted, inserted, replaced or cut off, and files at the edges of reading
text (invalid UTF-8, NUL, a byte-order mark, CRLF and CR-only line ends,
an empty file, a truncated one, a directory), fed to `symsum check`
through `cli.main`; and the sample expression files, mutated the same
way, fed to `symsum invariants` and `symsum polytope`.

Whatever the file holds, `main` must return an exit code of the contract
(0 verified, 1 proof failure, 2 parse, resolution or file error) with no
exception escaping, and an exit 2 must say why in exactly one line of
standard error.
"""

import os
import pathlib
import random
import time

import pytest

from symsum import cli
from symsum.cli import main
from symsum.demos import CORPUS

MUTATIONS = 1500
SEED = 20261019


def mutate(data: bytes, rng: random.Random) -> bytes:
    """`data` with one to three random byte edits."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        op = rng.choice(("delete", "insert", "replace", "truncate"))
        if op == "delete":
            del data[at : at + rng.randint(1, 4)]
        elif op == "insert":
            data[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 3)))
        elif op == "replace" and at < len(data):
            data[at] = rng.randrange(256)
        elif op == "truncate":
            del data[at:]
    return bytes(data)


def _main(args, capsys, one_line=(2,)) -> tuple[int, str]:
    """`main(args)`'s exit code and standard error, checked against the
    contract: an exit in `one_line` says why in exactly one line."""
    code = main(args)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), code
    if code in one_line:
        assert err.endswith("\n") and err.count("\n") == 1, err
    return code, err


def _check(path, capsys) -> tuple[int, str]:
    return _main(["check", str(path)], capsys)


def test_byte_mutations_of_the_corpus_keep_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(SEED)
    sources = [text.encode("utf-8") for _, text in sorted(CORPUS.items())]
    path = tmp_path / "mutant.ssum"
    codes = {0: 0, 1: 0, 2: 0}
    for n in range(MUTATIONS):
        path.write_bytes(mutate(sources[n % len(sources)], rng))
        code, _ = _check(path, capsys)
        codes[code] += 1
    assert all(codes.values()), codes  # the mutants reach every outcome


EXPRS = sorted((pathlib.Path(__file__).parent.parent / "scripts" / "exprs").glob("*.expr"))
EXPR_MUTATIONS = 600


def test_byte_mutations_of_the_expression_files_keep_the_exit_code_contract(
    tmp_path, capsys
):
    """The same byte mutations of the sample expression files, through
    `invariants` and through `polytope` with each figure: a failure
    outside a proof (exit 1) also says why in one line."""
    rng = random.Random(SEED)
    sources = [path.read_bytes() for path in EXPRS]
    path, svg = str(tmp_path / "mutant.expr"), str(tmp_path / "mutant.svg")
    commands = [["invariants", path]] + [
        ["polytope", path, "--figure", figure, "-o", svg]
        for figure in ("triple", "pairsum", "foursum")
    ]
    codes = [{0: 0, 1: 0, 2: 0} for _ in commands]
    start = time.process_time()
    for n in range(EXPR_MUTATIONS):
        pathlib.Path(path).write_bytes(mutate(sources[n % len(sources)], rng))
        for args, counts in zip(commands, codes):
            code, _ = _main(args, capsys, one_line=(1, 2))
            counts[code] += 1
    seconds = time.process_time() - start
    assert all(counts[0] and counts[2] for counts in codes), codes
    assert seconds < 5, f"{EXPR_MUTATIONS} mutants took {seconds:.1f} s of CPU"


GOOD = CORPUS["resolve"].encode("utf-8")
HUGE_I = "123456789012345678901234567890"

# each file at an edge of reading text, with the exit code it must give
EDGE_FILES = {
    "invalid utf-8": (b"\xff\xfe" + GOOD, 2),
    "lone continuation byte": (GOOD.replace(b"lhs", b"lhs \x80", 1), 2),
    "nul": (GOOD.replace(b"lhs", b"lhs \x00", 1), 2),
    "byte-order mark": (b"\xef\xbb\xbf" + GOOD, 2),
    "crlf": (GOOD.replace(b"\n", b"\r\n"), 0),
    "cr only": (GOOD.replace(b"\n", b"\r"), 0),
    "empty": (b"", 2),
    "truncated": (GOOD[: len(GOOD) // 2], 2),
    "huge CP2 normal number": (
        f"atom P CP2 {{ L1: g=0, i={HUGE_I}, a=1 }}\nlhs P\nrhs P\ntarget =\n".encode(),
        2,
    ),
}


@pytest.mark.parametrize("name", EDGE_FILES)
def test_edge_files(name, tmp_path, capsys):
    data, expected = EDGE_FILES[name]
    path = tmp_path / "edge.ssum"
    path.write_bytes(data)
    code, err = _check(path, capsys)
    assert code == expected, err


def test_a_huge_cp2_normal_number_is_refused_at_once(tmp_path, capsys):
    """A CP^2 mark's degree is the integer square root of its normal
    number, found without counting up to it."""
    path = tmp_path / "edge.ssum"
    path.write_bytes(EDGE_FILES["huge CP2 normal number"][0])
    start = time.perf_counter()
    code, err = _check(path, capsys)
    assert time.perf_counter() - start < 1
    assert (code, err) == (
        2,
        "1:6: mark L1: not a degree-d curve shadow "
        f"(needs i=d^2, g=(d-1)(d-2)/2; got g=0, i={HUGE_I})\n",
    )


def test_a_directory_is_a_file_error(tmp_path, capsys):
    code, err = _check(tmp_path, capsys)
    assert code == 2 and err.startswith("file error: ")


def test_a_permission_error_on_open_is_a_file_error(tmp_path, capsys, monkeypatch):
    """The unreadable-file exit, reached whatever the user: `open` is made
    to refuse the script as it refuses a file of mode 0 to a non-root user."""
    path = tmp_path / "locked.ssum"
    path.write_bytes(GOOD)

    def refusing_open(file, *args, **kwargs):
        if file == str(path):
            raise PermissionError(13, "Permission denied", file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", refusing_open, raising=False)
    code, err = _check(path, capsys)
    assert code == 2
    assert err == f"file error: [Errno 13] Permission denied: '{path}'\n"


@pytest.mark.skipif(
    os.name != "posix" or os.geteuid() == 0,
    reason="root reads a file whatever its mode, so the file stays readable",
)
def test_an_unreadable_file_is_a_file_error(tmp_path, capsys):
    path = tmp_path / "locked.ssum"
    path.write_bytes(GOOD)
    path.chmod(0)
    try:
        code, err = _check(path, capsys)
    finally:
        path.chmod(0o600)
    assert code == 2 and err.startswith("file error: ")
