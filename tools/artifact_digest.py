"""Digest of every artifact of a desk-scale pipeline run.

Runs gen, build-sstar, build-kde, train-rl at p = 1 and p = 2, a sampled
and an exact landscape, a sampled bench, an exact bench and a report of
the sampled bench's records through `qaoabench.cli.main` into a
temporary directory, then prints one sha256 per artifact and a combined
digest over all of them.  The sampled bench runs a second time with
`--threads 2`, outside the digested tree; the script exits non-zero if
its `records.csv` differs from the serial run's.
`manifest.json` files are left out: they name their input paths, which
differ between checkouts.  A refactor that is meant to change no result
must print the same combined digest before and after.  The last lines
give the size a refactor reports next to its digest: `src_lines <N>`, the
line count of `src/qaoabench/*.py` (as `cat src/qaoabench/*.py | wc -l`
counts it), and `code_lines <N>`, the lines of those files that hold a
token other than a comment, a docstring or whitespace.

    python3 tools/artifact_digest.py

The package is imported from the `src/` directory next to this script.
"""

import ast
import contextlib
import hashlib
import io
import sys
import tempfile
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from qaoabench.cli import main  # noqa: E402


BENCH_SIZE = ["--max-n", "8", "--attempts", "2", "--budget", "48"]


def pipeline(root: Path):
    """The CLI argument lists, in run order."""
    sstar, models, policy = root / "sstar", root / "models", root / "policy"
    return [
        ["gen", "--suite", "test", "--out", str(root / "gen")],
        ["build-sstar", "--p", "1,2", "--starts", "5", "--out", str(sstar)],
        ["build-kde", "--sstar", str(sstar / "sstar-p1.json"),
         "--sstar", str(sstar / "sstar-p2.json"), "--out", str(models)],
        ["train-rl", "--p", "1", "--epochs", "2", "--episodes", "4",
         "--steps", "16", "--probe", "20", "--out", str(policy)],
        # p > 1 walks and the Monte Carlo reward normalizer
        ["train-rl", "--p", "2", "--epochs", "2", "--episodes", "4",
         "--steps", "16", "--probe", "20", "--out", str(root / "policy-p2")],
        ["landscape", "--instance", "L-n3", "--resolution", "16",
         "--out", str(root / "landscape")],
        ["landscape", "--exact", "--instance", "L-n3", "--resolution", "16",
         "--out", str(root / "landscape-exact")],
        sampled_bench(root, root / "bench-sampled"),
        ["bench", "--exact", "--p", "1,2", "--roster", "random,nm,kde",
         *BENCH_SIZE, "--kde", str(models / "kde-p1.json"),
         "--kde", str(models / "kde-p2.json"),
         "--out", str(root / "bench-exact")],
        ["report", "--records", str(root / "bench-sampled" / "records.csv"),
         "--out", str(root / "report")],
    ]


def sampled_bench(root: Path, out: Path, extra=()):
    """The sampled bench stage's arguments, writing to `out`."""
    return ["bench", "--p", "1", *BENCH_SIZE,
            "--kde", str(root / "models" / "kde-p1.json"),
            "--policy", str(root / "policy" / "policy-p1.json"),
            *extra, "--out", str(out)]


def _run(argv) -> int:
    # the stages report progress on stdout; keep stdout for digests
    with contextlib.redirect_stdout(sys.stderr):
        status = main(argv)
    if status:
        print(f"stage {argv[0]} failed", file=sys.stderr)
    return status


# tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of `source` that hold a token other than a comment, a
    docstring (found with `ast`) or whitespace."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            docstrings.add((node.body[0].lineno, node.body[0].col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and not (tok.type == tokenize.STRING
                                            and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main_digest() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "run"
        for argv in pipeline(root):
            status = _run(argv)
            if status:
                return status
        combined = hashlib.sha256()
        for path in sorted(root.rglob("*")):
            if not path.is_file() or path.name == "manifest.json":
                continue
            rel = path.relative_to(root).as_posix()
            digest = sha256_file(path)
            combined.update(f"{rel} {digest}\n".encode())
            print(f"{digest}  {rel}")
        print(f"combined {combined.hexdigest()}")
        pooled = Path(tmp) / "threads"
        if _run(sampled_bench(root, pooled, ["--threads", "2"])):
            return 1
        if (pooled / "records.csv").read_bytes() != (
                root / "bench-sampled" / "records.csv").read_bytes():
            print("bench --threads 2 records differ from the serial run's",
                  file=sys.stderr)
            return 1
    sources = [path.read_text() for path in (SRC / "qaoabench").glob("*.py")]
    lines = sum(source.count("\n") for source in sources)
    print(f"src_lines {lines}")
    print(f"code_lines {sum(map(code_lines, sources))}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
