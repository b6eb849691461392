"""Print two SHA-256 digests over ``decide``'s output on generated batteries.

    python3 tools/decide_digest.py SRC [COUNT]

SRC is the directory that holds the ``alphagate`` package (``src`` in a
checkout) and COUNT the number of batteries of the first line (default
200); the second line covers COUNT // 5 tie-free batteries, at least one.
The batteries come from fixed generators, so two trees whose ``decide``
prints the same bytes print the same digests. Each battery is judged by an
in-process ``cli.main(["decide", ...])`` in every mode (individual, conjunction, bh,
and disjunction with the default method and with each of the four FWER
methods), in tsv and pretty, at precisions 0, 6 and 17; the digest covers
each call's exit code, stdout and stderr.

Batteries hold 1 to 3,000 rows, log-uniform, and one in four holds 100 to
400, about the 224 rows (``battery.SMALL_ROWS``) where ``decide`` moves from
its plain-Python route to numpy. Their p-values are uniform draws, draws from 1e-12 to 1e-4 (which
print in scientific notation), values exactly on each method's steps at the
run's alpha, 0, 1, -0, subnormals and ties, written in a few text forms;
one battery in eight quotes its cells, and one in ten holds a row at fault
(a p-value out of range or not a number, a duplicate or blank id), so that
the error and the line it names are compared too. Alpha is 0.05, 0.01,
1e-6, 0.5, 0.999 or 0.365580679783838, where BH's last step at k = 3 is q
itself and not 3 * q / 3.

A fifth of those rows come from three tie values, so every battery of the
first line holds ties. The second line's batteries hold 193 to 5,000 rows,
log-uniform, whose p-values are all distinct (193 is one above the route's
old edge, kept so that trees on either side of its move print comparable
digests): uniform draws, draws from 1e-12 to 1e-4,
values on the steps, 0 or 1 at most once each and subnormals, written in
the same text forms; one in eight quotes its cells. Only such a battery,
on the numpy route, keeps the order of numpy's default sort, which the
first line never reaches.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import sys
import tempfile
import time

ALPHAS = [0.05, 0.01, 1e-6, 0.5, 0.999, 0.365580679783838]
#: every mode and method of ``decide``, the default disjunction method included
MODES = [["--mode", "individual"], ["--mode", "conjunction"], ["--mode", "bh"], ["--mode", "disjunction"]] + [
    ["--mode", "disjunction", "--method", method] for method in ("bonferroni", "sidak", "holm", "hochberg")
]
FAULTS = ["1.5", "-0.25", "nan", "abc", "", "dup", "blank"]


def steps(alpha: float, k: int) -> list[float]:
    """Every method's thresholds at alpha over k tests."""
    return ([alpha, alpha / k, -math.expm1(math.log1p(-alpha) / k) if k > 1 else alpha]
            + [alpha / (k - i) for i in range(k)] + [(i * alpha) / k for i in range(1, k + 1)])


def cell(rng: random.Random, value: float) -> str:
    """``value`` in one of the text forms a battery file may hold."""
    form = rng.random()
    if value == 0.0 and form < 0.2:
        return "-0"
    if form < 0.7:
        return repr(value)
    if form < 0.85:
        return f"{value:.17g}"
    return f" {value!r} "


def battery_text(rng: random.Random, index: int) -> tuple[str, float]:
    """One battery file's text and the alpha to judge it at."""
    if index % 4 == 0:
        k = rng.randint(100, 400)
    else:
        k = int(math.exp(rng.uniform(0.0, math.log(3000))))
    alpha = rng.choice(ALPHAS)
    on_steps = steps(alpha, k) + [0.0, 1.0, 5e-324, 2.2250738585072014e-308]
    ties = [rng.choice(on_steps) for _ in range(3)]
    values = []
    for _ in range(k):
        kind = rng.random()
        if kind < 0.3:
            values.append(rng.random())
        elif kind < 0.5:
            values.append(math.exp(rng.uniform(math.log(1e-12), math.log(1e-4))))
        elif kind < 0.8:
            values.append(rng.choice(on_steps))
        else:
            values.append(rng.choice(ties))
    ids = [f"h{i:0{rng.randint(1, 5)}d}" for i in range(k)]
    p = [cell(rng, v) for v in values]
    if index % 10 == 5:
        row, fault = rng.randrange(k), rng.choice(FAULTS)
        if fault == "dup":
            ids[row] = ids[rng.randrange(k)] if k > 1 else ""
        elif fault == "blank":
            ids[row] = ""
        else:
            p[row] = fault
    return file_text(ids, p, index % 8 == 3), alpha


def file_text(ids: list[str], cells: list[str], quoted: bool) -> str:
    """A battery file of the id and p cells, each cell quoted or none."""
    rows = [(f'"{i}"', f'"{v}"') if quoted else (i, v) for i, v in zip(ids, cells)]
    return "id,p\n" + "".join(f"{i},{v}\n" for i, v in rows)


def tie_free_text(rng: random.Random, index: int) -> tuple[str, float]:
    """One tie-free battery file's text and the alpha to judge it at."""
    k = int(math.exp(rng.uniform(math.log(193), math.log(5000))))
    alpha = rng.choice(ALPHAS)
    on_steps = steps(alpha, k) + [0.0, 1.0] + [5e-324 * rng.randint(1, 2**40) for _ in range(8)]
    values: dict[float, None] = {}  # distinct values in the order drawn
    while len(values) < k:
        kind = rng.random()
        if kind < 0.5:
            value = rng.random()
        elif kind < 0.8:
            value = math.exp(rng.uniform(math.log(1e-12), math.log(1e-4)))
        else:
            value = rng.choice(on_steps)
        values.setdefault(value)
    ids = [f"h{i:0{rng.randint(1, 5)}d}" for i in range(k)]
    return file_text(ids, [cell(rng, v) for v in values], index % 8 == 3), alpha


def digest(texts) -> str:
    """The SHA-256 over every ``decide`` call on the (text, alpha) pairs of ``texts``."""
    from alphagate.cli import main as cli_main

    sha = hashlib.sha256()
    for text, alpha in texts:
        with open("battery.csv", "w", encoding="utf-8") as handle:
            handle.write(text)
        for mode in MODES:
            for fmt in ("tsv", "pretty"):
                for precision in ("0", "6", "17"):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli_main(["decide", "--battery", "battery.csv", "--alpha", repr(alpha),
                                         "--format", fmt, "--precision", precision, *mode])
                    sha.update(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    return sha.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[1]))
    count = int(argv[2]) if len(argv) == 3 else 200

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # messages name the battery by this relative path
        rng = random.Random(20211)
        first = digest(battery_text(rng, index) for index in range(count))
        print(f"{count} batteries in {len(MODES)} modes, 2 formats, 3 precisions: sha256 {first}")
        tie_free = max(1, count // 5)
        rng = random.Random(20212)
        second = digest(tie_free_text(rng, index) for index in range(tie_free))
        print(f"{tie_free} tie-free batteries of 193 to 5,000 rows, same calls: sha256 {second}")
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
