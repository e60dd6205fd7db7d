"""Seeded rounds of the two workloads and the independent answer checks.

A round is a corpus of a fixed composition drawn from
`random.Random("<workload>:<seed>:<round>")`.  `prepare` runs first in the
round's timed window (shared check points); each item is then computed
and checked, and the pair is one timed item.  The program receives only
the generated inputs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
from pathlib import Path

from obidet import (
    GO,
    ON,
    QQ,
    Tableau,
    on_straighten,
    random_go_point,
    standard_points,
)
from obidet.cli import main as cli_main
from obidet.polyring import eval_bideterminant, rational
from obidet.tableaux import _letters, conjugate


class WrongAnswer(AssertionError):
    """An output that fails its independent check."""


class Refused(Exception):
    """A suite the program declined to run (exit code 4)."""


class Item:
    """One timed operation: `compute` the answer, then `check` it."""

    def __init__(self, label: str, compute, check):
        self.label = label
        self.compute = compute
        self.check = check


class Round:
    def __init__(self, prepare, items: list[Item]):
        self.prepare = prepare
        self.items = items


def make_round(workload: str, seed: int, index: int, params: dict) -> Round:
    rng = random.Random(f"{workload}:{seed}:{index}")
    return {
        "straighten_deep": _deep_round,
        "certify_basis": _certify_round,
    }[workload](rng, params)


# -- inputs --------------------------------------------------------------------

def _mode(name: str) -> str:
    return {"ON": ON, "GO": GO}[name]


def random_pair(rng: random.Random, shape, n: int) -> tuple[Tableau, Tableau]:
    """A same-shape pair of column-increasing tableaux over the size-n alphabet."""
    letters = _letters(n)

    def tableau():
        return Tableau.from_columns(
            [sorted(rng.sample(letters, k), key=lambda x: x.key) for k in conjugate(shape)])

    return tableau(), tableau()


def _go_scale(rng: random.Random):
    """A similitude scale c with c != 0, 1, -1, so gamma != 1 for every n."""
    while True:
        c = rational(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 4))
        if c not in (0, 1, -1):
            return c


def _go_points(rng: random.Random, n: int, count: int) -> list:
    return [random_go_point(n, rng.randrange(1 << 30), _go_scale(rng)) for _ in range(count)]


def _label(s: Tableau, t: Tableau, mode: str, n: int) -> str:
    return f"n={n} mode={mode} [{s.format()} : {t.format()}]"


# -- checks --------------------------------------------------------------------

def check_expansion(s: Tableau, t: Tableau, mode: str, out, points) -> str:
    """The output must equal the input bideterminant at every exact point.

    GO points carry gamma != 1, so the gamma powers of the output are
    tested; the grading 2 * gamma_pow + |shape| = |input| is checked too.
    """
    for term in out:
        degree = 2 * term.gamma_pow + term.left.size
        if (mode == GO and degree != s.size) or (mode == ON and term.gamma_pow):
            raise WrongAnswer("output term breaks the gamma grading")
    for p in points:
        if mode == GO and p.gamma_value == 1:
            raise WrongAnswer("similitude check point has gamma = 1")
        if eval_bideterminant(s, t, p) != out.evaluate(p, p.gamma_value):
            raise WrongAnswer("output differs from the input at an exact group point")
    return out.certificate()


_RANK_LINE = re.compile(r"^independence rank=(\d+) expected=(\d+)$")


def check_suite(text: str, expected: int) -> str:
    """PASS, and rank = expected = the known basis size on both batches."""
    lines = text.strip().splitlines()
    ranks = [tuple(map(int, m.groups())) for m in map(_RANK_LINE.match, lines) if m]
    if lines[-1:] != ["PASS"] or len(ranks) != 2 or any(r != (expected, expected) for r in ranks):
        raise WrongAnswer(f"suite report is not a PASS with rank {expected} twice")
    return text


# -- straighten_deep -----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _deep_bands(max_steps: int, bands: int) -> list[list[tuple]]:
    """The pool's pairs needing at most max_steps steps, cut into cost bands.

    The pool is sorted by step count; a band closes once its steps reach
    1/bands of the total, so each of the heaviest pairs is a band of its own.
    """
    pool = json.loads((Path(__file__).resolve().parent / "deep_corpus.json").read_text())
    kept = [e for e in pool["kept"] if e["steps"] <= max_steps]
    share = sum(e["steps"] + 1 for e in kept) / bands
    out, band, cost = [], [], 0
    for e in kept:
        band.append((e["n"], _mode(e["mode"]), Tableau.parse(e["left"]),
                     Tableau.parse(e["right"])))
        cost += e["steps"] + 1
        if cost >= share:
            out.append(band)
            band, cost = [], 0
    return out + [band] if band else out


def _deep_round(rng: random.Random, p: dict) -> Round:
    """One pair from each cost band of the fixed pool, so rounds cost alike."""
    draws = [rng.choice(band) for band in _deep_bands(p["max_steps"], p["bands"])]
    point_seeds = {(n, mode): rng.randrange(1 << 30) for n, mode, _, _ in draws}
    points: dict = {}

    def prepare():
        k = p["points_per_mode"]
        for (n, mode), pseed in point_seeds.items():
            if mode == ON:
                points[n, mode] = standard_points(n, k, seed=pseed)
            else:
                points[n, mode] = _go_points(random.Random(pseed), n, k)

    def item(n, mode, s, t):
        return Item(
            _label(s, t, mode, n),
            lambda: on_straighten(s, t, mode, n, QQ, fuel=p["fuel"]),
            lambda out: check_expansion(s, t, mode, out, points[n, mode]))

    return Round(prepare, [item(*d) for d in draws])


# -- certify_basis -------------------------------------------------------------

def _certify_round(rng: random.Random, p: dict) -> Round:
    items = []
    for suite in p["suites"]:
        argv = ["verify", "--n", str(suite["n"]), "--degree", str(suite["degree"]),
                "--mode", suite["mode"], "--coeff", suite["coeff"],
                "--seed", str(rng.randrange(1 << 20))]
        items.append(Item(" ".join(argv), _cli_call(argv),
                          lambda text, e=suite["expected"]: check_suite(text, e)))
    return Round(lambda: None, items)


def _cli_call(argv: list[str]):
    def call() -> str:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(argv)
        if code == 4:
            raise Refused(buffer.getvalue().strip())
        if code not in (0, 3):
            raise RuntimeError(f"obidet exited with code {code}")
        return buffer.getvalue()

    return call
