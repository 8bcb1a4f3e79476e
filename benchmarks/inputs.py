"""Seeded inputs for the `search`, `cli` and `corpus` workloads.

A run's seed draws its inputs from fixed pools. The pools are built from
constant seeds, so the expected output of every pool entry is recorded
once in ``golden/`` and checked on every op, whatever seed a run uses.
The same seed always gives byte-identical inputs.

This module imports nothing from ``scribal``: the package receives only
the inputs made here.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from random import Random

FORMATS = ("text", "json", "csv")

# Pools are drawn once from this constant; run seeds only pick from them.
POOL_SEED = 12345

# -- search -----------------------------------------------------------------

SEARCH_POOL_SIZE = 1000
SEARCH_DRAWS = 200
# Policies the seeded draws run under, beside the table rows' "table".
DRAW_POLICIES = ("default", "greedy", "splitting")


def table_rows() -> list[Fraction]:
    # The odd 2/n rows for n = 3..177 under TABLE_POLICY. 2/179, the one
    # 4-term row, is left out: that single op took 5 s, three quarters of
    # a pass, and its time followed the host's speed over those seconds,
    # so the search figures spread past their bounds between runs. The
    # 4-term search still runs on the pool's 4-term values below.
    return [Fraction(2, n) for n in range(3, 178, 2)]


def search_pool() -> list[Fraction]:
    # b <= 300 keeps the cost seed-independent: with larger b, single draws
    # such as 5/751 take over 8 s. The 2/n family is left out because the
    # table rows measure it, and its 4-term members (2/179, 2/257, 2/281)
    # take seconds each, so drawing one would make the run length depend
    # on the seed.
    rng = Random(f"{POOL_SEED}:search")
    pool: set[Fraction] = set()
    while len(pool) < SEARCH_POOL_SIZE:
        b = rng.randint(2, 300)
        f = Fraction(rng.randint(1, b - 1), b)
        if f.numerator != 2:
            pool.add(f)
    return sorted(pool)


# The four pool values whose default search took 0.16 to 0.73 s each. Like
# 2/179, they are left out: an op that long cannot find a quiet moment of
# the host in any pass, and its best time spread 7 to 14% between runs
# where the rest of a pass together spread 3%.
SLOW_POOL_VALUES = frozenset({Fraction(8, 293), Fraction(6, 127), Fraction(12, 199), Fraction(15, 193)})


def needs_four_terms(recorded: str) -> bool:
    """Whether a recorded default decomposition of a value below 1 reached the 4-term level."""
    return recorded == "BoundsExceededError" or recorded.count("+") >= 3


def search_pass(seed: int, expected: dict[str, str]) -> list[tuple[str, Fraction]]:
    """One pass of (policy name, value) ops: every table row, then the pool values.

    `expected` is the recorded search output, which sorts the pool.
    """
    ops = [("table", f) for f in table_rows()]
    pool = search_pool()
    # The pool values that reach the 4-term level of the search run in every
    # pass. They are the slow ones, so the slowest ops, and with them the
    # tail latency, do not depend on the seed.
    heavy = [f for f in pool
             if needs_four_terms(expected[f"default:{f}"]) and f not in SLOW_POOL_VALUES]
    # The seed draws among the 1- to 3-term values, which take milliseconds at most.
    light = [f for f in pool if not needs_four_terms(expected[f"default:{f}"])]
    draws = Random(f"{seed}:search").sample(light, SEARCH_DRAWS)
    # Each value runs under the searching default and again under greedy and
    # splitting, the non-searching use of the same layer.
    ops += [(policy, f) for f in heavy + draws for policy in DRAW_POLICIES]
    return ops


# -- cli --------------------------------------------------------------------


def _frac(rng: Random, max_den: int) -> str:
    b = rng.randint(2, max_den)
    return str(Fraction(rng.randint(1, 3 * b), b))


def _cli_classes() -> dict[str, tuple[int, list[list[str]]]]:
    """Each class of argv: (picks per pass, pool). Every pick runs in all formats."""
    rng = Random(f"{POOL_SEED}:cli")
    campaign = Random(f"{POOL_SEED}:cli:campaign")
    size = range(12)
    triangles = []
    for _ in size:
        pts = [(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(3)]
        triangles.append(" ".join(f"{x},{y}" for x, y in pts))
    return {
        # Small values keep the search in the millisecond range; the
        # search itself is the `search` workload's subject.
        "decompose": (2, [["decompose", _frac(rng, 40)] for _ in size]),
        # The non-searching strategies, as a user picks them by name.
        "decompose-strategy": (2, [
            ["decompose", _frac(rng, 40), "--strategy", rng.choice(("greedy", "splitting"))]
            for _ in size
        ]),
        # The README's table command: 49 rows of 2- and 3-term search.
        "table2n": (1, [["table2n", "--max", "99"]]),
        # Four-digit factors put duplation_multiply on the path.
        "mul": (2, [["mul", str(rng.randint(1, 5000)), str(rng.randint(1, 5000))] for _ in size]),
        # Up to 20 men keeps each share's search to milliseconds.
        "loaves": (2, [["loaves", str(rng.randint(1, 12)), str(rng.randint(2, 20))] for _ in size]),
        # Sums as the given value exercise the '+' form of rational parsing.
        "sequem": (2, [
            ["sequem", "--given", f"1/2 + 1/{rng.randint(3, 40)}", "--target", str(rng.randint(1, 9)),
             "--mode", rng.choice(("additive", "multiplicative"))]
            for _ in size
        ]),
        # The algebraic solution of an aha problem, without a guess.
        "hau": (2, [
            ["hau", "--multiplier", f"1,1/{rng.randint(2, 12)}", "--target", str(rng.randint(1, 99))]
            for _ in size
        ]),
        # Every entry takes --guess, so false position runs beside the algebra on every seed.
        "hau-guess": (1, [
            ["hau", "--multiplier", f"1,1/{rng.randint(2, 12)}", "--target", str(rng.randint(1, 99)),
             "--guess", str(rng.randint(1, 12))]
            for _ in size
        ]),
        # Unit-fraction differences put rational parsing and arithmetic_shares on the path.
        "shares": (2, [
            ["shares", "--count", str(rng.randint(2, 10)), "--total", str(rng.randint(1, 100)),
             "--difference", f"1/{rng.randint(2, 16)}"]
            for _ in size
        ]),
        # Small bases and exponents keep geometric_ladder exact and quick.
        "ladder": (2, [["ladder", "--base", str(rng.randint(2, 9)), "--top", str(rng.randint(1, 8))]
                       for _ in size]),
        # One pool entry per rule the `area` command offers, rational dimensions included.
        "area": (2, [
            ["area", "--shape", "square", "--side", _frac(rng, 9)],
            ["area", "--shape", "rectangle", "--width", _frac(rng, 9), "--height", _frac(rng, 9)],
            ["area", "--shape", "triangle", "--base", _frac(rng, 9), "--height", _frac(rng, 9)],
            ["area", "--shape", "two-sides", "--s1", _frac(rng, 9), "--s2", _frac(rng, 9)],
            ["area", "--shape", "trapezoid", "--p1", _frac(rng, 9), "--p2", _frac(rng, 9),
             "--height", _frac(rng, 9)],
            ["area", "--shape", "triangle", "--base", str(rng.randint(1, 99)), "--height", str(rng.randint(1, 99))],
        ]),
        # Rational diameters exercise the 8/9 rule with parsing.
        "circle": (2, [["circle", "--diameter", _frac(rng, 9)] for _ in size]),
        # The error report alone, with and without a digit count.
        "pi-error": (1, [["pi-error"], ["pi-error", "--digits", str(rng.randint(5, 40))]]),
        # Every entry takes --compare, so pi_comparison_set runs on every seed.
        "pi-compare": (1, [
            ["pi-error", "--compare"], ["pi-error", "--compare", "--digits", str(rng.randint(5, 40))],
        ]),
        # Sides and coordinates grade single figures; coordinates put the
        # shoelace oracle and the certified square roots on the path. Some
        # random triangles are degenerate, and the rejection is expected.
        "edfu": (2, [
            ["edfu", "--sides", ",".join(str(rng.randint(1, 30)) for _ in range(4))] for _ in range(6)
        ] + [["edfu", "--coords", t] for t in triangles]),
        # Seeded over-estimation campaigns: the certified-sqrt work that
        # dominates the command's cost. Campaigns of different seeds differ
        # in cost by up to a third, so every run uses these four, and
        # ops_per_s does not depend on the run's seed. At 10 figures one
        # takes about three times a cheap command, so its 12 ops are the
        # slowest of a pass and the tail (10 ops beyond it) falls on them;
        # otherwise it fell on whichever cheap op had not found a quiet
        # moment of the host. One campaign of 400 figures took 0.3 s per op,
        # two thirds of a pass, and its best times moved with the host.
        "edfu-campaign": (4, [["edfu", "--random", "10", "--seed", str(campaign.randint(0, 9999))]
                              for _ in range(4)]),
        # Each pair of the three quantities, so all three solve directions run.
        "seked": (2, [
            argv
            for _ in range(4)
            for argv in (
                ["seked", "--base", str(rng.randint(10, 400)), "--height", str(rng.randint(10, 300))],
                ["seked", "--base", str(rng.randint(10, 400)), "--seked", _frac(rng, 9)],
                ["seked", "--height", str(rng.randint(10, 300)), "--seked", _frac(rng, 9)],
            )
        ]),
        # Zero-length shadows are in range and must still answer.
        "shadow": (2, [
            ["shadow", "--shadow", str(rng.randint(0, 200)), "--stick", str(rng.randint(1, 9)),
             "--stick-shadow", str(rng.randint(1, 9))]
            for _ in size
        ]),
        # Rational floor areas exercise the volume rule with parsing.
        "granary": (2, [["granary", "--floor-area", _frac(rng, 81), "--length", str(rng.randint(1, 20))]
                        for _ in size]),
        # Limits up to 200 keep the enumeration to milliseconds.
        "triples": (2, [["triples", "--limit", str(rng.randint(12, 200))] for _ in size]),
        # The bundled starter corpus, as `scribal corpus` replays it.
        "corpus": (1, [["corpus"]]),
        # Value-rejected inputs and usage errors: the exit code and the
        # one-line diagnostic are part of the expected output.
        "rejected": (2, [
            ["loaves", "6", "0"],
            ["hau", "--multiplier", "1,-1", "--target", "3"],
            ["circle", "--diameter", "0"],
            ["area", "--shape", "square"],
            ["seked", "--base", "3"],
            ["decompose", "1/0"],
        ]),
    }


def cli_key(argv: list[str]) -> str:
    return json.dumps(argv)


def cli_pool() -> list[list[str]]:
    """Every argv any seed can draw, in every format."""
    return [
        argv + ["--format", fmt]
        for _, pool in _cli_classes().values()
        for argv in pool
        for fmt in FORMATS
    ]


def cli_pass(seed: int) -> list[list[str]]:
    rng = Random(f"{seed}:cli")
    ops = []
    for picks, pool in _cli_classes().values():
        for argv in rng.sample(pool, picks):
            ops += [argv + ["--format", fmt] for fmt in FORMATS]
    return ops


# -- corpus -----------------------------------------------------------------

# (id, category, inputs, recorded answer) of the bundled starter corpus,
# copied so that an edit to the bundled file does not change these inputs.
STARTER = (
    ("area-circle-d9", "area", {"shape": "circle", "diameter": "9"}, "64"),
    ("area-triangle-4-3", "area", {"shape": "triangle", "base": "4", "height": "3"}, None),
    ("hau-seventh-19", "hau", {"multiplier": ["1", "1/7"], "target": "19"}, "16 + 1/2 + 1/8"),
    ("hau-seventh-19-miscopy", "hau", {"multiplier": ["1", "1/7"], "target": "19"}, "16"),
    ("ladder-of-seven", "ladder", {"base": 7, "top_exponent": 5}, "19607"),
    ("loaves-6-among-10", "loaf_division", {"loaves": 6, "men": 10}, "1/2 + 1/10"),
    ("progression-four-shares", "progression",
     {"term_count": 4, "first_term": "2", "difference": "2"}, "20"),
    ("seked-360-250", "seked", {"base": "360", "height": "250"}, "5 + 1/25"),
    ("sequem-complete-to-one", "sequem",
     {"given": "2/3 + 1/30", "target": "1", "mode": "additive"}, "1/4 + 1/20"),
    ("tunnu-ten-shares", "tunnu", {"term_count": 10, "total": "10", "difference": "1/8"},
     "1/4 + 1/8 + 1/16"),
    ("two-over-n-5", "two_over_n", {"n": 5}, "1/3 + 1/15"),
    ("volume-granary-8-10", "volume", {"floor_area": "64", "length": "10"}, "640"),
)

# Inputs of the right kinds that the engine rejects by value, so the
# problem loads and then replays to an engine_error verdict.
REJECTED = {
    "area": {"shape": "circle", "diameter": "0"},
    "hau": {"multiplier": ["1", "-1"], "target": "19"},
    "ladder": {"base": 0, "top_exponent": 5},
    "loaf_division": {"loaves": 6, "men": 0},
    "seked": {"base": "360", "height": "0"},
    "volume": {"floor_area": "0", "length": "10"},
}


def _varied(rng: Random, category: str, inputs: dict) -> tuple[dict, Fraction]:
    """New inputs for a starter problem and their exact answer."""
    r = rng.randint
    if category == "area" and inputs["shape"] == "circle":
        d = r(1, 40)
        return {"shape": "circle", "diameter": str(d)}, (Fraction(8, 9) * d) ** 2
    if category == "area":
        b, h = r(1, 40), r(1, 40)
        return {"shape": "triangle", "base": str(b), "height": str(h)}, Fraction(b * h, 2)
    if category == "hau":
        k, t = r(2, 12), r(1, 99)
        return {"multiplier": ["1", f"1/{k}"], "target": str(t)}, t / (1 + Fraction(1, k))
    if category == "ladder":
        b, e = r(2, 9), r(1, 6)
        return {"base": b, "top_exponent": e}, Fraction(sum(b**i for i in range(1, e + 1)))
    if category == "loaf_division":
        # few men keep each share a millisecond search
        loaves, men = r(1, 12), r(2, 16)
        return {"loaves": loaves, "men": men}, Fraction(loaves, men)
    if category == "progression":
        n, a, d = r(2, 10), r(1, 9), r(1, 5)
        return ({"term_count": n, "first_term": str(a), "difference": str(d)},
                Fraction(n * a + n * (n - 1) // 2 * d))
    if category == "seked":
        b, h = r(10, 400), r(10, 300)
        return {"base": str(b), "height": str(h)}, Fraction(7 * b, 2 * h)
    if category == "sequem":
        k, t = r(3, 60), r(1, 3)
        return ({"given": f"1/2 + 1/{k}", "target": str(t), "mode": "additive"},
                t - Fraction(1, 2) - Fraction(1, k))
    if category == "tunnu":
        n, t, k = r(2, 10), r(1, 100), r(2, 16)
        return ({"term_count": n, "total": str(t), "difference": f"1/{k}"},
                Fraction(t, n) - Fraction(n - 1, 2) * Fraction(1, k))
    if category == "two_over_n":
        # n <= 99 keeps every row a 2- or 3-term search of a millisecond at most
        n = rng.randrange(3, 100, 2)
        return {"n": n}, Fraction(2, n)
    if category == "volume":
        f, length = r(1, 100), r(1, 20)
        return {"floor_area": str(f), "length": str(length)}, Fraction(f * length)
    raise ValueError(f"no variation for category {category!r}")


def corpus_document(size: int, variant: int) -> str:
    """A corpus of `size` problems built from the starter corpus.

    Problem j copies starter problem j mod 12 under the id suffix -jjjjj.
    The first 12 are exact copies and the next 12 carry value-rejected
    inputs where the category has them, so every file of 24 problems or
    more holds all four verdicts. After that, 40% stay exact copies, whose
    repeated inputs are where memoisation would show; the rest get seeded
    inputs with the right answer (70%), a miscopied one (15%) or none.
    """
    rng = Random(f"{POOL_SEED}:corpus:{size}:{variant}")
    problems = []
    for j in range(size):
        pid, category, inputs, answer = STARTER[j % len(STARTER)]
        block = j // len(STARTER)
        if block == 1 and category in REJECTED:
            inputs = REJECTED[category]
        elif block >= 2 and rng.random() >= 0.4:
            inputs, value = _varied(rng, category, inputs)
            u = rng.random()
            if u < 0.7:
                answer = str(value)
            elif u < 0.85:
                answer = str(value + Fraction(1, rng.randint(2, 9)))
            else:
                answer = None
        problem = {"id": f"{pid}-{j:05d}", "category": category, "inputs": inputs}
        if answer is not None:
            problem["scribal_answer"] = answer
        problems.append(problem)
    return json.dumps({"problems": problems}, indent=1) + "\n"


# Tens to thousands of problems: the small files are dominated by the
# command's fixed cost, the large ones by load, replay and render.
CORPUS_SIZES = (36, 360, 1200)
CORPUS_VARIANTS = 16
# Seeded variants of each size per pass, each run in all three formats: a
# pass is 15 + 12 + 12 ops. The median op then falls in the middle of the
# 360-problem ops, and the tail (10 ops beyond it per pass) among the
# 1200-problem ops, not among the 360-problem ones. The largest files were
# 2400 problems, seven of them: at 1200 problems and four files an op
# takes about 60 ms and a pass about 1 s, so a run holds some 40 passes
# in which to find each op's best time.
CORPUS_FILES_PER_SIZE = {36: 5, 360: 4, 1200: 4}


def corpus_key(size: int, variant: int, fmt: str) -> str:
    return f"corpus-{size}-v{variant}:{fmt}"


def write_corpus_files(directory: str, files: list[tuple[int, int]]) -> dict[tuple[int, int], str]:
    """Write one corpus file per (size, variant); return their paths."""
    paths = {}
    for size, variant in files:
        path = os.path.join(directory, f"corpus-{size}-v{variant}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(corpus_document(size, variant))
        paths[size, variant] = path
    return paths


def corpus_files(seed: int) -> list[tuple[int, int]]:
    """The (size, variant) files of one seed."""
    rng = Random(f"{seed}:corpus")
    return [(size, variant) for size in CORPUS_SIZES
            for variant in sorted(rng.sample(range(CORPUS_VARIANTS), CORPUS_FILES_PER_SIZE[size]))]


def corpus_pass(paths: dict[tuple[int, int], str]) -> list[tuple[str, list[str]]]:
    """One pass of (golden key, argv): every file in every format, formats rotating."""
    return [
        (corpus_key(size, variant, fmt), ["corpus", path, "--format", fmt])
        for fmt in FORMATS
        for (size, variant), path in paths.items()
    ]
