"""Record the decomposition golden file, tests/golden/decompose.json.

    PYTHONPATH=src python tests/record_decompose_golden.py

Four families are recorded, each as the rendered decomposition or the
string "BoundsExceededError":

* ``table``: 2/n for odd n = 3..299 under ``TABLE_POLICY``;
* ``campaign``: the 1000 seed-2024 values of
  ``test_arith.py::test_shortest_thousand_random_exact_or_bounded``
  under ``DEFAULT_POLICY``, in draw order;
* ``prime_power``: the denominators that hold a prime power q = p**e
  with p*q > max_denominator, the class the three-term split reaches
  through q. Its ``table`` holds 2/n for odd n = 301..999 under
  ``TABLE_POLICY`` (among them 841 = 29*29 and 961 = 31*31); its
  ``draws`` hold the ``PRIME_POWER_DRAWS`` values of
  ``prime_power_draws``, each with the policy it ran under;
* ``next_power``: the ``NEXT_POWER_DRAWS`` values of ``next_power_draws``,
  whose denominators hold 17**2, 19**2 or 3**7 at the default
  max_denominator M = 10**4, where p*q <= M < 3*p*q lets a term hold
  one more p than b does, each with the policy it ran under.

Any change to the exhaustive search must leave this file unchanged, so
record it only from a commit whose answers are trusted.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from scribal.arith import DEFAULT_POLICY, TABLE_POLICY, BoundsExceededError, DecompositionPolicy, decompose

GOLDEN = Path(__file__).with_name("golden") / "decompose.json"
TABLE_ROWS = range(3, 300, 2)
PRIME_POWER_ROWS = range(301, 1000, 2)
PRIME_POWER_DRAWS = 200
NEXT_POWERS = ((17, 2), (19, 2), (3, 7))
NEXT_POWER_DRAWS = 72


def campaign_values() -> list[Fraction]:
    rng = random.Random(2024)
    return [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(1000)]


def prime_power_draws() -> list[tuple[Fraction, DecompositionPolicy]]:
    """Seed-2024 values a/b with b = p**e * s and p**e <= M < p**(e+1).

    M = max_denominator is uniform on 50..10**4, p a uniform prime up to
    isqrt(M), e the largest exponent with p**e <= M (so e >= 2), s
    uniform on 1..30 and moved off the multiples of p, and a uniform on
    1..min(b - 1, 100) and moved up to the next value coprime to b. Draw
    i runs at 3 + i % 2 terms with the 2/3 primitive on for even i // 2,
    so the four pairs of term count and 2/3 take 50 draws each.
    """
    rng = random.Random(2024)
    draws = []
    for i in range(PRIME_POWER_DRAWS):
        max_den = rng.randint(50, 10**4)
        primes = [p for p in range(2, math.isqrt(max_den) + 1) if all(p % r for r in range(2, math.isqrt(p) + 1))]
        p = rng.choice(primes)
        e = 2
        while p ** (e + 1) <= max_den:
            e += 1
        s = rng.randint(1, 30)
        if s % p == 0:
            s += 1
        b = p**e * s
        a = rng.randint(1, min(b - 1, 100))
        while math.gcd(a, b) > 1:
            a += 1
        policy = DecompositionPolicy(max_terms=3 + i % 2, max_denominator=max_den, allow_two_thirds=i // 2 % 2 == 0)
        draws.append((Fraction(a, b), policy))
    return draws


def next_power_draws() -> list[tuple[Fraction, DecompositionPolicy]]:
    """Seed-2024 values a/b with b = q * s for q = p**e in NEXT_POWERS.

    Draw i takes q from NEXT_POWERS in turn, s uniform on 1..30 and moved
    off the multiples of p, and a uniform on 1..min(b - 1, 100) and moved
    up to the next value coprime to b. It runs at max_denominator 10**4
    and 3 + i // 3 % 2 terms, with the 2/3 primitive on for even i // 6,
    so each q meets the four pairs of term count and 2/3 six times.
    """
    rng = random.Random(2024)
    draws = []
    for i in range(NEXT_POWER_DRAWS):
        p, e = NEXT_POWERS[i % 3]
        s = rng.randint(1, 30)
        if s % p == 0:
            s += 1
        b = p**e * s
        a = rng.randint(1, min(b - 1, 100))
        while math.gcd(a, b) > 1:
            a += 1
        policy = DecompositionPolicy(max_terms=3 + i // 3 % 2, allow_two_thirds=i // 6 % 2 == 0)
        draws.append((Fraction(a, b), policy))
    return draws


def rendered(value: Fraction, policy) -> str:
    try:
        return decompose(value, policy).render()
    except BoundsExceededError:
        return "BoundsExceededError"


def main() -> None:
    golden = {
        "table": {str(n): rendered(Fraction(2, n), TABLE_POLICY) for n in TABLE_ROWS},
        "campaign": [[str(v), rendered(v, DEFAULT_POLICY)] for v in campaign_values()],
        "prime_power": {
            "table": {str(n): rendered(Fraction(2, n), TABLE_POLICY) for n in PRIME_POWER_ROWS},
            "draws": [
                [str(v), policy.max_terms, policy.max_denominator, policy.allow_two_thirds, rendered(v, policy)]
                for v, policy in prime_power_draws()
            ],
        },
        "next_power": [
            [str(v), policy.max_terms, policy.max_denominator, policy.allow_two_thirds, rendered(v, policy)]
            for v, policy in next_power_draws()
        ],
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
