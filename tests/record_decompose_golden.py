"""Record the decomposition golden file, tests/golden/decompose.json.

    PYTHONPATH=src python tests/record_decompose_golden.py

Two families are recorded, each as the rendered decomposition or the
string "BoundsExceededError":

* ``table``: 2/n for odd n = 3..299 under ``TABLE_POLICY``;
* ``campaign``: the 1000 seed-2024 values of
  ``test_arith.py::test_shortest_thousand_random_exact_or_bounded``
  under ``DEFAULT_POLICY``, in draw order.

Any change to the exhaustive search must leave this file unchanged, so
record it only from a commit whose answers are trusted.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from scribal.arith import DEFAULT_POLICY, TABLE_POLICY, BoundsExceededError, decompose

GOLDEN = Path(__file__).with_name("golden") / "decompose.json"
TABLE_ROWS = range(3, 300, 2)


def campaign_values() -> list[Fraction]:
    rng = random.Random(2024)
    return [Fraction(rng.randint(1, 1000), rng.randint(1, 1000)) for _ in range(1000)]


def rendered(value: Fraction, policy) -> str:
    try:
        return decompose(value, policy).render()
    except BoundsExceededError:
        return "BoundsExceededError"


def main() -> None:
    golden = {
        "table": {str(n): rendered(Fraction(2, n), TABLE_POLICY) for n in TABLE_ROWS},
        "campaign": [[str(v), rendered(v, DEFAULT_POLICY)] for v in campaign_values()],
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
