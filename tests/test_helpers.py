"""The seeded corpora of the shared builders: one seed draws the same
systems, relations and maps under every hash seed, so a failure seen under
one seed reproduces under any other."""

import os
import subprocess
import sys
from pathlib import Path

import fuzzts

# draws over states and pairs, printed in a form that shows their order
SCRIPT = """
import random, helpers
rng = random.Random(7)
for _ in range(20):
    f1 = helpers.random_fts(rng, rng.randint(2, 6), ["a"], prefix="s")
    f2 = helpers.random_fts(rng, rng.randint(2, 6), ["a"], prefix="t")
    r = helpers.random_relation(rng, f1, f2)
    sub = helpers.random_subrelation(rng, r, 0.6)
    print(r.sorted_pairs(), sub.sorted_pairs(), helpers.random_map(rng, f1, f2).items())
"""


def draws(hash_seed: str) -> str:
    paths = (str(Path(__file__).parent), str(Path(fuzzts.__file__).parent.parent))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(paths)}
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_seeded_draws_do_not_depend_on_the_hash_seed():
    first = draws("0")
    assert first.count("\n") == 20
    assert first == draws("12345")
