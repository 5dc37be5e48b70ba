"""Runs the end-to-end tour in scripts/showcase.py and compares its output,
timings stripped, with the pinned text below."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PINNED = r"""
== a small labeled matroid
bases: [['a', 'b'], ['a', 'c']]
valid: True | rank: 2 | fvector: [1, 2, 1]
circuits: [(3,), (1, 2)]
dual bases: [(1, 3), (2, 3)]

== linear matroid over the rationals
columns: ('(0, 0)', '(4, 2/3)', '(-1, 7)', '(6, 1)')
isomorphic to the small matroid via: (3, 1, 0, 2)

== cycle enumeration
GP(5,2): 57 cycles
K8: 8018 cycles

== graphic matroid of K5
spanning trees: 125
tutte: y^6 + 4y^5 + x^4 + 5x*y^3 + 10y^4 + 6x^3 + 10x^2*y + 15x*y^2 + 15y^3 + 11x^2 + 20x*y + 15y^2 + 6x + 6y
T(1,1), T(2,1), T(2,0): [125, 291, 120]
chromatic(K5): k(k - 1)(k - 2)(k - 3)(k - 4)

== minors of M(K5)
minor /{9} \{3,5,8} equals M(K4): True
has U(2,4) minor: False
has F7 minor: False
has F7* minor: False
M(K4) witness: contract (0,) delete (1, 2, 3)

== greedy optimization on the Fano matroid
selection order: [6, 5, 3]

== basis polytope of M(K4)
ambient: 6 | vertices: 16 | dim: 5

== Vamos matroid and its graded flat algebra
(n, #bases, rank, #flats): (8, 65, 4, 79)
presentation variables: 77
hilbert function: [1, 70, 70, 1]
"""


def test_showcase_output_is_pinned():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "showcase.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert re.sub(r" \(\d+\.\d+s\)", "", proc.stdout) == PINNED
