"""Draw the link corpus: self-realizing Seifert forms whose P has two or more
symmetric factors, and those whose P has a factor not fixed by X -> 1-X.

    python3 scripts/link_corpus.py [--out tests/data/link_forms.json]

Each draw takes, from ``random.Random(SEED)``, a lattice S of E8, E8 + H
and E8 + H + H (all of signature 8), then one of the value tuples
``STEPS``, and then each entry of an integer skew K above the diagonal
from that tuple; the form is A = half_form(S) + K.  A draw with det A = 0
is skipped.  A + A^T = S, so A realizes sig S = 8 and its own Milnor
assignment tau(A), and the true answer to both questions at m = 7 is
REALIZABLE.  Of the first ``FORMS`` nonsingular forms, the script keeps
every one whose report at sig S lists two or more distinct symmetric
irreducible factors of P (kind ``links``, with tau(A)), every one that is
OUT_OF_SCOPE for a factor of P not fixed by X -> 1-X (kind
``nonsymmetric``); a budget that refuses an analysis stops the script.
It writes them with the seed, the form count and the number of draws,
one hit per line.  tests/test_link_corpus.py checks the file, and
redraws its first forms with :func:`forms`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from knotsig import (  # noqa: E402
    VERDICT_OUT_OF_SCOPE,
    AnalysisRequest,
    alexander_of_form,
    analyze,
    block_diag,
    e8_gram,
    form_to_pair,
    half_form,
    milnor_signatures,
)
from knotsig.seifert import mat_det  # noqa: E402

SEED, FORMS, M, SIGNATURE = 0, 40_000, 7, 8
H = ((0, 1), (1, 0))
LATTICES = (
    ("E8", e8_gram()),
    ("E8+H", block_diag(e8_gram(), H)),
    ("E8+H+H", block_diag(block_diag(e8_gram(), H), H)),
)
STEPS = ((0, 0, 0, 1, -1), (0, 0, 1, -1, 2, -2), (0, 1, -1, 2, -2, 3, -3))
OUT = ROOT / "tests" / "data" / "link_forms.json"


def forms(count: int):
    """(draw, lattice name, A) for the first ``count`` nonsingular forms;
    ``draw`` counts from 1 and includes the singular draws skipped."""
    rng, draw, kept = random.Random(SEED), 0, 0
    while kept < count:
        name, gram = rng.choice(LATTICES)
        steps = rng.choice(STEPS)
        a = [list(row) for row in half_form(gram)]
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                k = rng.choice(steps)
                a[i][j] += k
                a[j][i] -= k
        draw += 1
        if mat_det(a) != 0:
            kept += 1
            yield draw, name, tuple(map(tuple, a))


def kind(a) -> str | None:
    """``links``, ``nonsymmetric`` or None (see above)."""
    report = analyze(AnalysisRequest(delta=alexander_of_form(a), m=M, signature=SIGNATURE))
    if report.verdict == VERDICT_OUT_OF_SCOPE and report.reason.endswith("of P is not fixed by X -> 1-X"):
        return "nonsymmetric"
    factors = (report.factors or {}).get("factors", [])
    return "links" if sum(f["symmetric"] for f in factors) >= 2 else None


def hits(count: int) -> tuple[int, list[dict]]:
    """The number of draws behind the first ``count`` nonsingular forms,
    and the record of every hit among them."""
    draws, out = 0, []
    for draws, name, a in forms(count):
        found = kind(a)
        if found is not None:
            hit = {"draw": draws, "lattice": name, "kind": found, "form": [list(row) for row in a]}
            if found == "links":
                pair = form_to_pair(a)
                hit["tau"] = list(milnor_signatures(pair.s, pair.a).values)
            out.append(hit)
    return draws, out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args(argv)
    draws, found = hits(FORMS)
    head = {"seed": SEED, "forms": FORMS, "draws": draws, "m": M, "signature": SIGNATURE}
    lines = [json.dumps(hit, separators=(",", ":")) for hit in found]
    text = json.dumps(head)[:-1] + ', "hits": [\n' + ",\n".join(lines) + "\n]}\n"
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text)
    counts = {k: sum(hit["kind"] == k for hit in found) for k in ("links", "nonsymmetric")}
    print(f"{FORMS} forms from {draws} draws: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
