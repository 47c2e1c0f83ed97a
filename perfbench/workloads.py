"""Inputs, items and answers of the three benchmark workloads.

Each workload has one fixed item set.  A run is a fixed number of whole
passes over that set (``PASSES``, for a run of RUN_SECONDS; other lengths
scale it), and the seed shuffles the order of every pass.  So every run
measures the same items, each as often as every other.

- ``sweep``: the full profile of one class (gonality, Clifford index,
  W^1_d prediction, cohomology).  The classes are a natural sample of
  random ample classes, drawn by :func:`sample_ample` from POOL_SEED, and
  the smallest members of the paper's families a*E1 + b*E2 (+E3).
- ``destab``: ``enumerate_destab(L, d)`` for every class L in
  DESTAB_CLASSES and every admissible d.
- ``cli``: one fresh interpreter running ``enriques_bn.cli`` as
  ``python -m`` does (through cli_child.py), for each README command.

Library calls go through attribute lookups on the ``enriques_bn`` package
at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Whole passes over the item set in a run of RUN_SECONDS.  A pass takes
# about 15 s (sweep), 15 s (destab) and 5 s (cli) of corrected item time.
# More passes steady the median and the tail where they fall between items
# of unlike cost: the destab median between the f+8g and f+10g items, the
# cli tail between the 0.3 s commands and the three slow ones.
RUN_SECONDS = 20
PASSES = {"sweep": 1, "destab": 2, "cli": 4}

# Random ample classes: coordinates uniform in [-SPREAD, SPREAD], with
# 0 < L^2 <= MAX_SQUARE, taken as they come (about 40% have L^2 = 2, 26%
# L^2 = 4, 18% L^2 = 6, the rest 8 to 16).
SPREAD = 3
MAX_SQUARE = 40
POOL_SEED = 20130722
RANDOM_CLASSES = 16
SAMPLER_MAX_ATTEMPTS = 2_000_000

# (configuration, coefficient vectors): the small members of each family;
# ii:2 holds n(E1+E2) for n = 1, 2, 3, which reach decompose_isotropic.
# Larger members get slow: 3*E1+2*E2+E3 on iii:3 (L^2 = 40) takes about
# 70 s in predict_w1d.
FAMILIES = {
    "fam-i": ("i:2", [(a, b) for a in range(1, 3) for b in range(a, 6) if a * b <= 8]),
    "fam-ii": ("ii:2", [(n, n) for n in (1, 2, 3)] + [(1, b) for b in range(2, 7)]),
    "fam-iii": ("iii:3", [(a, b, 1) for a in (1, 2) for b in (1, 2)]),
}

# label: f/g coordinates, or a symbolic class over a configuration.
DESTAB_CLASSES = {
    "f+6g": (1, 6),
    "f+8g": (1, 8),
    "f+10g": (1, 10),
    "2f+5g": (2, 5),
    "3f+4g": (3, 4),
    "2E1+4E2@i:2": ("i:2", (2, 4)),
}

# The README commands.
CLI_COMMANDS = (
    ("lattice", "--print-gram"),
    ("lattice",),
    ("cohomology", "--class", '{"coords":[2,0,0,0,0,0,0,0,0,0],"torsion":0}'),
    ("invariants", "--class", "3*E1+3*E2", "--config", "two:2"),
    ("invariants", "--class", "3*E1+3*E2", "--config", "two:2", "--mu-cap", "12"),
    ("invariants", "--class", '{"coords":[3,1,0,0,0,0,0,0,0,0],"torsion":0}', "--mu-cap", "12"),
    ("predict", "--class", "2*E1+4*E2", "--config", "i:2"),
    ("predict", "--class", "2*E1+4*E2", "--config", "i:2", "--tsv"),
    ("predict", "--class", "3*E1+3*E2", "--config", "two:2"),
    ("destab", "--class", "2*E1+4*E2", "--config", "i:2", "--d", "5", "--audit"),
    ("example51", "--n", "3"),
    ("example51", "--n", "5"),
    ("decompose", "--class", "3*E1+3*E2", "--config", "two:2"),
    ("decompose", "--class", "2*E1+3*E2+E3", "--config", "iii:3"),
    ("selftest", "--seed", "0"),
)


@dataclass(frozen=True)
class Item:
    group: str  # the family, destab class or CLI command, for the report
    key: str  # names the golden answer
    payload: object  # what the item function needs


class SamplerExhausted(RuntimeError):
    pass


class StaleGolden(RuntimeError):
    pass


def sample_ample(rng: random.Random, count: int, form) -> list[tuple[int, ...]]:
    """``count`` distinct ample classes by rejection sampling, in draw order.

    Gives up with :class:`SamplerExhausted` after SAMPLER_MAX_ATTEMPTS
    draws instead of looping forever on a box that cannot fill the count.
    """
    from enriques_bn.lattice import NumClass

    got: list[tuple[int, ...]] = []
    for _ in range(SAMPLER_MAX_ATTEMPTS):
        if len(got) == count:
            return got
        coords = tuple(rng.randint(-SPREAD, SPREAD) for _ in range(form.rank))
        if coords[0] + coords[1] <= 0 or coords in got:
            continue  # on an unnodal surface, ample is L^2 > 0 and L.(f+g) > 0
        if 0 < NumClass(coords, form).square <= MAX_SQUARE:
            got.append(coords)
    raise SamplerExhausted(
        f"sampler gave up after {SAMPLER_MAX_ATTEMPTS} draws with {len(got)} of {count} classes"
    )


def random_sample(form) -> list[tuple[int, ...]]:
    """The sweep's random classes."""
    return sample_ample(random.Random(POOL_SEED), RANDOM_CLASSES, form)


def square_histogram(squares) -> dict[str, int]:
    return {str(sq): n for sq, n in sorted(Counter(squares).items())}


# ---------------------------------------------------------------------------
# Building the item lists.
# ---------------------------------------------------------------------------


class Embeddings:
    """Configuration embeddings, computed once per configuration name."""

    def __init__(self):
        self._done: dict[str, list] = {}

    def __call__(self, name: str) -> list:
        import enriques_bn.cli as cli
        import enriques_bn as eb

        if name not in self._done:
            self._done[name] = eb.embed_configuration(cli.parse_configuration(name))
        return self._done[name]


def class_from_spec(spec: dict, embed: Embeddings):
    import enriques_bn as eb

    form = eb.canonical_form()
    if "coords" in spec:
        return eb.DivisorClass(eb.NumClass(tuple(spec["coords"]), form), 0)
    gens = embed(spec["config"])
    total = eb.NumClass((0,) * form.rank, form)
    for c, e in zip(spec["coeffs"], gens):
        total = total + c * e
    return eb.DivisorClass(total, 0)


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def build_items(workload: str, golden: dict) -> list[Item]:
    """The workload's item set, in recorded order.

    For sweep this draws the random classes again and refuses to go on if
    they are not the recorded ones.  It builds the classes, so it embeds
    the configurations the inputs need.
    """
    if workload == "sweep":
        import enriques_bn as eb

        drawn = [list(c) for c in random_sample(eb.canonical_form())]
        recorded = [rec["class"]["coords"] for rec in golden["sweep"] if rec["group"] == "random"]
        if drawn != recorded:
            raise StaleGolden("the sampler no longer draws the classes in golden.json")
    embed = Embeddings()
    out = []
    for rec in golden[workload]:
        if workload == "sweep":
            payload = class_from_spec(rec["class"], embed)
        elif workload == "destab":
            payload = (class_from_spec(rec["class"], embed), rec["d"])
        else:
            payload = tuple(rec["argv"])
        out.append(Item(rec["group"], rec["key"], payload))
    return out


def passes(items: list[Item], seed: int):
    """Endless passes over the whole item set, each in an order the seed fixes."""
    rng = random.Random(seed)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


# ---------------------------------------------------------------------------
# Answers: the JSON-comparable result of one item.
# ---------------------------------------------------------------------------


def _cls(d) -> list:
    return [list(d.num.coords), d.torsion]


def sweep_answer(L) -> dict:
    """The full profile of one class, as the golden record holds it."""
    import enriques_bn as eb

    rep = eb.gonality(L)
    try:
        cliff, convention = eb.clifford_generic(L), False
    except eb.GenusTooSmallError as ex:
        cliff, convention = ex.convention_value, True
    pred = eb.predict_w1d(L)
    h = eb.cohomology(L)
    return {
        "phi": rep.phi.value,
        "phi_witness": _cls(rep.phi.witness),
        "mu": [rep.mu.status, rep.mu.value, rep.mu.cap,
               _cls(rep.mu.witness) if rep.mu.witness else None],
        "k": rep.k,
        "case": rep.case_label,
        "floor": rep.floor_term,
        "genus": rep.genus,
        "clifford": [cliff, convention],
        "predict": [pred.status, pred.k, pred.genus, [list(r) for r in pred.rows],
                    pred.reason, pred.infinite_pencil, list(pred.notes)],
        "h": [h.h0, h.h1, h.h2, h.chi],
    }


def destab_answer(L, d: int) -> list:
    import enriques_bn as eb

    return [
        [_cls(c.M), _cls(c.N), c.d, c.mn, c.ell, c.checklist.as_dict()]
        for c in eb.enumerate_destab(L, d)
    ]


def canonical(answer) -> object:
    """The answer as it reads after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(answer))
