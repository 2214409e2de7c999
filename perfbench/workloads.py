"""Workload inputs and answer checks.

Inputs are made from the workload seed before anything is timed; the
same seed gives the same inputs.  Every answer the program returns is
checked here, outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PAPER_DEGREES = tuple(range(10, 75, 5))
PAPER_MU_DIGITS = (4, 16, 32)
REFINE_DEGREES = (12, 16, 20, 24)
REFINE_PER_DEGREE = 8
REFINE_MU = 1024
SERVE_DEGREES = (2, 3, 4, 5, 6, 7, 8)
SERVE_DUPLICATES = 0.3
SERVE_MU = 16


@dataclass
class Instance:
    name: str
    coeffs: tuple[int, ...]
    mu: int


def paper_grid(seed: int, tiny: bool = False) -> list[Instance]:
    """Section 5's inputs: characteristic polynomials of random
    symmetric 0-1 matrices, degree 10..70 step 5, mu in 4/16/32 digits."""
    from repro.bench.workloads import square_free_characteristic_input
    from repro.core.scaling import digits_to_bits

    degrees = (10, 15) if tiny else PAPER_DEGREES
    out = []
    for n in degrees:
        poly = square_free_characteristic_input(n, seed).poly
        for md in PAPER_MU_DIGITS:
            out.append(Instance(f"n{n}-mu{md}d", poly.coeffs,
                                digits_to_bits(md)))
    return out


def refine_deep(seed: int, tiny: bool = False) -> list[Instance]:
    """Products of random real-rooted quadratics (irrational roots) at
    mu = 1024 bits, several per degree."""
    from repro.bench.workloads import random_real_rooted

    degrees = (12,) if tiny else REFINE_DEGREES
    per = 2 if tiny else REFINE_PER_DEGREE
    return [Instance(f"n{n}-s{k}",
                     random_real_rooted(n, seed * 1000 + k).coeffs,
                     REFINE_MU)
            for n in degrees for k in range(per)]


def serve_streams(seed: int, n: int) -> tuple[list[dict], list[dict]]:
    """Two request streams of ``n`` requests each, one per serve phase,
    from separate seeds so the second does not replay the first."""
    from repro.serve.loadtest import generate_requests

    streams = []
    for phase in (1, 2):
        reqs = generate_requests(n, 100 * seed + 50 * phase, SERVE_DEGREES,
                                 SERVE_DUPLICATES, SERVE_MU)
        streams.append([dict(r, id=f"p{phase}-{r['id']}") for r in reqs])
    return streams[0], streams[1]


def request_key(req: dict) -> str:
    from repro.resilience.checkpoint import poly_key

    return poly_key(req["coeffs"], req["bits"], req.get("strategy", "hybrid"))


def distinct_instances(requests: list[dict]) -> list[Instance]:
    """The distinct polynomials of a request stream, first-seen order,
    each named by its cache key."""
    seen, out = set(), []
    for r in requests:
        key = request_key(r)
        if key not in seen:
            seen.add(key)
            out.append(Instance(key, tuple(r["coeffs"]), r["bits"]))
    return out


@dataclass
class Tally:
    """Operations attempted and failed, and whether every returned
    answer was right."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, wrong: bool = False, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)
        if wrong:
            self.wrong += 1

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def certified_references(instances: list[Instance],
                         rows: list[dict], tally: Tally) -> list:
    """Reference answers, proven once.

    For each distinct polynomial the sequential answer at its highest
    mu is proven by ``certify_roots``; the answer at a lower mu follows
    exactly, since ``ceil(2**m x) = ceil(ceil(2**M x) / 2**(M-m))`` for
    ``m <= M``.  A failed proof leaves ``None`` (every answer for that
    polynomial then counts as wrong).
    """
    from repro.core.certify import CertificationError, certify_roots
    from repro.poly.dense import IntPoly

    top: dict[tuple, int] = {}
    for i, inst in enumerate(instances):
        j = top.get(inst.coeffs)
        if j is None or inst.mu > instances[j].mu:
            top[inst.coeffs] = i
    proven: dict[tuple, list[int] | None] = {}
    for coeffs, i in top.items():
        try:
            certify_roots(IntPoly(coeffs), rows[i]["seq"], rows[i]["mult"],
                          instances[i].mu)
            proven[coeffs] = rows[i]["seq"]
        except (CertificationError, ValueError) as exc:
            proven[coeffs] = None
            tally.notes.append(f"{instances[i].name}: not certified: {exc}")
    refs = []
    for inst in instances:
        base = proven[inst.coeffs]
        if base is None:
            refs.append(None)
            continue
        shift = instances[top[inst.coeffs]].mu - inst.mu
        refs.append([-((-s) >> shift) for s in base])
    return refs


def check_rows(instances: list[Instance], rows: list[dict], refs: list,
               tally: Tally) -> None:
    """Book every sequential and pool answer of one pass."""
    for inst, row, ref in zip(instances, rows, refs):
        seq_ok = ref is not None and row["seq"] == ref
        tally.op(seq_ok, wrong=not seq_ok, note=f"{inst.name}: seq answer")
        if row["error"] is not None:
            tally.op(False, note=f"{inst.name}: pool raised {row['error']}")
            continue
        pool_ok = ref is not None and row["pool"] == ref
        tally.op(pool_ok, wrong=not pool_ok,
                 note=f"{inst.name}: pool answer")
