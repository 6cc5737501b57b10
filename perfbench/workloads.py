"""The workloads: their inputs, the timed operations and their checks.

A workload is an endless sequence of blocks. On measure-analysis the seed
draws each block's inputs, in fixed strata. On the other workloads every
block is the same operations on the same screened inputs, in the same
order, whatever the seed: an operation's time depends on the one run before
it, so a seeded order would only add spread. Runs stop only at block
boundaries, so each run sees the same mix however fast the program is.

The inputs of theorem0-sweep and measure-certs are screened, and so are the
fixtures of validate-bulk. Each slot of a block (degree n, eps, component or
atom counts, certificate kind, how far K is moved) draws candidate inputs,
with the seed of their fresh check trials, from a fixed seed; make_pool.py
runs and checks each candidate once and records in fixtures/pool.json the
first that passes and every one that failed, with why. Inputs, library and
checks are all deterministic, so a screened operation passes on every run,
and the benchmark's workloads have no failing operation. The rejected
candidates form the known-failures workload, which is not in BENCHMARK.json:
it reproduces the library's baseline failures.

Each operation calls polybound through module attributes (bounds.x, not a
name bound at import time), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from polybound import bounds, children, measure, oracle, refine2d
from polybound.realset import Interval, RealSet, normalize, realset

EPS_VALUES = (0.1, 0.25, 0.5)
# Operations run at the library defaults: sphere budget 2000, seed 0 and
# MCBudget(200_000, 2024). The seed varies the inputs, not these.
CHECK_TRIALS = 10_000  # fresh trials per re-validation (the README's count)
MASS_TOL = 1e-9
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "certificates.json"
POOL = Path(__file__).resolve().parent / "fixtures" / "pool.json"
POOL_SEED = 20081  # arbitrary, fixed: the candidate inputs of every slot
MAX_CANDIDATES = 6  # per slot; a slot with no passing candidate is left out
# certificate_sides against the mpmath reference: |got - want| <= tol * |want|
# (plus a floor of tol * 1e-300 for exact zeros)
REFERENCE_RTOL = 1e-7
NEGATIVE_CONTROL_INFLATION = 1e-3


@dataclass(frozen=True)
class Failure:
    """Why an operation failed. `contract` marks a broken guarantee that the
    library states for every input, as opposed to an empirical constant that
    fresh samples beat, or an exception."""

    reason: str
    contract: bool = False


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[Failure]]
    constants: Callable[[Any], list[float]] = lambda out: []


def rng_for(seed: int, workload: str, *keys: int) -> np.random.Generator:
    key = sum(ord(c) for c in workload)
    return np.random.default_rng((int(seed), key, *map(int, keys)))


def candidate_rng(workload: str, slot: int, candidate: int) -> np.random.Generator:
    return rng_for(POOL_SEED, workload, slot, candidate)


def draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


# ---------------------------------------------------------------------------
# input generators


def random_k(rng: np.random.Generator, parts: int) -> RealSet:
    """A union of `parts` random intervals in [0, 1] with measure >= 0.1
    (criterion 07's sets, with the component count given)."""
    while True:
        cuts = np.sort(rng.random(2 * parts))
        k = realset(*[(float(cuts[2 * i]), float(cuts[2 * i + 1])) for i in range(parts)])
        if k.measure >= 0.1:
            return k


def atomic_measure(rng: np.random.Generator, atoms: int) -> measure.AtomicMeasure:
    pts = np.sort(rng.random(atoms)) + np.arange(atoms) * 1e-4
    w = rng.exponential(1.0, atoms)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return measure.AtomicMeasure(tuple((float(x), float(v)) for x, v in zip(pts, w)))


def uniform_measure(rng: np.random.Generator, parts: int) -> measure.UniformMeasure:
    cuts = np.sort(rng.random(2 * parts))
    pairs = []
    for i in range(parts):
        lo, hi = float(cuts[2 * i]), float(cuts[2 * i + 1])
        pairs.append((lo, max(hi, lo + 1e-3)))
    return measure.UniformMeasure(realset(*pairs))


def placed(rng: np.random.Generator, k: RealSet, label: str, far: bool) -> tuple[RealSet, str]:
    """K moved by the affine map t -> scale * t + shift, in ROADMAP item 1's
    range (shift up to 1e6, scale 1e-6..1e6), and its label.

    Near: a shift of 1e2..1e4, or a pure scale of 1e-6..1e-3 or 1e3..1e6.
    Far: a shift of 1e5..1e6 at scale 1e-6..1e-3, so K sits 1e8 or more of
    its own widths from the origin.
    """
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if far:
        shift, scale = sign * 10 ** rng.uniform(5, 6), 10 ** rng.uniform(-6, -3)
    elif rng.random() < 0.5:
        shift, scale = sign * 10 ** rng.uniform(2, 4), 1.0
    else:
        shift, scale = 0.0, 10 ** (sign * rng.uniform(3, 6))
    k = normalize([Interval(p.lo * scale + shift, p.hi * scale + shift) for p in k.parts])
    return k, f"{label} {'far' if far else 'near'} shift={shift:.4g} scale={scale:.4g}"


# ---------------------------------------------------------------------------
# shared checks


def revalidate(cert, seed: int) -> list[Failure]:
    rep = oracle.validate_inequality(cert, CHECK_TRIALS, seed)
    if rep.violations:
        return [Failure(f"{rep.violations} of {CHECK_TRIALS} fresh trials beat the constant "
                        f"(min slack {rep.min_slack:.3g})")]
    return []


def at_least(value: float, floor: float, what: str) -> list[Failure]:
    if value >= floor - MASS_TOL:
        return []
    return [Failure(f"{what} {value:.12g} below {floor:.12g}", contract=True)]


# ---------------------------------------------------------------------------
# theorem0-sweep

# (n, eps, components of K) per theorem0 slot. Half of them are n = 1 or 2:
# cheap operations that keep the count per run high.
T0_SLOTS = (
    (1, 0.1, 1), (6, 0.25, 2), (2, 0.5, 3), (1, 0.25, 4), (5, 0.1, 5), (2, 0.25, 1),
    (3, 0.5, 2), (1, 0.5, 3), (4, 0.1, 4), (2, 0.1, 5), (3, 0.25, 1), (1, 0.1, 2),
)
# Two sets in twelve are moved: the n = 2 slot 9 near the origin and the
# n = 1 slot 3 far from it. A far K raises at n = 1 within 0.2 s, so no
# candidate of slot 3 passes and the slot is left out of the workload (its
# candidates run in known-failures). At n = 2..4 the same far K costs 10-52 s
# per operation before it raises, so it is not tried there.
NEAR_SLOT, FAR_SLOT = 9, 3
# (n, columns) of the refine2d ops that follow theorem0 slots 3, 6 and 10:
# one operation in five.
REFINE_AFTER = {3: (2, 3), 6: (1, 3), 10: (3, 2)}


def theorem0_op(k: RealSet, n: int, eps: float, check_seed: int, label: str) -> Op:
    def run():
        return bounds.theorem0_pipeline(k, n, eps)

    def check(cert) -> list[Failure]:
        got = measure.mass(measure.UniformMeasure(k), cert.region)
        return at_least(got, (1.0 - eps) / n, "region mass") + revalidate(cert, check_seed)

    return Op(label, run, check, lambda cert: [cert.constant])


def plane_region(rng: np.random.Generator, columns: int) -> refine2d.PlaneRegion:
    """Criterion 11's 2D column regions."""
    cells = []
    for i in range(columns):
        if rng.random() < 0.3:
            fiber = realset((0.0, float(rng.uniform(0.2, 1.0))))
        else:
            a, b = np.sort(rng.uniform(0, 0.45, 2))
            c, d = np.sort(rng.uniform(0.55, 1.0, 2))
            b = max(b, a + 0.05)
            d = max(d, c + 0.05)
            fiber = realset((float(a), float(b)), (float(c), float(d)))
        cells.append(refine2d.ColumnCell(i / columns, 1 / columns, fiber))
    return refine2d.PlaneRegion(tuple(cells))


def refine_op(omega, n: int, check_seed: int, label: str) -> Op:
    eps = 0.25  # criterion 11's eps

    def run():
        res = refine2d.refine(omega, n, eps, budget=2000)  # the CLI's budget
        return res, refine2d.validate_intest(res, omega, 20)

    def check(out) -> list[Failure]:
        res, intest = out
        fails = at_least(res.refined.area, res.c_mass * omega.area, "refined area")
        before = omega.area / omega.projection_width
        after = res.refined.area / res.refined.projection_width
        fails += at_least(after, res.c_mass * before, "refined mean fiber mass")
        if intest.violations:
            fails.append(Failure(f"{intest.violations} of {intest.trials} translated "
                                 "integral trials violated"))
        for i, (cell, cert) in enumerate(zip(omega.cells, res.certificates)):
            if cert is None:
                continue
            got = measure.mass(measure.UniformMeasure(cell.fiber), cert.region)
            fails += at_least(got, (1.0 - eps) / n, f"column {i} region mass")
            fails += revalidate(cert, check_seed + i)
        return fails

    def constants(out) -> list[float]:
        return [c.constant for c in out[0].certificates if c is not None]

    return Op(label, run, check, constants)


def theorem0_slots() -> list[Callable[[np.random.Generator], Op]]:
    """A block's slots: each draws its input and check seed from an rng."""
    def theorem0(slot, n, eps, parts):
        def make(rng):
            k = random_k(rng, parts)
            label = f"theorem0 n={n} eps={eps} parts={parts}"
            if slot in (NEAR_SLOT, FAR_SLOT):
                k, label = placed(rng, k, label, far=slot == FAR_SLOT)
            return theorem0_op(k, n, eps, draw_seed(rng), label)
        return make

    def refine(n, cols):
        return lambda rng: refine_op(plane_region(rng, cols), n, draw_seed(rng),
                                     f"refine2d n={n} columns={cols}")

    slots = []
    for slot, (n, eps, parts) in enumerate(T0_SLOTS):
        slots.append(theorem0(slot, n, eps, parts))
        if slot in REFINE_AFTER:
            slots.append(refine(*REFINE_AFTER[slot]))
    return slots


# ---------------------------------------------------------------------------
# measure-certs

# (n, kind) -> atoms of the atomic measure and components of the uniform one.
# Fixed per slot so every block builds the same exact ell_n tensors (peak
# memory) and the same children trees; the largest exact sum is 20^5 = 3.2e6
# terms, a third of EXACT_TENSOR_LIMIT. Two atoms at n = 4 takes the
# "at most n points" short cut. The corollary, which certifies n + 1 ratios,
# gets the fewer components at n = 3 and 4, so no single slot holds most
# of a block's time.
CERT_ATOMS = {
    (1, "corollary"): 64, (1, "theorem2"): 33, (2, "corollary"): 12, (2, "theorem2"): 48,
    (3, "corollary"): 40, (3, "theorem2"): 6, (4, "corollary"): 2, (4, "theorem2"): 20,
}
CERT_PARTS = {
    (1, "corollary"): 8, (1, "theorem2"): 1, (2, "corollary"): 3, (2, "theorem2"): 6,
    (3, "corollary"): 2, (3, "theorem2"): 5, (4, "corollary"): 1, (4, "theorem2"): 7,
}
CERT_EPS = 0.25  # CLI default


def cert_op(mu, n: int, kind: str, check_seed: int, label: str) -> Op:
    eps = CERT_EPS
    k = measure.support_set(mu)

    def run():
        issuer = bounds.corollary_interval if kind == "corollary" else bounds.theorem2_set
        return issuer(mu, k, n, eps)

    def check(cert) -> list[Failure]:
        got = measure.mass(mu, cert.region)
        if kind == "corollary":
            fails = at_least(got, (1.0 - eps) / n, "I' mass")
        else:
            fails = at_least(got, 1.0 - eps, "E mass")
            if len(cert.region.parts) > n:
                fails.append(Failure(f"E has {len(cert.region.parts)} > n components",
                                     contract=True))
        return fails + revalidate(cert, check_seed)

    return Op(label, run, check, lambda cert: [cert.constant])


def certs_slots() -> list[Callable[[np.random.Generator], Op]]:
    def make_slot(n, kind, mkind):
        def make(rng):
            if mkind == "atomic":
                size = CERT_ATOMS[n, kind]
                mu = atomic_measure(rng, size)
            else:
                size = CERT_PARTS[n, kind]
                mu = uniform_measure(rng, size)
            return cert_op(mu, n, kind, draw_seed(rng), f"{kind} n={n} {mkind}={size}")
        return make

    slots = []
    for pair in ((1, 4), (2, 3)):
        for mkind in ("atomic", "uniform"):
            for kinds in (("corollary", "theorem2"), ("theorem2", "corollary")):
                for n, kind in zip(pair, kinds):
                    slots.append(make_slot(n, kind, mkind))
    return slots


# ---------------------------------------------------------------------------
# validate-bulk


def load_fixtures() -> list[dict]:
    with open(FIXTURES) as fh:
        return json.load(fh)["certificates"]


def validate_op(entry: dict, seed: int, label: str) -> Op:
    def run():
        cert = bounds.Certificate.from_json(entry["certificate"])
        return cert, oracle.validate_inequality(cert, CHECK_TRIALS, seed)

    def check(out) -> list[Failure]:
        cert, rep = out
        fails = []
        if rep.violations:
            fails.append(Failure(f"{rep.violations} of {rep.trials} fresh trials beat "
                                 f"the constant (min slack {rep.min_slack:.3g})"))
        rows = np.array([r["coeffs"] for r in entry["reference"]])
        lhs, rhs = bounds.certificate_sides(cert, rows)
        for i, r in enumerate(entry["reference"]):
            for got, want, side in [(lhs[i], r["lhs"], "lhs")] + [
                (g, w, f"rhs[j={j}]") for g, w, j in zip(rhs[i], r["rhs"], cert.j_range)
            ]:
                if abs(got - want) > REFERENCE_RTOL * max(abs(want), 1e-300):
                    fails.append(Failure(f"row {i} {side} {got!r} differs from the "
                                         f"50-digit reference {want!r}", contract=True))
        inflated = dataclasses.replace(
            cert, constant=cert.constant * (1.0 + NEGATIVE_CONTROL_INFLATION))
        if oracle.validate_inequality(inflated, 1, seed).violations < 1:
            fails.append(Failure("constant inflated by 1e-3 passes on its own witness",
                                 contract=True))
        return fails

    return Op(label, run, check)


def validate_slots() -> list[Callable[[np.random.Generator], Op]]:
    """One slot per fixture; its only drawn input is the trial seed."""
    def make_slot(entry):
        label = f"validate {entry['certificate']['kind']} n={entry['certificate']['n']}"
        return lambda rng: validate_op(entry, draw_seed(rng), label)

    return [make_slot(e) for e in load_fixtures()]


# ---------------------------------------------------------------------------
# measure-analysis

# n -> (atoms, atoms): the first exact, the second just past
# EXACT_TENSOR_LIMIT (atoms^(n+1) > 1e7) from n = 3 on, so Monte Carlo.
# 24 atoms at n = 4 is the 7.96e6-term exact sum that sets peak memory.
ANALYSIS_ATOMS = {1: (128, 7), 2: (100, 16), 3: (30, 57), 4: (24, 26), 5: (9, 15), 6: (6, 11)}
# n -> (components, components) on both sides of the exhaustive/greedy
# switch of length_n_eps at 12 components.
ANALYSIS_PARTS = {1: (1, 20), 2: (12, 3), 3: (13, 6), 4: (12, 17), 5: (2, 14), 6: (9, 13)}


def ell_op(mu, n: int, label: str) -> Op:
    def run():
        return children.ell_n(mu, n)

    def check(est) -> list[Failure]:
        hull = measure.support_hull(mu).length
        if not (math.isfinite(est.value) and 0.0 <= est.value
                <= hull * (1.0 + MASS_TOL) + 6.0 * est.stderr):
            return [Failure(f"ell_{n} = {est.value!r} outside [0, hull length {hull:.6g}]",
                            contract=True)]
        return []

    return Op(label, run, check)


def children_op(mu, n: int, eps: float, label: str) -> Op:
    def run():
        return children.children_tree(mu, n, eps)

    def check(tree) -> list[Failure]:
        leaves = [leaf.interval for leaf in tree.leaves() if leaf.interval is not None]
        got = measure.mass(mu, normalize(leaves)) if leaves else 0.0
        return at_least(got, (1.0 - eps) ** n, "leaf mass")

    return Op(label, run, check)


def lnorm_op(mu, n: int, eps: float, label: str) -> Op:
    def run():
        return measure.length_n_eps(mu, n, eps), measure.shortest_mass_interval(mu, 1.0 - eps)

    def check(out) -> list[Failure]:
        res, window = out
        fails = at_least(measure.mass(mu, normalize(list(res.witness))), 1.0 - eps,
                         "length_n_eps witness mass")
        if len(res.witness) > n:
            fails.append(Failure(f"witness has {len(res.witness)} > n intervals", contract=True))
        total = sum(iv.length for iv in res.witness)
        if abs(total - res.value) > 1e-9 * max(1.0, res.value):
            fails.append(Failure(f"value {res.value!r} is not the witness length {total!r}",
                                 contract=True))
        fails += at_least(measure.mass(mu, RealSet((window,))), 1.0 - eps,
                          "shortest interval mass")
        return fails

    return Op(label, run, check)


def analysis_block(seed: int, b: int, ctx=None) -> list[Op]:
    rng = rng_for(seed, "measure-analysis", b)
    ops = []
    for n in range(1, 7):
        mus = [("atomic", m, atomic_measure(rng, m)) for m in ANALYSIS_ATOMS[n]]
        mus += [("uniform", p, uniform_measure(rng, p)) for p in ANALYSIS_PARTS[n]]
        for slot, (mkind, size, mu) in enumerate(mus):
            eps = EPS_VALUES[(n + slot) % len(EPS_VALUES)]
            tag = f"n={n} {mkind}={size} eps={eps}"
            ops.append(ell_op(mu, n, f"ell {tag}"))
            ops.append(children_op(mu, n, eps, f"children {tag}"))
            ops.append(lnorm_op(mu, n, eps, f"lnorm {tag}"))
    return ops


# ---------------------------------------------------------------------------


SLOTS = {
    "theorem0-sweep": theorem0_slots,
    "measure-certs": certs_slots,
    "validate-bulk": validate_slots,
}


def load_pool(workload: str) -> list[Op]:
    """The screened operations of a workload, one per slot that has a
    passing candidate (fixtures/pool.json, written by make_pool.py)."""
    with open(POOL) as fh:
        chosen = json.load(fh)[workload]["chosen"]
    slots = SLOTS[workload]()
    return [slots[j](candidate_rng(workload, j, i))
            for j, i in enumerate(chosen) if i is not None]


def load_known_failures() -> list[Op]:
    """Every candidate that make_pool.py rejected, rebuilt from its rng."""
    with open(POOL) as fh:
        pool = json.load(fh)
    ops = []
    for workload, make in SLOTS.items():
        slots = make()
        ops += [slots[r["slot"]](candidate_rng(workload, r["slot"], r["candidate"]))
                for r in pool[workload]["rejected"]]
    return ops


@dataclass(frozen=True)
class Workload:
    block: Callable[[int, int, Any], list[Op]]
    load: Callable[[], Any] = lambda: None
    issues_certificates: bool = False


def pooled(workload: str, certificates: bool) -> Workload:
    return Workload(lambda seed, b, ops: ops, lambda: load_pool(workload), certificates)


WORKLOADS = {
    "theorem0-sweep": pooled("theorem0-sweep", True),
    "measure-certs": pooled("measure-certs", True),
    "validate-bulk": pooled("validate-bulk", False),
    "measure-analysis": Workload(analysis_block),
    # not in BENCHMARK.json: the baseline failures, run to reproduce them
    "known-failures": Workload(lambda seed, b, ops: ops, load_known_failures, True),
}
