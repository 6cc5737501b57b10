"""Issue the certificates that the validate-bulk workload re-validates.

Run from the repository root:

    python3 perfbench/make_fixtures.py

It writes perfbench/fixtures/certificates.json: one certificate of each kind
(theorem0, theorem1, theorem2, corollary) for every n in 1..12, in the
certificate JSON schema that `polybound validate` reads. Each entry also
carries reference rows: the witness and three sphere polynomials, with both
sides of the inequality computed in mpmath at 50 digits (perfbench/reference.py),
which the benchmark compares against `bounds.certificate_sides`. Issuing
errors are recorded instead of a certificate. Issuing is deterministic given
FIXTURE_SEED: regenerating on the same library version rewrites the same
certificates and reference rows, and only the recorded issuing times differ.
Run make_pool.py afterwards: it screens these certificates.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from polybound import bounds, oracle  # noqa: E402
from polybound.measure import support_set  # noqa: E402
from polybound.realset import Interval  # noqa: E402

import reference  # noqa: E402
from workloads import EPS_VALUES, atomic_measure, random_k, uniform_measure  # noqa: E402

FIXTURE_SEED = 20080  # arbitrary, fixed
KINDS = ("theorem0", "theorem1", "theorem2", "corollary")
N_RANGE = range(1, 13)
REFERENCE_ROWS = 3
OUT = HERE / "fixtures" / "certificates.json"


def issue(kind: str, n: int, rng: np.random.Generator):
    """One certificate of `kind` at degree n; K and mu drawn from rng.

    Regions get 1..n components: theorem2's E set and theorem1's K_eps follow
    the component count of the drawn set. Issuing budget is the library
    default (2000) up to n = 6 and 1000 above, which only bounds the time
    this script takes; validation cost does not depend on it.
    """
    eps = EPS_VALUES[n % len(EPS_VALUES)]
    budget = 2000 if n <= 6 else 1000
    seed = int(rng.integers(0, 2**31))
    parts = int(rng.integers(1, n + 1))
    if kind == "theorem0":
        return bounds.theorem0_pipeline(random_k(rng, min(parts, 5)), n, eps, budget, seed)
    if kind == "theorem1":
        mu = uniform_measure(rng, min(parts, 8))
        return bounds.theorem1_certificate(mu, support_set(mu), n, eps, 1000, seed)
    if n % 2:
        mu = uniform_measure(rng, min(parts, 8))
    else:
        mu = atomic_measure(rng, int(rng.integers(n + 1, 4 * n + 1)))
    issuer = bounds.theorem2_set if kind == "theorem2" else bounds.corollary_interval
    return issuer(mu, support_set(mu), n, eps, budget, seed)


def reference_rows(cert_json: dict, rng: np.random.Generator) -> list[dict]:
    n = cert_json["n"]
    witness = np.zeros(n + 1)
    wc = cert_json["oracle"]["witness_coeffs"] or []
    witness[: len(wc)] = wc[: n + 1]
    hull = Interval(cert_json["K"]["parts"][0][0], cert_json["K"]["parts"][-1][1])
    # unit rows in u = (t - lo)/w, as the sphere search draws them, in the t basis
    sphere = oracle._u_basis_to_t(oracle.sphere_coeffs(rng, REFERENCE_ROWS, n + 1), hull)
    rows = [witness] + list(sphere)
    out = []
    for row in rows:
        lhs, rhs = reference.sides(cert_json, row)
        out.append({"coeffs": [float(c) for c in row], "lhs": lhs, "rhs": rhs})
    return out


def main() -> int:
    entries, errors = [], []
    for n in N_RANGE:
        for k_idx, kind in enumerate(KINDS):
            rng = np.random.default_rng((FIXTURE_SEED, n, k_idx))
            t0 = time.perf_counter()
            try:
                cert = issue(kind, n, rng)
            except (ValueError, AssertionError, RuntimeError) as exc:
                errors.append({"kind": kind, "n": n, "error": f"{type(exc).__name__}: {exc}"})
                print(f"{kind} n={n}: raised {exc!r}", flush=True)
                continue
            cert_json = cert.to_json()
            entries.append(
                {
                    "id": f"{kind}-n{n}",
                    "issue_s": round(time.perf_counter() - t0, 3),
                    "certificate": cert_json,
                    "reference": reference_rows(cert_json, rng),
                }
            )
            print(f"{kind} n={n}: constant {cert.constant:.6g}, "
                  f"{len(cert.region.parts)} region components, "
                  f"{entries[-1]['issue_s']} s", flush=True)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(
        {"fixture_seed": FIXTURE_SEED, "certificates": entries, "issue_errors": errors},
        indent=1,
    ) + "\n")
    print(f"wrote {len(entries)} certificates and {len(errors)} issue errors to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
