"""The benchmark workloads: inputs made from the seed, the timed operations,
and the checks of every result against `reference`.

Each workload is one closed-loop client: the next operation starts when the
previous one has returned.  Operations call the public entry points of
`e510.verma` through the module attribute at call time, so the wrappers that
a traced run installs are the functions that run.
"""

from __future__ import annotations

import itertools
import random
import time

import reference as ref

# Catalogued chains of the `morphisms` workload, in build order.
CHAINS = [
    ("A", 0, 0), ("A", 1, 0), ("A", 0, 1),
    ("B", 0, 0), ("B", 1, 0), ("B", 0, 1),
    ("C", 0, 0), ("C", 1, 0), ("C", 0, 1),
    ("BA", 1, 0), ("CB", 0, 0), ("CA", 0, 0), ("CBA", 0, 0),
]
# chain -> (perturbed controls, equivariant controls) rejected by both checks
CONTROLS = {
    ("A", 1, 0): (4, 0), ("B", 1, 0): (4, 0), ("C", 0, 1): (4, 0),
    ("BA", 1, 0): (4, 0), ("CB", 0, 0): (4, 0), ("CA", 0, 0): (4, 2),
    ("CBA", 0, 0): (4, 1),
}


class Recorder:
    """Times operations from outside and counts the failed ones.

    An operation fails when it raises or when its check returns a problem.
    Each operation's time is kept without the calibration slices of `meter`
    run during it, with those slices (see speed.py).  A traced run passes
    `span` to record each operation as a root span.
    """

    def __init__(self, meter, span=None):
        self.meter = meter
        self.span = span
        self.times: list[tuple] = []  # (seconds, (slice seconds, slices))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def op(self, label: str, fn, check):
        self.attempted += 1
        mark = self.meter.mark()
        t0 = time.perf_counter()
        try:
            out = fn() if self.span is None else self.span("bench.op", fn)
        except Exception as exc:  # a raising operation is a failed operation
            self._timed(t0, mark)
            self.fail(label, f"raised {exc!r}")
            return None
        self._timed(t0, mark)
        try:
            problem = check(out)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            self.fail(label, problem)
            return None
        return out

    def _timed(self, t0, mark):
        elapsed = time.perf_counter() - t0
        slices = self.meter.since(mark)
        self.times.append((elapsed - slices[0], slices))

    def pin(self, key: str, value: str, pinned: dict):
        """Record a result digest; a digest that differs from the pin is a problem."""
        self.digests[key] = value
        want = pinned.get(key)
        if want != value:
            return f"digest {key} is {value[:12]}, pinned {str(want)[:12]}"
        return None

    def fail(self, label, problem):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {problem}")


class Sweep:
    """Singular-vector search over a fixed set of weights at one degree; the
    seed sets the order.  One operation is `singular_vectors(mu, d)` plus the
    family label of each hit, as `classify` labels them."""

    def __init__(self, degree: int, weights, seed: int):
        self.degree = degree
        self.weights = sorted(weights)
        random.Random(seed).shuffle(self.weights)
        self.degrees = (degree,)

    def ops_per_rep(self) -> int:
        return len(self.weights)

    def run(self, verma, rec: Recorder):
        d = self.degree
        for mu in self.weights:
            def search(mu=mu):
                rows = []
                for lam, vecs in verma.singular_vectors(mu, d):
                    fam = verma.label_family(mu, lam, d, vecs) if d <= 3 else "exploratory"
                    rows.append((lam, vecs, fam))
                return rows
            rec.op(f"singular_vectors{mu} d={d}", search,
                   lambda rows, mu=mu: self.check(verma, rec, mu, rows))

    def check(self, verma, rec, mu, rows):
        want = ref.SWEEP_HITS.get((mu, self.degree), set())
        got = {(lam, fam) for lam, _vecs, fam in rows}
        if got != want:
            return f"hits {sorted(got)} != reference {sorted(want)}"
        for lam, vecs, _fam in rows:
            if len(vecs) != 1:
                return f"hit {lam} has dimension {len(vecs)}, not 1"
            key = ref.sweep_key(mu, lam, self.degree)
            problem = rec.pin(key, ref.digest(verma, vecs[0]), ref.SWEEP_DIGESTS)
            if problem:
                return problem
        return None


class Morphisms:
    """Build each catalogued chain, run both checks on it, check its dual,
    and make both checks reject seeded negative controls."""

    degrees = (1, 2, 3)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.control_seeds = {c: rng.randrange(2**31) for c in CHAINS}

    def ops_per_rep(self) -> int:
        return 4 * len(CHAINS) + 2 * len(CONTROLS)

    def run(self, verma, rec: Recorder):
        for chain, m, n in CHAINS:
            label = f"{chain}({m},{n})"
            phi = rec.op(f"build {label}", lambda: verma.family_instance(chain, m, n),
                         lambda phi: self.check_built(verma, rec, chain, m, n, phi))
            if phi is None:
                continue
            rec.op(f"check_morphism {label}", lambda: verma.check_morphism(phi),
                   lambda res: None if res[0] else res[1])
            rec.op(f"verify_degree_equations {label}",
                   lambda: verma.verify_degree_equations(phi),
                   lambda res: None if res[0] else res[1])
            rec.op(f"dual_morphism+check_morphism {label}",
                   lambda: self.dual_and_check(verma, phi),
                   lambda out: self.check_dual(phi, *out))
            if (chain, m, n) not in CONTROLS:
                continue
            perturbed, equivariant = CONTROLS[chain, m, n]
            controls = verma.perturbed_controls(phi, perturbed,
                                                seed=self.control_seeds[(chain, m, n)])
            controls += verma.equivariant_controls(phi, equivariant)
            if len(controls) != perturbed + equivariant:
                rec.attempted += 1
                rec.fail(label, f"{len(controls)} controls, expected {perturbed + equivariant}")
            for name in ("check_morphism", "verify_degree_equations"):
                rec.op(f"{name} {label} controls",
                       lambda name=name: [getattr(verma, name)(bad) for bad in controls],
                       lambda verdicts: self.check_rejected(controls, verdicts))

    @staticmethod
    def check_built(verma, rec, chain, m, n, phi):
        degree, lam, mu = ref.chain_weights(chain, m, n)
        if (phi.degree, phi.lam, phi.mu) != (degree, lam, mu):
            return f"built {phi.degree}: {phi.lam} -> {phi.mu}, reference {degree}: {lam} -> {mu}"
        if phi.is_zero():
            return "morphism is zero"
        return rec.pin(ref.chain_key(chain, m, n), ref.digest(verma, phi.hw_image()),
                       ref.CHAIN_DIGESTS)

    @staticmethod
    def check_rejected(controls, verdicts):
        accepted = [bad.tag for bad, (ok, _diag) in zip(controls, verdicts) if ok]
        return f"controls accepted: {accepted}" if accepted else None

    @staticmethod
    def dual_and_check(verma, phi):
        psi = verma.dual_morphism(phi)
        return psi, verma.check_morphism(psi)

    @staticmethod
    def check_dual(phi, psi, verdict):
        dual = tuple(reversed(phi.mu)), tuple(reversed(phi.lam))
        if (psi.lam, psi.mu) != dual:
            return f"dual runs {psi.lam} -> {psi.mu}, expected {dual[0]} -> {dual[1]}"
        return None if verdict[0] else f"dual rejected: {verdict[1]}"


def box(max_entry: int):
    return list(itertools.product(range(max_entry + 1), repeat=4))


# name -> factory(seed)
WORKLOADS = {
    "sweep-d2": lambda seed: Sweep(2, [mu for mu in box(2) if sum(mu) <= 4], seed),
    "sweep-d4": lambda seed: Sweep(4, box(1), seed),
    "morphisms": Morphisms,
}
