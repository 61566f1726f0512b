"""Independent oracles and seeded generators shared by the test modules.

The convolution oracle multiplies x * conj(y) with raw dicts and Fractions,
sharing no code with FormalSum or the pairing engine, so the two routes can
check each other.  The Fraction null search is the one-assignment-at-a-time
reference for the engine's integer null-search kernel.
"""

import itertools
from fractions import Fraction

from umpair.algebra import ONE, ZERO, FormalSum, Scalar, as_scalar, canonical_key
from umpair.engine import NullSearchResult
from umpair.monomial import Monomial


def convolution_oracle(x_terms, y_terms, sigma):
    swap = {}
    for a, b in sigma.swaps:
        swap[a], swap[b] = b, a
    acc = {}
    for exps_x, (xr, xi) in x_terms:
        for exps_y, (yr, yi) in y_terms:
            merged = dict(exps_x)
            for p, e in exps_y.items():
                q = swap.get(p, p)
                merged[q] = merged.get(q, 0) + e
            key = tuple(sorted((p, e) for p, e in merged.items() if e))
            re, im = acc.get(key, (Fraction(0), Fraction(0)))
            # (xr + xi i) * (yr - yi i)
            acc[key] = (re + xr * yr + xi * yi, im + xi * yr - xr * yi)
    return {k: v for k, v in acc.items() if v != (0, 0)}


def as_raw(formal_sum):
    """A formal sum of monomials as the oracle's raw exponent/value dict."""
    return {m.exponents: (c.re, c.im) for m, c in formal_sum.items()}


def raw_terms(formal_sum):
    return [(m.as_dict(), (c.re, c.im)) for m, c in formal_sum.items()]


def random_poly(rng, sigma, max_terms=8, max_exp=3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exps = {p: rng.randint(0, max_exp) for p in sigma.alphabet}
        coeff = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        terms.append((Monomial.from_dict(exps), coeff))
    return FormalSum(terms)


def random_vector(rng, basis, max_support=8, bound=3):
    """A nonzero formal sum: small random support, nonzero Gaussian-integer
    coefficients with both parts in [-bound, bound]."""
    support = rng.sample(basis, rng.randint(1, min(max_support, len(basis))))
    terms = []
    for descriptor in support:
        re = im = 0
        while re == 0 and im == 0:
            re, im = rng.randint(-bound, bound), rng.randint(-bound, bound)
        terms.append((descriptor, Scalar(re, im)))
    return FormalSum(terms)


def _is_canonical_nonzero(coeffs, lead, grid_set):
    """Keep one representative per scalar ray, without losing grid coverage.

    An assignment whose first nonzero coefficient is the lead value is always
    canonical.  Any other assignment is skipped only when rescaling its first
    nonzero coefficient to the lead lands every coefficient back on the grid
    (that rescaled representative is enumerated separately); if the rescaled
    vector leaves the grid, the assignment is its ray's only chance to be
    tested and is kept.
    """
    first = next((c for c in coeffs if not c.is_zero()), None)
    if first is None:
        return False
    if first == lead:
        return True
    factor = lead / first
    return any(factor * c not in grid_set for c in coeffs)


def _grouped_pair_is_zero(groups, coeffs):
    for group in groups:
        total = ZERO
        for i, j in group:
            total = total + coeffs[i] * coeffs[j].conj()
        if not total.is_zero():
            return False
    return True


def fraction_null_search(basis, coeff_set, theory):
    """Reference null search: every assignment in Scalar arithmetic, in order.

    Same scan order, ray rule and counters as ``engine.null_search``, one
    assignment at a time (about 200 us each), so only small grids are
    affordable.
    """
    grid = tuple(sorted({as_scalar(c) for c in coeff_set}, key=Scalar.sort_key))
    grid_set = frozenset(grid)
    lead = ONE if ONE in grid_set else next(c for c in grid if not c.is_zero())
    by_key = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            by_key.setdefault(canonical_key(theory.glue(a, b)), []).append((i, j))
    groups = [by_key[k] for k in sorted(by_key)]
    n = len(basis)
    skipped = 0
    for index, coeffs in enumerate(itertools.product(grid, repeat=n)):
        if not _is_canonical_nonzero(coeffs, lead, grid_set):
            skipped += 1
        elif _grouped_pair_is_zero(groups, coeffs):
            return NullSearchResult(FormalSum(zip(basis, coeffs)), n, grid,
                                    index + 1, skipped)
    return NullSearchResult(None, n, grid, len(grid) ** n, skipped)
