"""Symmetric polynomials in the monomial basis and the shuffle product.

A SymmetricElement is a finite combination of monomial symmetric polynomials
m_lam in a fixed number of variables, keyed by weakly increasing exponent
tuples of that length.  The augmented variant sums x across all of the
symmetric group instead of the distinct rearrangements only, so it equals
multiplicity(lam) * m_lam; partitions embed into this picture by sending a
basis partition to its augmented monomial.

The shuffle product sums, over every split of the ambient variables into a
subset for each factor, the two expanded factors placed on their subsets
times the pairwise kernel of the split, and reads the result back in the
monomial basis.  The kernel of a split is the (n1, n2) block kernel with its
variables relabelled, first block onto the first factor's subset and second
block onto the rest, and so is the term.  So the product of the two factors
with the block kernel is expanded once, as a polynomial, and its relabelled
copies are summed over every split; the block kernel depends on (n1, n2, d)
only, and is built once per shape and cached.  This is deliberately brute
force: it is the independent oracle that the structure constant route is
verified against, and it never reads the structure-constant tables.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import NotSymmetricError, ResourceLimitError
from .kernel import DEFAULT_TERM_CAP, KernelSpec, _check_projected, admit, effective_cap, kernel_polynomial
from .mpoly import MPoly, embed, fixed_by, relabelled_sum
from .partition_algebra import PartitionElement, _capped_basis_product, _to_element
from .partitions import (
    Partition,
    distinct_permutation_count,
    distinct_permutations,
    is_partition,
    multiplicity,
    sort_ascending,
    vec_add,
)
from .qlaurent import ONE, QLaurent, Rational, as_rational
from .reports import CheckReport

DEFAULT_MAX_SUBSETS = 10_000


class SymmetricElement:
    """A combination of monomial symmetric polynomials at fixed arity."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Optional[Dict[Partition, QLaurent]] = None):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        clean: Dict[Partition, QLaurent] = {}
        if terms:
            for key, coeff in terms.items():
                k = tuple(key)
                if len(k) != arity or not is_partition(k):
                    raise ValueError(
                        "key %r is not a weakly increasing tuple of length %d"
                        % (k, arity)
                    )
                if not isinstance(coeff, QLaurent):
                    coeff = QLaurent.const(coeff)
                if coeff:
                    clean[k] = coeff
        self.arity = arity
        self.terms = clean

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SymmetricElement):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __repr__(self):
        return "SymmetricElement(%d, %d terms)" % (self.arity, len(self.terms))


GradedElement = Dict[int, SymmetricElement]


@lru_cache(maxsize=1024)
def _rearrangements(lam: Partition, weight: int) -> MPoly:
    # weight times x**w summed over the distinct rearrangements w of lam; an
    # MPoly is never mutated, so the suites' many repeats share one
    perms = distinct_permutations(lam)
    return MPoly.from_rows(len(lam), [w + (0,) for w in perms], [weight] * len(perms))


def monomial_symmetric(lam: Partition) -> MPoly:
    """m_lam: one monomial per distinct rearrangement of the exponents."""
    return _rearrangements(tuple(lam), 1)


def augmented_monomial(lam: Partition) -> MPoly:
    """Sum of x**(lam permuted) over the whole symmetric group."""
    lam = tuple(lam)
    return _rearrangements(lam, multiplicity(lam))


def expand(element: SymmetricElement) -> MPoly:
    out: Dict[Tuple[int, ...], QLaurent] = {}
    for lam, coeff in element.terms.items():
        for w in distinct_permutations(lam):
            out[w] = coeff
    return MPoly(element.arity, out)


def _sorted_rows(p: MPoly) -> MPoly:
    """The rows of a symmetric polynomial whose exponents weakly increase.

    Symmetry is certified by checking invariance under the adjacent
    transpositions, which generate the whole symmetric group: each swaps two
    columns of the rows, and the re-sorted rows and weights must equal the
    original arrays.
    """
    n = p.arity
    swaps = []
    for i in range(n - 1):
        swap = list(range(n))
        swap[i], swap[i + 1] = i + 1, i
        swaps.append(swap)
    for i, fixed in enumerate(fixed_by(p, swaps)):
        if fixed:
            continue
        terms = p.terms
        for e, c in terms.items():
            swapped = e[:i] + (e[i + 1], e[i]) + e[i + 2 :]
            if e[i] != e[i + 1] and terms.get(swapped) != c:
                raise NotSymmetricError(
                    "not symmetric: terms at %r and %r differ" % (e, swapped)
                )
    exps = p.rows[:, :-1]
    return p.rows_where(np.all(exps[:, 1:] >= exps[:, :-1], axis=1))


def to_monomial_basis(p: MPoly) -> SymmetricElement:
    """Read a symmetric polynomial in the monomial basis."""
    return SymmetricElement(p.arity, dict(_sorted_rows(p).terms))


def _splits(n1: int, n2: int) -> List[Tuple[int, ...]]:
    """One relabelling of n1 + n2 variables per split into a subset of n1.

    The first n1 variables go to the subset, in order, and the other n2 to
    the rest, in order.
    """
    universe = range(n1 + n2)
    out = []
    for subset in itertools.combinations(universe, n1):
        chosen = set(subset)
        out.append(subset + tuple(i for i in universe if i not in chosen))
    return out


def _side_by_side(p1: MPoly, p2: MPoly) -> MPoly:
    """p1 on the first variables times p2 on the ones after them."""
    arity = p1.arity + p2.arity
    return embed(p1, arity, range(p1.arity)) * embed(p2, arity, range(p1.arity, arity))


def _check_subsets(n1: int, n2: int, max_subsets: int) -> None:
    """Refuse more than ``max_subsets`` splits."""
    count = comb(n1 + n2, n1)
    if count > max_subsets:
        raise ResourceLimitError(
            "%d subsets exceed the configured maximum %d" % (count, max_subsets)
        )


def _shuffle_rows(p1: MPoly, p2: MPoly, d: int, q_value, max_subsets, term_cap) -> MPoly:
    """The shuffle product of two expanded factors, as its sorted rows.

    Before each stage runs, its staged rows, the rows of its two inputs
    multiplied, are held to the cap (``effective_cap``): the side-by-side
    product, its product with the block kernel, and the relabelled sum over
    the splits.
    """
    n1 = p1.arity
    n2 = p2.arity
    _check_subsets(n1, n2, max_subsets)
    kernel = _block_kernel(n1, n2, d, q_value, term_cap)
    limit = effective_cap(d, term_cap)
    splits = _splits(n1, n2)
    _check_projected(len(p1.weights), len(p2.weights), limit)
    side = _side_by_side(p1, p2)
    _check_projected(len(side.weights), len(kernel.weights), limit)
    term = side * kernel
    _check_projected(len(term.weights), len(splits), limit)
    return _sorted_rows(relabelled_sum(term, splits))


@lru_cache(maxsize=64)
def _block_kernel(n1: int, n2: int, d: int, q_value, term_cap: int) -> MPoly:
    # shared by every product of one shape, as an MPoly is never mutated; 64
    # is twice the 27 shapes of ``verify iso`` at its defaults.  The kernel
    # of an empty block is the constant 1
    if not (n1 and n2):
        return MPoly.constant(n1 + n2, ONE)
    return kernel_polynomial(KernelSpec(n1, n2, d), term_cap, q_value)


def shuffle_product(
    f1: SymmetricElement,
    f2: SymmetricElement,
    d: int,
    q_value: Optional[Rational] = None,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
    term_cap: int = DEFAULT_TERM_CAP,
) -> SymmetricElement:
    """Kernel-weighted sum over all splits of the ambient variables.

    The kernel's gate (``kernel.admit``) and the splits are checked first,
    then the kernel is built under its fold's own checks, and only then is
    each factor's expansion, its terms' distinct rearrangements times their
    coefficients' powers, held to the cap before it is built.
    """
    n1, n2 = f1.arity, f2.arity
    q_value = None if q_value is None else as_rational(q_value)
    admit(n1, n2, d, term_cap, q=q_value)
    _check_subsets(n1, n2, max_subsets)
    # built, or refused under its own checks, before any factor is expanded
    _block_kernel(n1, n2, d, q_value, term_cap)
    for f in (f1, f2):
        rows = sum(distinct_permutation_count(lam) * len(list(c.items())) for lam, c in f.terms.items())
        _check_projected(rows, 1, effective_cap(d, term_cap))
    rows = _shuffle_rows(expand(f1), expand(f2), d, q_value, max_subsets, term_cap)
    return SymmetricElement(rows.arity, dict(rows.terms))


# -- product rules in the monomial basis ---------------------------------------


def augmented_times_monomial(lam: Partition, mu: Partition) -> Dict[Partition, int]:
    """Augmented monomial times plain monomial, as augmented monomials.

    Both factors must have the same number of variables; the result maps each
    sorted sum lam + w to its multiplicity over the rearrangements w of mu.
    """
    lam = tuple(lam)
    mu = tuple(mu)
    if len(lam) != len(mu):
        raise ValueError("lengths must agree: %r vs %r" % (lam, mu))
    out: Dict[Partition, int] = {}
    for w in distinct_permutations(mu):
        key = sort_ascending(vec_add(lam, w))
        out[key] = out.get(key, 0) + 1
    return out


def monomial_times_monomial(lam: Partition, mu: Partition) -> Dict[Partition, Rational]:
    """Monomial times monomial, in the monomial basis; coefficients can be
    genuinely fractional before merging, hence exact rationals."""
    lam = tuple(lam)
    mu = tuple(mu)
    if len(lam) != len(mu):
        raise ValueError("lengths must agree: %r vs %r" % (lam, mu))
    denom = multiplicity(lam)
    out: Dict[Partition, Rational] = {}
    for w in distinct_permutations(mu):
        key = sort_ascending(vec_add(lam, w))
        out[key] = out.get(key, 0) + Fraction(multiplicity(key), denom)
    return {k: as_rational(v) for k, v in out.items()}


def verify_augmented_rule(lam: Partition, mu: Partition) -> CheckReport:
    """The combinatorial rule against direct polynomial multiplication."""
    lam = tuple(lam)
    mu = tuple(mu)
    direct = to_monomial_basis(augmented_monomial(lam) * monomial_symmetric(mu))
    rule = augmented_times_monomial(lam, mu)
    want = {k: QLaurent.const(c * multiplicity(k)) for k, c in rule.items()}
    passed = direct.terms == want
    failures = []
    if not passed:
        failures.append(
            "augmented rule fails for lam=%r mu=%r: %r vs %r"
            % (lam, mu, direct.terms, want)
        )
    return CheckReport(
        name="augmented-times-monomial %r %r" % (lam, mu),
        passed=passed,
        checked=1,
        failures=failures,
    )


def verify_monomial_rule(lam: Partition, mu: Partition) -> CheckReport:
    lam = tuple(lam)
    mu = tuple(mu)
    direct = to_monomial_basis(monomial_symmetric(lam) * monomial_symmetric(mu))
    rule = monomial_times_monomial(lam, mu)
    want = {k: QLaurent.const(v) for k, v in rule.items()}
    passed = direct.terms == want
    failures = []
    if not passed:
        failures.append(
            "monomial rule fails for lam=%r mu=%r: %r vs %r"
            % (lam, mu, direct.terms, want)
        )
    return CheckReport(
        name="monomial-times-monomial %r %r" % (lam, mu),
        passed=passed,
        checked=1,
        failures=failures,
    )


def verify_subset_sum_identity(lam: Partition, mu: Partition) -> CheckReport:
    """Splitting the variables between two augmented monomials concatenates them."""
    lam = tuple(lam)
    mu = tuple(mu)
    lhs = relabelled_sum(
        _side_by_side(augmented_monomial(lam), augmented_monomial(mu)),
        _splits(len(lam), len(mu)),
    )
    rhs = augmented_monomial(sort_ascending(lam + mu))
    passed = lhs == rhs
    failures = []
    if not passed:
        failures.append("subset-sum identity fails for lam=%r mu=%r" % (lam, mu))
    return CheckReport(
        name="subset-sum %r %r" % (lam, mu),
        passed=passed,
        checked=1,
        failures=failures,
    )


# -- the isomorphism with the partition algebra --------------------------------


def partition_image(lam: Partition) -> SymmetricElement:
    """Image of a basis partition: its augmented monomial, in the m basis."""
    lam = tuple(lam)
    return SymmetricElement(len(lam), {lam: QLaurent.const(multiplicity(lam))})


def to_symmetric_element(e: PartitionElement) -> GradedElement:
    """Image of a partition-algebra element, one component per length."""
    comps: Dict[int, Dict[Partition, QLaurent]] = {}
    for lam, coeff in e.items():
        comps.setdefault(len(lam), {})[tuple(lam)] = coeff * multiplicity(lam)
    return {n: SymmetricElement(n, terms) for n, terms in sorted(comps.items())}


def _key_major(rows, coeffs):
    """(keys, counts, powers, coeffs) of grouped (sorted key, power) rows."""
    keys = rows[:, :-1]
    marks = np.ones(len(rows) + 1, dtype=bool)
    (keys[1:] != keys[:-1]).any(axis=1, out=marks[1:-1])
    marks = marks.nonzero()[0]
    return keys[marks[:-1]], marks[1:] - marks[:-1], rows[:, -1].astype(np.int64), coeffs


def verify_homomorphism(mu: Partition, nu: Partition, d: int) -> CheckReport:
    """Image of the table-driven product vs the brute-force shuffle product.

    The image is the cached basis product with each coefficient times the
    multiplicity of its key, and the shuffle product of the augmented
    monomials keeps its rows with sorted exponents, in (sorted key, power)
    order: split by key, they are key-major like the image, so the two agree
    exactly when their arrays are equal.
    """
    mu = tuple(mu)
    nu = tuple(nu)
    keys, counts, powers, coeffs = table = _capped_basis_product(mu, nu, d, DEFAULT_TERM_CAP)
    mults = np.array([multiplicity(key) for key in keys.tolist()], dtype=object)
    factors = augmented_monomial(mu), augmented_monomial(nu)
    direct = _shuffle_rows(*factors, d, None, DEFAULT_MAX_SUBSETS, DEFAULT_TERM_CAP)
    image = keys, counts, powers, coeffs * mults.repeat(counts)
    passed = all(map(np.array_equal, image, _key_major(direct.rows, direct.weights)))
    failures = []
    if not passed:
        image = to_symmetric_element(_to_element(*table)).get(len(mu) + len(nu))
        failures.append(
            "homomorphism fails for mu=%r nu=%r d=%d: %r vs %r"
            % (mu, nu, d, image.terms if image else None, dict(direct.terms))
        )
    return CheckReport(
        name="homomorphism %r %r d=%d" % (mu, nu, d),
        passed=passed,
        checked=1,
        failures=failures,
    )
