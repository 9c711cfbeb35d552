"""Quadratic-type functional equations as signed linear term lists.

Every equation in the family is a finite list of (coefficient, argument
weights) pairs: the residual of a mapping f on points (x_1, ..., x_m) is

    sum_t  c_t * f( sum_l w_{t,l} * x_l ).

One representation drives both the floating-point residual evaluators and
the exact finite-field constraint matrices, so the two never drift apart.
`term_arrays` caches it as arrays, and `term_arguments` forms every term's
argument for a block of tuples at once; blocks hold at most `_BLOCK_ENTRIES`
argument entries, so evaluating any number of tuples takes bounded memory.

Equation ids follow the config wire format:

    fe1        f(x+y) + f(x-y) = 2f(x) + 2f(y)
    fe2        3f(x-y) + 3f(y-z) + 3f(x-z)
                 = f(y+z-2x) + f(x+z-2y) + f(x+y-2z)
    fe3        n * sum_{i<j} f(x_i - x_j) = sum_i f(sum_j x_j - n x_i),  n >= 3
    fe3_0      f(ax+y) + f(x+ay) + (a-1) f(x-y)
                 = (a+1) f(x+y) + (a^2-1)[f(x) + f(y)],   integer |a| != 1
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

Term = tuple[int, tuple[int, ...]]

_BLOCK_ENTRIES = 1 << 16  # term-argument entries per evaluated block: bounds a block's memory

MAX_FE3_ARITY = 64  # fe3's term list has n(n+1)/2 terms of length n: 2,080 at the cap

_FE1_TERMS: tuple[Term, ...] = (
    (1, (1, 1)),
    (1, (1, -1)),
    (-2, (1, 0)),
    (-2, (0, 1)),
)

_FE2_TERMS: tuple[Term, ...] = (
    (3, (1, -1, 0)),
    (3, (0, 1, -1)),
    (3, (1, 0, -1)),
    (-1, (-2, 1, 1)),
    (-1, (1, -2, 1)),
    (-1, (1, 1, -2)),
)


def _fe3_terms(n: int) -> tuple[Term, ...]:
    terms: list[Term] = []
    for i, j in combinations(range(n), 2):
        w = [0] * n
        w[i] = 1
        w[j] = -1
        terms.append((n, tuple(w)))
    for i in range(n):
        w = [1] * n
        w[i] = 1 - n
        terms.append((-1, tuple(w)))
    return tuple(terms)


def _fe3_0_terms(a: int) -> tuple[Term, ...]:
    return (
        (1, (a, 1)),
        (1, (1, a)),
        (a - 1, (1, -1)),
        (-(a + 1), (1, 1)),
        (-(a * a - 1), (1, 0)),
        (-(a * a - 1), (0, 1)),
    )


@dataclass(frozen=True)
class EquationSpec:
    """One member of the equation family, identified the way configs name it."""

    id: str
    n: int | None = None
    a: int | None = None

    def __post_init__(self):
        if self.id == "fe3":
            if self.n is None or int(self.n) < 3:
                raise ValueError("fe3 requires an arity n >= 3")
            if int(self.n) > MAX_FE3_ARITY:
                raise ValueError(f"fe3 arity capped at n = {MAX_FE3_ARITY}, got n = {self.n}")
        elif self.id == "fe3_0":
            if self.a is None or abs(int(self.a)) == 1:
                raise ValueError("fe3_0 requires an integer a with |a| != 1")
        elif self.id not in ("fe1", "fe2"):
            raise ValueError(f"unknown equation id {self.id!r}")

    @property
    def arity(self) -> int:
        if self.id == "fe1" or self.id == "fe3_0":
            return 2
        if self.id == "fe2":
            return 3
        return int(self.n)

    def terms(self) -> tuple[Term, ...]:
        if self.id == "fe1":
            return _FE1_TERMS
        if self.id == "fe2":
            return _FE2_TERMS
        if self.id == "fe3":
            return _fe3_terms(int(self.n))
        return _fe3_0_terms(int(self.a))

    def label(self) -> str:
        if self.id == "fe3":
            return f"fe3:n={self.n}"
        if self.id == "fe3_0":
            return f"fe3_0:a={self.a}"
        return self.id


def parse_equation(text: str) -> EquationSpec:
    """Parse CLI/config shorthand: "fe1", "fe2", "fe3:4", "fe3_0:2"."""
    head, _, param = text.partition(":")
    head = head.strip()
    if head == "fe3":
        return EquationSpec("fe3", n=int(param) if param else 3)
    if head == "fe3_0":
        return EquationSpec("fe3_0", a=int(param) if param else 2)
    if param:
        raise ValueError(f"equation {head!r} takes no parameter")
    return EquationSpec(head)


def equation_terms(eq) -> tuple[tuple[Term, ...], int]:
    """Normalize an EquationSpec or a raw term list into (terms, arity)."""
    if isinstance(eq, EquationSpec):
        return eq.terms(), eq.arity
    terms = tuple((int(c), tuple(int(w) for w in ws)) for c, ws in eq)
    if not terms:
        raise ValueError("an equation needs at least one term")
    arity = len(terms[0][1])
    if any(len(ws) != arity for _, ws in terms):
        raise ValueError("all terms must weight the same number of arguments")
    return terms, arity


@lru_cache(maxsize=32)
def _cached_term_arrays(key):
    terms, _ = equation_terms(key)
    coeffs, weights = np.array([c for c, _ in terms]), np.array([w for _, w in terms])
    coeffs.flags.writeable = weights.flags.writeable = False
    return coeffs, weights


def term_arrays(eq) -> tuple[np.ndarray, np.ndarray]:
    """An equation's terms as int64 arrays: coefficients (T,) and weights (T, arity), cached."""
    return _cached_term_arrays(eq if isinstance(eq, EquationSpec) else equation_terms(eq)[0])


def term_arguments(weights: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Every term argument of a block of tuples: P (B, arity, *shape) -> (B, T, *shape).

    Each argument is one (1, arity) @ (arity, N) product, the same BLAS call a
    single tuple's `weights[t] @ points` makes, so it does not depend on B.
    """
    B, arity = P.shape[:2]
    flat = P.reshape(B, 1, arity, -1)
    return (weights[:, None, :] @ flat).reshape((B, len(weights)) + P.shape[2:])


def block_length(entries_per_tuple: int) -> int:
    """Tuples per block when one tuple's term arguments hold `entries_per_tuple` entries."""
    return max(1, _BLOCK_ENTRIES // max(1, entries_per_tuple))


def term_sum(V: np.ndarray) -> np.ndarray:
    """Sum over axis 1 in index order, the order a loop over the terms adds in."""
    return np.add.accumulate(V, axis=1)[:, -1]
