"""Brute-force oracles, independent of the simplex code path, and the
Fraction reference kernels that the integer kernels of ``ratlin`` and
``lp`` must reproduce.

Membership in a positive hull is decided here by conic Caratheodory:
b lies in pos(A) iff b is a nonnegative combination of some linearly
independent subset of A, and over an independent subset the coefficients
are unique, so an exact linear solve per subset settles the question.
The determinant bound argument makes this search complete, unlike a
naive integer coefficient grid, which would need entries up to the
Cramer denominators to be sound.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from conehelly import cone
from conehelly.cone import reversible_indices
from conehelly.lp import INFEASIBLE, OPTIMAL
from conehelly.ratlin import VectorSet


def _is_linear(rows):
    """is_linear without its memo: the sign pretest, then the uncached
    checked LP, so the reference shares no stored answer with the library."""
    return (cone._sign_separator(rows) is None
            and cone._lp_separator.__wrapped__(rows) is None)


def _rank(vectors, d):
    """Rank of rational or integer vectors: the pivot count of the
    reference Fraction Gauss-Jordan, so the oracles share neither a memo
    nor an elimination with the library."""
    return len(ref_rref_rows(vectors, d)[1])


def dot(u, v) -> Fraction:
    """Exact dot product of two vectors of ints or Fractions."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def in_span(s, v) -> bool:
    """v lies in the span of the subspace basis s: adding it keeps the rank."""
    return _rank([*s.basis, v], s.ambient_dim) == s.dim


# ---------------------------------------------------------------------------
# Reference kernels: plain Gauss-Jordan and the two-phase Bland simplex on
# Fractions, the arithmetic the library used before it moved to integers.
# The library keeps only phase 1; phase 2 stays here, to solve reference
# programs such as the interior-point LP in the tests.

UNBOUNDED = "unbounded"


@dataclass
class RefLPResult:
    status: str
    x: list | None = None
    objective: Fraction | None = None
    farkas: list | None = None  # infeasible case: y.A <= 0, y.b > 0


def ref_rref_rows(rows, ncols):
    """Gauss-Jordan on Fractions, pivoting on the first nonzero entry
    scanning rows top-down; returns (rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def ref_kernel_basis(rows, ncols):
    """Kernel basis read off the reference rref: one vector per free
    column, with a 1 in that column."""
    red, pivots = ref_rref_rows(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def _ref_pivot(tab, basis, r, c):
    piv = tab[r][c]
    tab[r] = [v / piv for v in tab[r]]
    prow = tab[r]
    for i in range(len(tab)):
        if i != r and tab[i][c] != 0:
            f = tab[i][c]
            tab[i] = [a - f * b for a, b in zip(tab[i], prow)]
    basis[r] = c


def _ref_run_simplex(tab, basis, ncols):
    m = len(tab) - 1
    while True:
        enter = next((j for j in range(ncols) if tab[m][j] < 0), -1)
        if enter < 0:
            return OPTIMAL
        leave, best = -1, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            return UNBOUNDED
        _ref_pivot(tab, basis, leave, enter)


def ref_solve_standard_form(a, b, c):
    """Two-phase Bland simplex on a Fraction tableau: minimize c.x subject
    to a x = b, x >= 0, with the phase-1 Farkas vector when infeasible."""
    m, n = len(a), len(c)
    one, zero = Fraction(1), Fraction(0)
    sign = [-one if b[i] < 0 else one for i in range(m)]
    tab = [[sign[i] * v for v in a[i]] + [one if j == i else zero for j in range(m)]
           + [sign[i] * b[i]] for i in range(m)]
    ncols = n + m
    basis = [n + i for i in range(m)]
    cost = [zero] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            cost[j] -= tab[i][j]
    for i in range(m):
        cost[n + i] = zero
    tab.append(cost)
    _ref_run_simplex(tab, basis, ncols)
    if -tab[m][ncols] > 0:
        return RefLPResult(INFEASIBLE, farkas=[sign[i] * (one - tab[m][n + i]) for i in range(m)])
    drop = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tab[i][j] != 0), None)
            if enter is None:
                drop.append(i)
            else:
                _ref_pivot(tab, basis, i, enter)
    for i in reversed(drop):
        del tab[i]
        del basis[i]
    m = len(basis)
    tab = [row[:n] + [row[ncols]] for row in tab[:m]]
    cost = [Fraction(x) for x in c] + [zero]
    for i in range(m):
        cb = c[basis[i]]
        if cb != 0:
            cost = [x - cb * y for x, y in zip(cost, tab[i])]
    tab.append(cost)
    if _ref_run_simplex(tab, basis, n) == UNBOUNDED:
        return RefLPResult(UNBOUNDED)
    x = [zero] * n
    for i in range(m):
        x[basis[i]] = tab[i][n]
    return RefLPResult(OPTIMAL, x=x, objective=sum((ci * xi for ci, xi in zip(c, x)), zero))


# ---------------------------------------------------------------------------
# Brute-force oracles


def _solve_columns(cols, b, d):
    """Unique solution of sum_j alpha_j cols[j] = b when the columns are
    independent; None when inconsistent."""
    n = len(cols)
    aug = [[cols[j][r] for j in range(n)] + [b[r]] for r in range(d)]
    red, piv = ref_rref_rows(aug, n + 1)
    if n in piv or len(piv) != n:
        return None
    return [red[i][n] for i in range(n)]


def oracle_in_pos(b, vs: VectorSet) -> bool:
    d = vs.ambient_dim
    if all(c == 0 for c in b):
        return True
    for size in range(1, d + 1):
        for t in combinations(range(len(vs)), size):
            cols = [vs[i] for i in t]
            if _rank(cols, d) < size:
                continue
            sol = _solve_columns(cols, b, d)
            if sol is not None and all(a >= 0 for a in sol):
                return True
    return False


def oracle_reversible(vs: VectorSet) -> tuple[int, ...]:
    """Indices whose negative lies in pos(vs), by exhaustive search."""
    return tuple(i for i, v in enumerate(vs)
                 if oracle_in_pos(tuple(-c for c in v), vs))


def oracle_lineality_dim(vs: VectorSet) -> int:
    members = oracle_reversible(vs)
    return _rank([vs[i] for i in members], vs.ambient_dim)


def oracle_lineality_contains(vs: VectorSet, w) -> bool:
    """w in lpos(vs): both w and -w in pos(vs)."""
    return oracle_in_pos(w, vs) and oracle_in_pos(tuple(-c for c in w), vs)


def _oracle_positively_spans(x: VectorSet, target) -> bool:
    """pos(x) = target: x lies in the target, and +- every basis vector of
    the target lies in pos(x), each decided by oracle_in_pos."""
    d = x.ambient_dim
    dim = len(target.basis)
    if any(_rank([*target.basis, v], d) > dim for v in x):
        return False
    return all(oracle_in_pos(w, x) and oracle_in_pos(tuple(-c for c in w), x)
               for w in target.basis)


def oracle_is_positive_basis(x: VectorSet, target) -> bool:
    """pos(x) = target, and pos(x minus any one element) is not."""
    if not _oracle_positively_spans(x, target):
        return False
    return not any(
        _oracle_positively_spans(x.subset([j for j in range(len(x)) if j != i]),
                                 target)
        for i in range(len(x)))


def oracle_check_hypothesis(vs: VectorSet, k: int, cap: int) -> bool:
    """Direct subset scan: every subset of size <= cap has oracle
    lineality dimension <= k."""
    n = len(vs)
    for size in range(0, min(cap, n) + 1):
        for t in combinations(range(n), size):
            if oracle_lineality_dim(vs.subset(t)) > k:
                return False
    return True


def oracle_minimal_witness(vs: VectorSet, k: int, cap: int, dims=None):
    """Lexicographically-first smallest subset with oracle lineality
    dimension above k, scanning sizes ascending; None if none within cap.
    A caller asking several k of one vs may pass the same dict as dims,
    which keeps the oracle lineality dimension of each subset across the
    calls."""
    n = len(vs)
    dims = {} if dims is None else dims
    for size in range(1, min(cap, n) + 1):
        for t in combinations(range(n), size):
            if t not in dims:
                dims[t] = oracle_lineality_dim(vs.subset(t))
            if dims[t] > k:
                return t
    return None


def plain_minimal_witness(vs: VectorSet, threshold: int):
    """The minimal-witness search without its cut pool or the memos: the
    linearity certificate and then the reference rank of every subset of
    the reversible generators, sizes ascending up to h(threshold, d), each
    size in index-lexicographic order.  Returns (the first witness or
    None, candidates scanned)."""
    rows, d = vs.int_rows, vs.ambient_dim
    members = reversible_indices(vs)
    top = min(max(d + 1, 2 * (threshold + 1)), len(members))
    scanned = 0
    for size in range(threshold + 2, top + 1):
        for combo in combinations(members, size):
            scanned += 1
            sub = [rows[i] for i in combo]
            if _is_linear(sub) and _rank(sub, d) > threshold:
                return combo, scanned
    return None, scanned


def ref_extract_positive_basis_indices(vs: VectorSet) -> tuple[int, ...]:
    """The greedy deletion of the extraction's docstring, run to the end
    with the oracles' own rank and linearity: starting from the
    reversible generators, delete each in input order when the rest keeps
    the target's rank and is linear."""
    rows, d = vs.int_rows, vs.ambient_dim
    keep = list(reversible_indices(vs))
    target = _rank([rows[i] for i in keep], d)
    for idx in tuple(keep):
        rest = [rows[i] for i in keep if i != idx]
        if _rank(rest, d) == target and _is_linear(rest):
            keep.remove(idx)
    return tuple(keep)


def oracle_first_independent(vs: VectorSet, size: int):
    """Lexicographically-first linearly independent subset of the given
    size, by scanning every subset in order; None if there is none."""
    for t in combinations(range(len(vs)), size):
        if _rank([vs[i] for i in t], vs.ambient_dim) == size:
            return t
    return None
