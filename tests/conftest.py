import importlib
import json
import pkgutil
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import conehelly
from conehelly import lp
from conehelly.fuzzing import FuzzConfig
from conehelly.ratlin import VectorSet

# Every memo of the package: each module attribute with a cache_clear.
_MODULES = [conehelly] + [importlib.import_module(f"conehelly.{info.name}")
                          for info in pkgutil.iter_modules(conehelly.__path__)]
CACHES = list({id(v): v for m in _MODULES for v in vars(m).values()
               if callable(getattr(v, "cache_clear", None))}.values())


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test with every memo empty, so an answer stored by an
    earlier test cannot stand in for a call the test makes or patches."""
    for cache in CACHES:
        cache.cache_clear()

# The golden CLI corpus: recorded invocations, each with its argv, stdin,
# exit code and exact stdout (see test_golden).
with open(Path(__file__).parent / "fixtures" / "golden_cli.json", encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

# The two fuzz streams of the acceptance criteria.
POS_FUZZ = FuzzConfig(d_max=5, n_max=12, bound=3, trials=1000,
                      seed=20260810, checks=("pos_helly",))
CONE_FUZZ = FuzzConfig(d_max=4, n_max=10, bound=3, trials=500, seed=31337)


def small_fraction(max_num=5, max_den=3):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


@st.composite
def int_vector_sets(draw, max_d=4, max_n=6, bound=3, min_n=0, nonzero=False):
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(min_n, max_n))
    coord = st.integers(-bound, bound)
    vectors = []
    for _ in range(n):
        v = tuple(Fraction(draw(coord)) for _ in range(d))
        if nonzero and all(c == 0 for c in v):
            v = v[:-1] + (Fraction(1),)
        vectors.append(v)
    return VectorSet(d, tuple(vectors))


@st.composite
def with_negated_copies(draw, sets, max_copies=None):
    """A set drawn from sets followed by the negations of up to max_copies
    of its vectors, so that antipodal pairs and lineality are common."""
    a = draw(sets)
    picks = draw(st.lists(st.integers(0, len(a) - 1), unique=True,
                          max_size=max_copies)) if len(a) else []
    return VectorSet(a.ambient_dim, a.vectors + tuple(
        tuple(-c for c in a[i]) for i in picks))


@contextmanager
def counting_lps():
    """A list that gains one entry per lp.nonneg_combination call inside
    the block."""
    calls = []
    real = lp.nonneg_combination
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "nonneg_combination",
                   lambda *args: calls.append(1) or real(*args))
        yield calls


@contextmanager
def counting_pivots():
    """A list that gains the position (r, c) of each pivot that
    lp.nonneg_combination takes inside the block: r its row and c its
    column slot."""
    calls = []
    real = lp._pivot

    def pivot(m, r, c, prev, exchange=False):
        calls.append((r, c))
        return real(m, r, c, prev, exchange)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_pivot", pivot)
        yield calls


@st.composite
def rational_matrices(draw, max_rows=4, max_cols=4):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = tuple(
        tuple(draw(small_fraction()) for _ in range(ncols))
        for _ in range(nrows)
    )
    return rows, ncols


def fractions_built(fn, *args) -> int:
    """The number of Fractions constructed while fn(*args) runs, counted
    by a wrapper around Fraction.__new__ (arithmetic results included)."""
    built = 0
    new = Fraction.__dict__["__new__"]

    def counting(cls, *a, **kw):
        nonlocal built
        built += 1
        return new.__func__(cls, *a, **kw)

    Fraction.__new__ = staticmethod(counting)
    try:
        fn(*args)
    finally:
        Fraction.__new__ = new
    return built
