"""Known answers without an oracle.

A metamorphic relation (Chen et al., ACM Computing Surveys 51(1), 2018):
an invertible linear map and a positive scale per row change no positive
hull's shape, so every index-valued answer must come out the same.  A
unimodular integer map keeps the rows integer.  Planted instances: rows
whose lineality space is built in, so its dimension and the reversible
rows are known without solving anything.  Both reach inputs that
``gen_random`` seldom draws, with coordinates far from the axes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conehelly import helly
from conehelly.cone import (
    HalfspaceSystem,
    lineality_dim,
    lineality_space,
    max_cone_dim,
    reversible_indices,
)
from conehelly.errors import CapacityError
from conehelly.posbasis import extract_positive_basis, extract_positive_basis_indices, reay_parts
from conehelly.ratlin import VectorSet, span_basis

from conftest import int_vector_sets, with_negated_copies


@st.composite
def unimodular(draw, n):
    """An n x n integer matrix of determinant +-1: the identity after a
    few row swaps, sign flips and shears row_i += c row_j."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["swap", "negate", "shear"]))
        if op == "swap":
            u[i], u[j] = u[j], u[i]
        elif op == "negate":
            u[i] = [-a for a in u[i]]
        elif i != j:
            c = draw(st.integers(-2, 2))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def times(row, u):
    """The row vector row times the matrix u."""
    return tuple(sum(a * u[i][j] for i, a in enumerate(row)) for j in range(len(u[0])))


def answers(vs):
    """Every index-valued answer on vs; a threshold past the capacity
    gate reads "refused"."""
    d = vs.ambient_dim
    witnesses = []
    for t in range(d + 1):
        try:
            witnesses.append(helly._minimal_lineality_witness(vs, t))
        except CapacityError:
            witnesses.append("refused")
    return (lineality_dim(vs), reversible_indices(vs), max_cone_dim(HalfspaceSystem(vs)),
            extract_positive_basis_indices(vs), reay_parts(extract_positive_basis(vs)),
            witnesses)


@st.composite
def mapped_instances(draw):
    """A set with antipodal pairs common, and its image under one
    unimodular map with each row then scaled by its own positive integer."""
    vs = draw(with_negated_copies(int_vector_sets(max_d=4, max_n=5, min_n=1, nonzero=True)))
    u = draw(unimodular(vs.ambient_dim))
    scales = draw(st.lists(st.integers(1, 4), min_size=len(vs), max_size=len(vs)))
    return vs, VectorSet(vs.ambient_dim, [tuple(s * a for a in times(r, u))
                                          for s, r in zip(scales, vs.int_rows)])


@settings(max_examples=150, deadline=None)
@given(mapped_instances())
def test_unimodular_map_and_positive_scales_change_no_answer(pair):
    vs, image = pair
    assert answers(image) == answers(vs)


@st.composite
def planted_instances(draw):
    """(d, rows, basis, planted): a positive basis of the span L of basis,
    a random subspace of e_d's complement, each vector scaled, among rows
    with a negative last coordinate, with doubled copies, shuffled;
    planted is the indices of the rows in L."""
    d = draw(st.integers(2, 5))
    u = draw(unimodular(d - 1))
    basis = [(*u[i], 0) for i in range(draw(st.integers(0, d - 1)))]
    if basis and draw(st.booleans()):
        pb = basis + [tuple(-sum(col) for col in zip(*basis))]
    else:
        pb = basis + [tuple(-a for a in b) for b in basis]
    coord = st.integers(-3, 3)
    scales = draw(st.lists(st.integers(1, 3), min_size=len(pb), max_size=len(pb)))
    rows = [(tuple(s * a for a in b), True) for s, b in zip(scales, pb)]
    rows += [((*(draw(coord) for _ in range(d - 1)), draw(st.integers(-3, -1))), False)
             for _ in range(draw(st.integers(0, 4)))]
    if rows:
        rows += [(tuple(2 * a for a in r), inside)
                 for r, inside in draw(st.lists(st.sampled_from(rows), max_size=3))]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    return d, [r for r, _ in rows], basis, tuple(
        i for i, (_, inside) in enumerate(rows) if inside)


@settings(max_examples=300, deadline=None)
@given(planted_instances())
def test_planted_lineality_is_found_exactly(data):
    d, rows, basis, planted = data
    vs = VectorSet(d, rows)
    assert lineality_dim(vs) == len(basis)
    assert reversible_indices(vs) == planted
    assert lineality_space(vs) == span_basis(basis, d)
