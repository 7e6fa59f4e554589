"""Shared hypothesis strategies for rings, monomials and polynomials."""

from hypothesis import strategies as st

from modgrob import QQ, ZZ, Block, DegRevLex, Lex, Polynomial
from modgrob.polyring import ring

VARIABLE_POOLS = [("x",), ("y", "x"), ("z", "y", "x")]
VARIABLES = dict(enumerate(VARIABLE_POOLS, start=1))


def orders(max_front=1):
    simple = st.sampled_from([Lex(), DegRevLex()])
    return simple


def block_orders(arity):
    simple = st.sampled_from([Lex(), DegRevLex()])
    fronts = st.integers(min_value=1, max_value=max(arity - 1, 1))
    return st.builds(
        lambda k, fo, bo: Block(tuple(range(k)), fo, bo),
        fronts, simple, simple)


def monomials(arity, max_degree=6):
    return st.lists(st.integers(min_value=0, max_value=max_degree),
                    min_size=arity, max_size=arity).map(tuple)


@st.composite
def rings(draw, domains=(ZZ, QQ), allow_block=False, order_pool=None):
    variables = draw(st.sampled_from(VARIABLE_POOLS))
    if order_pool is not None:
        order = draw(st.sampled_from(list(order_pool)))
    elif allow_block and len(variables) > 1:
        order = draw(st.one_of(orders(), block_orders(len(variables))))
    else:
        order = draw(orders())
    domain = draw(st.sampled_from(list(domains)))
    return ring(variables, order, domain)


@st.composite
def bounded_monomials(draw, arity, max_degree):
    """An exponent vector drawn by its total degree first, then split among
    the variables at sorted cut points: no draw is filtered away."""
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=degree),
                                min_size=arity - 1, max_size=arity - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


@st.composite
def polynomials(draw, ring_, max_terms=4, max_degree=3, max_coeff=9,
                allow_zero=True):
    """max_degree bounds the total degree of every term."""
    terms = draw(st.lists(
        st.tuples(st.integers(min_value=-max_coeff, max_value=max_coeff),
                  bounded_monomials(ring_.arity, max_degree)),
        min_size=0 if allow_zero else 1, max_size=max_terms))
    poly = Polynomial.from_terms(ring_, terms)
    if not allow_zero and poly.is_zero:
        poly = Polynomial.constant(ring_, 1)
    return poly


@st.composite
def ring_and_polys(draw, count=2, domains=(ZZ, QQ), allow_zero=True,
                   order_pool=None, **kw):
    ring_ = draw(rings(domains=domains, order_pool=order_pool))
    polys = [draw(polynomials(ring_, allow_zero=allow_zero, **kw))
             for _ in range(count)]
    return ring_, polys
