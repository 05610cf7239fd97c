"""Random forms and joints for property tests.

`random_form` builds raw dataclass nodes by default, so that a form can hold
every shape the normal form removes; with `BUILT` it makes the same tree
through the normalising constructors instead. It reads free variables by
`reference_free`, so that a form it returns keeps no free-variable set.
"""
import itertools

from whittemore import (
    CategoricalDistribution,
    Fraction,
    Prob,
    Product,
    Sum,
    fraction,
    free_variables,
    prob,
    product,
    sum_over,
    variables,
)

# (sum, product, fraction) builders
RAW = (lambda body, sub: Sum(body, variables(sub)), lambda fs: Product(tuple(fs)), Fraction)
BUILT = (sum_over, product, fraction)


def random_joint(rng, names):
    weights = []
    raw = [rng.uniform(0.05, 1.0) for _ in range(2 ** len(names))]
    total = sum(raw)
    for bits, w in zip(itertools.product((0, 1), repeat=len(names)), raw):
        weights.append((dict(zip(names, bits)), w / total))
    return CategoricalDistribution.from_weights(weights)


def random_form(rng, names, build=RAW, depth=0):
    """A random form over `names`. Both builders draw the same numbers from
    rng, as the normal form keeps every node's free variables."""
    build_sum, build_product, build_fraction = build
    kinds = ["prob"] if depth >= 3 else ["prob", "prob", "sum", "product", "fraction"]
    kind = rng.choice(kinds)
    if kind == "prob":
        p = rng.sample(names, rng.randint(1, len(names)))
        rest = [n for n in names if n not in p]
        given = rng.sample(rest, rng.randint(0, len(rest)))
        return prob(p, given)
    if kind == "sum":
        body = random_form(rng, names, build, depth + 1)
        candidates = sorted(reference_free(body))
        return build_sum(body, rng.sample(candidates, rng.randint(0, len(candidates))))
    if kind == "product":
        return build_product(
            [random_form(rng, names, build, depth + 1) for _ in range(rng.randint(1, 3))]
        )
    return build_fraction(
        random_form(rng, names, build, depth + 1), random_form(rng, names, build, depth + 1)
    )


def assignments(dist, form):
    names = sorted(free_variables(form))
    for bits in itertools.product(*(dist.support[v] for v in names)):
        yield dict(zip(names, bits))


def reference_free(f) -> frozenset:
    """The free variables of a form by a fresh walk, reading nothing kept."""
    if isinstance(f, Prob):
        return f.p | f.given
    if isinstance(f, Sum):
        return reference_free(f.body) - f.sub
    if isinstance(f, Product):
        return frozenset().union(*map(reference_free, f.factors))
    return reference_free(f.numer) | reference_free(f.denom)


def nodes(f):
    """Every node of a form, the root first, in a fixed order."""
    yield f
    if isinstance(f, Sum):
        yield from nodes(f.body)
    elif isinstance(f, Product):
        for factor in f.factors:
            yield from nodes(factor)
    elif isinstance(f, Fraction):
        yield from nodes(f.numer)
        yield from nodes(f.denom)


def count_nodes(f) -> int:
    if isinstance(f, Prob):
        return 1
    if isinstance(f, Sum):
        return 1 + count_nodes(f.body)
    if isinstance(f, Product):
        return 1 + sum(count_nodes(x) for x in f.factors)
    return 1 + count_nodes(f.numer) + count_nodes(f.denom)
