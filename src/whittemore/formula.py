"""Probability formulas: recursive forms plus a variable-binding environment.

A form is one of four shapes: an atomic conditional probability, a sum over
subscripted variables, a product of forms, or a fraction. Binding is lexical:
a variable is resolved by the innermost enclosing sum that subscripts it,
otherwise by the formula's root binding map. `sum_over`, `product` and
`fraction` build each node in normal form (see `simplify`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable, Mapping, Union

from .model import Model, Variable, variables


def _hash_once(cls):
    """Keep each node's hash in its `__dict__` once computed, outside the
    fields as `form_key` keeps its key. A pickle drops it, since the hash of
    a `str` variable changes with PYTHONHASHSEED."""
    fields_hash = cls.__hash__
    cls.__hash__ = lambda self: self.__dict__.get("_hash") or self.__dict__.setdefault(
        "_hash", fields_hash(self))
    cls.__getstate__ = lambda self: {k: v for k, v in self.__dict__.items() if k != "_hash"}
    return cls


@_hash_once
@dataclass(frozen=True)
class Prob:
    """P(p | given): an atomic conditional-probability term."""

    p: frozenset[Variable]
    given: frozenset[Variable] = frozenset()


@_hash_once
@dataclass(frozen=True)
class Sum:
    """Summation of `body` over every joint value of the `sub` variables."""

    body: "Form"
    sub: frozenset[Variable]


@_hash_once
@dataclass(frozen=True)
class Product:
    """Product of factors; order-insensitive (stored in a canonical order)."""

    factors: tuple["Form", ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(sorted(self.factors, key=form_key)))


@_hash_once
@dataclass(frozen=True)
class Fraction:
    numer: "Form"
    denom: "Form"


Form = Union[Prob, Sum, Product, Fraction]

ONE = Prob(frozenset())  # P() of nothing: the constant 1


def prob(p: Iterable[Any], given: Iterable[Any] = ()) -> Prob:
    return Prob(variables(p), variables(given))


def sum_over(body: Form, sub: Iterable[Any]) -> Form:
    """Sum `body` over `sub`, in normal form when `body` is.

    An empty subscript is the identity; a sum directly over a sum with a
    disjoint subscript merges into it; sum_T P(S | G) is P(S - T | G) when T
    is inside S and misses G.
    """
    subs = variables(sub)
    if not subs:
        return body
    if isinstance(body, Sum) and not (subs & body.sub):
        body, subs = body.body, subs | body.sub
    if isinstance(body, Prob) and subs <= body.p and not (subs & body.given):
        return Prob(body.p - subs, body.given)
    return Sum(body, subs)


def product(factors: Iterable[Form]) -> Form:
    """The product of `factors`, in normal form when they are: nested
    products are flattened, constant-1 factors dropped, and empty and
    singleton lists unwrapped."""
    fs: list[Form] = []
    for f in factors:
        if isinstance(f, Product):
            fs.extend(f.factors)
        elif f != ONE:
            fs.append(f)
    if not fs:
        return ONE
    if len(fs) == 1:
        return fs[0]
    return Product(tuple(fs))


def fraction(numer: Form, denom: Form) -> Form:
    """numer / denom, in normal form when they are: a fraction over ONE is its
    numerator, and P(A | G) / P(B | G) is P(A - B | G + B) when B is strictly
    inside A."""
    if denom == ONE:
        return numer
    if isinstance(numer, Prob) and isinstance(denom, Prob):
        if numer.given == denom.given and denom.p < numer.p:
            return Prob(numer.p - denom.p, numer.given | denom.p)
    return Fraction(numer, denom)


def form_key(f: Form):
    """Total order on forms, used to canonicalize product factor storage.

    The key is computed once per form object and kept on it outside the
    dataclass fields, so equality, hashing and repr never see it.
    """
    key = f.__dict__.get("_key")
    if key is None:
        if isinstance(f, Prob):
            key = (0, tuple(sorted(f.p)), tuple(sorted(f.given)))
        elif isinstance(f, Sum):
            key = (1, tuple(sorted(f.sub)), form_key(f.body))
        elif isinstance(f, Product):
            key = (2, tuple(form_key(x) for x in f.factors))
        else:
            key = (3, form_key(f.numer), form_key(f.denom))
        object.__setattr__(f, "_key", key)
    return key


@dataclass(frozen=True, eq=False)
class Formula:
    """A form plus the root bindings of its free variables.

    `effect` records which free variables the formula is a distribution over;
    it is carried as metadata and ignored by structural equality.
    """

    form: Form
    bindings: Mapping[Variable, Any] = field(default_factory=dict)
    effect: frozenset[Variable] | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        return self.form == other.form and dict(self.bindings) == dict(other.bindings)

    __hash__ = None


@dataclass(frozen=True, eq=False)
class Hedge:
    """Witness of non-identifiability: a pair of nested confounded forests.

    `forest` and `subforest` are induced submodels with subforest contained in
    forest; `witness` is the sub-effect set they block.
    """

    forest: Model
    subforest: Model
    witness: frozenset[Variable]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hedge):
            return NotImplemented
        return (
            self.forest == other.forest
            and self.subforest == other.subforest
            and self.witness == other.witness
        )

    __hash__ = None


@dataclass(frozen=True, eq=False)
class Fail:
    """The negative result of identification, carrying its hedge."""

    hedge: Hedge
    message: str

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fail):
            return NotImplemented
        return self.hedge == other.hedge

    __hash__ = None


def free_variables(f: Formula | Form) -> frozenset[Variable]:
    """Variables of f not captured by any enclosing sum subscript. The set is
    kept in the asked node's `__dict__`, as `form_key` keeps its key; the walk
    keeps none on the subnodes, where sets would cost heap no caller reads."""
    f = f.form if isinstance(f, Formula) else f
    free = f.__dict__.get("_free")
    if free is None:
        free = f.__dict__["_free"] = _free(f)
    return free


def _free(f: Form) -> frozenset[Variable]:
    if isinstance(f, Prob):
        return f.p | f.given
    if isinstance(f, Sum):
        return _free(f.body) - f.sub
    if isinstance(f, Product):
        # one pass, and one factor's set alive at a time
        return frozenset(chain.from_iterable(map(_free, f.factors)))
    return _free(f.numer) | _free(f.denom)
