"""Categorical distributions, the distribution protocol, and formula evaluation.

Any object implementing estimate/measure/signature can stand in for a
distribution; the only shipped implementation is a categorical joint with
empirical (maximum-likelihood) weights. Sample-built distributions keep
integer counts so that measures are exact sample ratios.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from .errors import DataFormatError, EstimationError, UnknownVariableError
from .formula import Fail, Form, Formula, Fraction, Prob, Product, Sum, free_variables
from .identify import Query, identify
from .model import Data, Model, Variable, as_event

Event = Mapping[Variable, Any]

_NORMALIZATION_TOL = 1e-9


def _mass(table: Mapping[tuple, float], values: tuple) -> float:
    try:
        return table.get(values, 0.0)
    except TypeError:  # an unhashable value, which no cell can hold
        return 0.0


def _event_fault(event: Any, names: tuple[Variable, ...] | None) -> str:
    if not isinstance(event, Mapping):
        return f"is not a map of variables to values: {event!r}"
    for k in event:
        if not isinstance(k, str):
            return f"has a non-string key {k!r}"
    if names is not None and set(event) != set(names):
        return f"has variables {sorted(map(str, event))}, expected {list(map(str, names))}"
    return "has an unhashable value"


class CategoricalDistribution:
    """A finite joint distribution over categorical variables.

    Cells are keyed by value tuples aligned with the sorted variable order.
    `total` is the normalizer: the sample count for empirical distributions,
    1.0 for distributions given directly by weights.
    """

    def __init__(
        self,
        variables: Sequence[Variable],
        support: Mapping[Variable, tuple],
        cells: Mapping[tuple, float | int],
        total: float | int,
    ):
        self._variables = tuple(variables)
        self._support = dict(support)
        self._cells = dict(cells)
        self._total = total
        # marginal tables by variable positions, filled on first use
        self._tables: dict[tuple[int, ...], dict[tuple, float]] = {}

    @classmethod
    def from_samples(cls, samples: Iterable[Mapping[Any, Any]]) -> "CategoricalDistribution":
        """Build from sample events, each counting once. The rows of a
        SampleTable are counted as they are, with no event built per row."""
        if isinstance(samples, SampleTable):
            return cls._from_cells(samples.header, Counter(samples.rows), None)
        return cls._from_pairs(zip(samples, itertools.repeat(1)))

    @classmethod
    def from_counts(
        cls, counts: Iterable[tuple[Mapping[Any, Any], int]]
    ) -> "CategoricalDistribution":
        """Build from (full event, nonnegative integer count) pairs."""
        return cls._from_pairs(counts)

    @classmethod
    def from_weights(
        cls, weights: Iterable[tuple[Mapping[Any, Any], float]], tolerance: float = 1e-12
    ) -> "CategoricalDistribution":
        """Build from (full event, probability) pairs summing to one."""
        return cls._from_pairs(weights, tolerance)

    @classmethod
    def _from_pairs(
        cls, pairs: Iterable[tuple[Mapping[Any, Any], Any]], tolerance: float | None = None
    ) -> "CategoricalDistribution":
        """Count (event, weight) pairs into cells in one pass.

        The first event fixes the variables, and every later event is read
        by those names. A repeated event adds to its cell. The cells are
        then finished by `_from_cells`.
        """
        names = None
        cells: dict[tuple, Any] = {}
        for i, (event, weight) in enumerate(pairs):
            if weight < 0:
                raise DataFormatError(f"event {i} has negative weight {weight!r}")
            try:
                if names is None:
                    if not all(isinstance(k, str) for k in event):
                        raise TypeError
                    names = tuple(sorted(Variable(k) for k in event))
                if len(event) != len(names):
                    raise KeyError
                key = tuple([event[v] for v in names])
                cells[key] = cells.get(key, 0) + weight
            except (TypeError, KeyError):
                raise DataFormatError(f"event {i} {_event_fault(event, names)}") from None
        return cls._from_cells(names, cells, tolerance)

    @classmethod
    def _from_cells(
        cls, columns: Sequence[Variable], cells: Mapping[tuple, Any], tolerance: float | None
    ) -> "CategoricalDistribution":
        """Finish a distribution from weights keyed by value tuples aligned
        with `columns`, in first-seen order.

        The variables are sorted and each key permuted to match, and each
        support lists values in first-seen order, so the cost grows with the
        cells, not with the events counted. With a tolerance the weights are
        probabilities whose mass must be 1, and the normalizer is 1.0;
        otherwise it is the total weight.
        """
        if not cells:
            raise DataFormatError("no events to build a distribution from")
        total = sum(cells.values())
        if not total > 0:
            raise DataFormatError("the events have zero total weight")
        if tolerance is not None:
            mass = math.fsum(cells.values())
            if abs(mass - 1.0) > tolerance:
                raise EstimationError(
                    f"weights sum to {mass!r}, not 1 (tolerance {tolerance:g})"
                )
            total = 1.0
        names = tuple(sorted(columns))
        if names != tuple(columns):
            order = [columns.index(v) for v in names]
            cells = {tuple([key[i] for i in order]): w for key, w in cells.items()}
        support = {
            v: tuple(dict.fromkeys(key[j] for key in cells)) for j, v in enumerate(names)
        }
        return cls(names, support, cells, total)

    @property
    def variables(self) -> tuple[Variable, ...]:
        return self._variables

    @property
    def support(self) -> dict[Variable, tuple]:
        return dict(self._support)

    def signature(self) -> Data:
        return Data(self._variables)

    def measure(self, event: Mapping[Any, Any]) -> float:
        """Probability of the event; unmentioned variables are marginalized."""
        ev = as_event(event)
        names, table = self._marginal(ev)
        return _mass(table, tuple([ev[v] for v in names]))

    def _marginal(self, variables) -> tuple[tuple[Variable, ...], dict[tuple, float]]:
        """The variables in distribution order, and their marginal table.

        The table maps each value tuple to its mass: the `math.fsum` of the
        matching cells over the total. It is built in one pass over the cells
        on first use and then kept, since the cells never change.
        """
        positions = tuple(i for i, v in enumerate(self._variables) if v in variables)
        if len(positions) != len(variables):
            unknown = set(variables) - set(self._variables)
            raise UnknownVariableError(f"not in distribution: {sorted(unknown)}")
        table = self._tables.get(positions)
        if table is None:
            groups: dict[tuple, list] = {}
            for key, weight in self._cells.items():
                groups.setdefault(tuple([key[i] for i in positions]), []).append(weight)
            table = self._tables[positions] = {
                values: math.fsum(weights) / self._total for values, weights in groups.items()
            }
        return tuple([self._variables[i] for i in positions]), table

    def estimate(self, target: Formula | Query):
        """Apply a formula (or query) to this distribution.

        Bound targets yield a new distribution over the effect variables;
        fully bound (event) targets yield a scalar probability.
        """
        if isinstance(target, Fail):
            raise EstimationError(f"cannot estimate a failed identification: {target.message}")
        if isinstance(target, Query):
            target = self._query_formula(target)
        if not isinstance(target, Formula):
            raise EstimationError(f"cannot estimate a {type(target).__name__}")
        free = free_variables(target)
        effect = target.effect if target.effect is not None else free - set(target.bindings)
        required = (free - effect) - set(target.bindings)
        if required:
            raise EstimationError(
                "formula cannot be used as an argument to estimate without first "
                f"providing the necessary variable bindings: {sorted(required)}"
            )
        open_vars = tuple(sorted(effect - set(target.bindings)))
        if not open_vars:
            return evaluate(self, target)
        cells = dict(_Evaluator(self).each(target.form, target.bindings, open_vars))
        mass = math.fsum(cells.values())
        if abs(mass - 1.0) > _NORMALIZATION_TOL:
            raise EstimationError(
                f"estimated distribution over {list(open_vars)} has total mass {mass!r}; "
                "the formula does not define a normalized distribution here"
            )
        support = {v: self._support[v] for v in open_vars}
        return CategoricalDistribution(open_vars, support, cells, 1.0)

    def _query_formula(self, query: Query) -> Formula:
        if query.do:
            raise EstimationError(
                "causal query has no meaning without a model: use identify or infer"
            )
        form = Prob(frozenset(query.effect), frozenset(query.given))
        bindings = query.bound_values()
        return Formula(form, bindings, effect=frozenset(query.effect))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CategoricalDistribution):
            return NotImplemented
        if self._variables != other._variables:
            return False
        keys = set(self._cells) | set(other._cells)
        return all(
            math.isclose(
                self._cells.get(k, 0) / self._total,
                other._cells.get(k, 0) / other._total,
                rel_tol=0.0,
                abs_tol=1e-12,
            )
            for k in keys
        )

    __hash__ = None

    def __repr__(self) -> str:
        vs = " ".join(repr(v) for v in self._variables)
        return f"<categorical over [{vs}], {len(self._cells)} outcomes>"


class SampleTable(Sequence):
    """Sample events read from a table: a header of variables and rows of cells.

    An immutable sequence of events: indexing and iteration give a fresh
    `{Variable: cell}` map per row, a slice is a table, and a table equals a
    list or tuple of maps that holds the same events in the same order.
    Each row is a tuple with one cell per header variable, so `categorical`
    counts the rows as they are.
    """

    __slots__ = ("header", "rows")

    def __init__(self, header: Sequence[Variable], rows: Sequence[tuple]):
        object.__setattr__(self, "header", tuple(header))
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("SampleTable is immutable")

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SampleTable(self.header, self.rows[index])
        return dict(zip(self.header, self.rows[index]))

    def __eq__(self, other) -> bool:
        if isinstance(other, SampleTable) and other.header == self.header:
            return self.rows == other.rows
        if not isinstance(other, (SampleTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        vs = " ".join(repr(v) for v in self.header)
        return f"<sample table over [{vs}], {len(self.rows)} rows>"


def categorical(samples: Iterable[Mapping[Any, Any]]) -> CategoricalDistribution:
    """Infer an empirical categorical joint from a vector of sample events."""
    if not isinstance(samples, Iterable):
        raise DataFormatError(
            f"categorical needs a collection of sample events, got {type(samples).__name__}"
        )
    return CategoricalDistribution.from_samples(samples)


def _method(distribution, name: str):
    """The `name` method of a distribution, or an error naming what was given."""
    method = getattr(distribution, name, None)
    if not callable(method):
        raise EstimationError(
            f"{name} needs a distribution, got {type(distribution).__name__}"
        )
    return method


def signature(distribution) -> Data:
    return _method(distribution, "signature")()


def measure(distribution, event: Mapping[Any, Any]) -> float:
    return _method(distribution, "measure")(event)


def estimate(distribution, target):
    return _method(distribution, "estimate")(target)


class _Evaluator:
    """Recursive form evaluation against one categorical distribution.

    Each P(·) term is resolved on its first visit to its variables and
    marginal tables, so a summed assignment costs tuple builds and lookups.
    `each` enumerates the joint values of a set of variables, both for a Sum
    and for the cells of an estimated distribution.
    """

    def __init__(self, dist: CategoricalDistribution):
        self.dist = dist
        self.zero_conditionals = 0  # diagnostic: 0/0 conditionals hit
        self._terms: dict[Prob, tuple] = {}

    def run(self, form: Form, env: Mapping[Variable, Any]) -> float:
        if isinstance(form, Prob):
            term = self._terms.get(form)
            if term is None:
                term = self._terms[form] = self._resolve(form, env)
            names, joint, given_names, given = term
            numer = _mass(joint, self._values(env, names))
            if given is None:
                return numer
            denom = _mass(given, self._values(env, given_names))
            if denom == 0.0:
                self.zero_conditionals += 1
                return 0.0
            return numer / denom
        if isinstance(form, Sum):
            total = 0.0  # added in order, not with sum(), which compensates on 3.12+
            for _, value in self.each(form.body, env, sorted(form.sub)):
                total += value
            return total
        if isinstance(form, Product):
            out = 1.0
            for factor in form.factors:
                out *= self.run(factor, env)
            return out
        if isinstance(form, Fraction):
            denom = self.run(form.denom, env)
            if denom == 0.0:
                self.zero_conditionals += 1
                return 0.0
            return self.run(form.numer, env) / denom
        raise EstimationError(f"cannot evaluate {type(form).__name__}")

    def each(self, form: Form, env: Mapping[Variable, Any], names: Sequence[Variable]):
        """Yield (values, result) for each joint value of `names`, in support
        order: `form` evaluated in env overlaid by those values."""
        supports = []
        for v in names:
            if v not in self.dist._support:
                raise UnknownVariableError(f"not in distribution: {v!r}")
            supports.append(self.dist._support[v])
        for values in itertools.product(*supports):
            inner = dict(env)
            inner.update(zip(names, values))
            yield values, self.run(form, inner)

    def _resolve(self, form: Prob, env: Mapping[Variable, Any]) -> tuple:
        joint = form.p | form.given
        self._values(env, joint)  # an unbound variable is reported before an unknown one
        names, table = self.dist._marginal(joint)
        if not form.given:
            return names, table, (), None
        return (names, table) + self.dist._marginal(form.given)

    @staticmethod
    def _values(env: Mapping[Variable, Any], names) -> tuple:
        try:
            return tuple([env[v] for v in names])
        except KeyError as exc:
            raise EstimationError(
                f"unbound variable {exc.args[0]!r} during formula evaluation"
            ) from None


def evaluate(
    dist: CategoricalDistribution,
    formula: Formula | Form,
    context: Mapping[Any, Any] | None = None,
) -> float:
    """Evaluate a formula to a probability under the given variable context.

    The root environment is the formula's bindings overlaid by `context`;
    sums shadow both, giving lexical scoping.
    """
    if isinstance(formula, Formula):
        env = dict(formula.bindings)
        form = formula.form
    else:
        env = {}
        form = formula
    if context:
        env.update(as_event(context, "context"))
    return _Evaluator(dist).run(form, env)


def infer(model: Model, distribution, query: Query):
    """identify against the distribution's signature, then estimate.

    A Fail from identification is returned as-is.
    """
    result = identify(model, signature(distribution), query)
    if isinstance(result, Fail):
        return result
    return estimate(distribution, result)
