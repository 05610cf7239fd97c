"""Categorical distributions, the distribution protocol, and formula evaluation.

Any object implementing estimate/measure/signature can stand in for a
distribution; the only shipped implementation is a categorical joint with
empirical (maximum-likelihood) weights. Sample-built distributions keep
integer counts so that measures are exact sample ratios.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

from .errors import DataFormatError, EstimationError, UnknownVariableError
from .formula import Fail, Form, Formula, Fraction, Prob, Product, Sum, free_variables
from .identify import Query, _bind, _derive, _shape
from .model import Data, Model, Variable, as_event

Event = Mapping[Variable, Any]

_NORMALIZATION_TOL = 1e-9


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
        # marginal and conditional tables by their variable sets, and compiled
        # programs by form (_Evaluator.compile), filled on first use
        self._tables: dict[tuple[frozenset, frozenset], tuple[tuple, dict[tuple, float]]] = {}
        self._programs: dict[Form, Callable] = {}

    @classmethod
    def from_samples(cls, samples: Iterable[Mapping[Any, Any]]) -> "CategoricalDistribution":
        """Build from sample events, each counting once. A SampleTable's
        codes are counted and each mapped to its distinct row, with no event
        or row tuple built per row."""
        if isinstance(samples, SampleTable):
            cells = {samples.distinct[code]: n for code, n in Counter(samples.codes).items()}
            return cls._from_cells(samples.header, cells, None)
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
        # built on the first call and kept, as the variables never change
        if "_signature" not in self.__dict__:
            self._signature = Data(self._variables)
        return self._signature

    def measure(self, event: Mapping[Any, Any]) -> float:
        """Probability of the event; unmentioned variables are marginalized."""
        ev = as_event(event)
        names, table = self._table(frozenset(ev))
        try:
            return table.get(tuple([ev[v] for v in names]), 0.0)
        except TypeError:  # an unhashable value, which no cell can hold
            return 0.0

    def _table(self, variables: frozenset, given: frozenset = frozenset()) -> tuple:
        """The variables in distribution order, and their table.

        The marginal table maps each value tuple to its mass: the `math.fsum`
        of the matching cells over the total. With `given`, a subset, the
        table maps each key of the marginal table whose `given` part has
        positive mass to the quotient of the two masses. A table is built on
        first use and then kept, since the cells never change.
        """
        found = self._tables.get((variables, given))
        if found is None:
            if given:
                names, masses = self._table(variables)
                given_names, denoms = self._table(given)
                at = [names.index(v) for v in given_names]
                table = {}
                for values, numer in masses.items():
                    denom = denoms[tuple([values[i] for i in at])]
                    if denom != 0.0:
                        table[values] = numer / denom
            else:
                positions = [i for i, v in enumerate(self._variables) if v in variables]
                if len(positions) != len(variables):
                    unknown = set(variables) - set(self._variables)
                    raise UnknownVariableError(f"not in distribution: {sorted(unknown)}")
                groups: dict[tuple, list] = {}
                for key, weight in self._cells.items():
                    groups.setdefault(tuple([key[i] for i in positions]), []).append(weight)
                table = {values: math.fsum(ws) / self._total for values, ws in groups.items()}
                names = tuple([self._variables[i] for i in positions])
            found = self._tables[variables, given] = names, table
        return found

    def _supports(self, names: Sequence[Variable]) -> list[tuple]:
        """The support of each of `names`, in order."""
        try:
            return [self._support[v] for v in names]
        except KeyError as exc:
            raise UnknownVariableError(f"not in distribution: {exc.args[0]!r}") from None

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
        evaluator = _Evaluator(self)
        run, env, cells = evaluator.compile(target.form), dict(target.bindings), {}
        for values in itertools.product(*self._supports(open_vars)):
            env.update(zip(open_vars, values))
            cells[values] = run(env, evaluator)
        mass = math.fsum(cells.values())
        if abs(mass - 1.0) > _NORMALIZATION_TOL:
            if evaluator.empty_stratum is not None:
                stratum = ", ".join(f"{v!r} = {value!r}" for v, value in evaluator.empty_stratum)
                raise EstimationError(
                    f"estimated distribution over {list(open_vars)} is undefined: "
                    f"the data have no mass where {stratum}"
                )
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

    def __getstate__(self) -> dict:
        # compiled programs are closures, which do not pickle; a copy compiles anew
        return {**self.__dict__, "_programs": {}}

    def __repr__(self) -> str:
        vs = " ".join(repr(v) for v in self._variables)
        return f"<categorical over [{vs}], {len(self._cells)} outcomes>"


class SampleTable(Sequence):
    """Sample events read from a table: a header of variables, the distinct
    rows of cells, and one code per row.

    An immutable sequence of events: indexing and iteration give a fresh
    `{Variable: cell}` map per row, a slice is a table, and a table equals a
    list or tuple of maps that holds the same events in the same order.
    `distinct` holds each row tuple once, in first-seen order, and `codes`
    gives each row's index into it, so a repeated record costs one int and
    `categorical` counts the codes. Rows equal as tuples share one code and
    one stored tuple. The constructor takes rows already coded, as `_code`
    codes them.
    """

    __slots__ = ("header", "distinct", "codes")

    def __init__(
        self, header: Sequence[Variable], distinct: tuple[tuple, ...], codes: tuple[int, ...]
    ):
        object.__setattr__(self, "header", tuple(header))
        object.__setattr__(self, "distinct", distinct)
        object.__setattr__(self, "codes", codes)

    def __setattr__(self, name, value):
        raise AttributeError("SampleTable is immutable")

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Every row in order, each a shared tuple from `distinct`."""
        return tuple(map(self.distinct.__getitem__, self.codes))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            kept, codes = _code(self.codes[index])
            return SampleTable(self.header, tuple(map(self.distinct.__getitem__, kept)), codes)
        return dict(zip(self.header, self.distinct[self.codes[index]]))

    def __eq__(self, other) -> bool:
        if isinstance(other, SampleTable) and other.header == self.header:
            # both are coded in first-seen order, so equal rows give equal codes
            return self.codes == other.codes and self.distinct == other.distinct
        if not isinstance(other, (SampleTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        vs = " ".join(repr(v) for v in self.header)
        return f"<sample table over [{vs}], {len(self.codes)} rows>"


def _code(items: Iterable) -> tuple[tuple, tuple[int, ...]]:
    """The distinct items in first-seen order, and each item's index into them."""
    # an item seen for the first time gets the next code
    index: defaultdict[Any, int] = defaultdict(itertools.count().__next__)
    codes = tuple(map(index.__getitem__, items))
    return tuple(index), codes


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
    """Formula evaluation against one categorical distribution, by compilation.

    `compile` turns each form node into a closure from an environment and an
    evaluator to a float. Equal P(·) terms share one closure, which resolves
    its tables on its first call; a term then costs a key build and a dict
    lookup, into the distribution's memoised quotients for a conditional. A
    Sum keeps a table of the body factors that no binding reaches (`_sum`).
    The distribution keeps each form's program for its lifetime, and what a
    program resolves or keeps holds for any call.

    An evaluator holds the state of one call: 0/0s are recorded in the
    evaluator passed in. `zero_conditionals` counts the 0/0 conditionals
    evaluated, and `empty_stratum` holds the first one's denominator as
    (variable, value) pairs. A sum's closed factors are evaluated once per
    value of the summed variables they read, when its table is built, and
    every call is given the 0/0s of that build; its open factors are not
    evaluated where the closed factors weigh zero.
    """

    def __init__(self, dist: CategoricalDistribution):
        self.dist = dist
        self.zero_conditionals = 0  # diagnostic: 0/0 conditionals hit
        self.empty_stratum: tuple | None = None
        self._probs: dict[Prob, Callable] = {}

    def run(self, form: Form, env: Mapping[Variable, Any]) -> float:
        return self.compile(form)(env, self)

    def compile(self, form: Form) -> Callable[[Mapping[Variable, Any], "_Evaluator"], float]:
        """The distribution's program for `form`, compiled on first use: a
        function from an environment and the call's evaluator to its value."""
        program = self.dist._programs.get(form)
        if program is None:
            program = self.dist._programs[form] = self._compile(form)
        return program

    def _compile(self, form: Form):
        if isinstance(form, Prob):
            run = self._probs.get(form)
            if run is None:
                run = self._probs[form] = self._prob(form)
            return run
        if isinstance(form, Sum):
            return self._sum(form)
        if isinstance(form, Product):
            factors = [self._compile(factor) for factor in form.factors]
            return lambda env, ev: math.prod([factor(env, ev) for factor in factors], start=1.0)
        if isinstance(form, Fraction):
            numer, denom = self._compile(form.numer), self._compile(form.denom)

            def run_fraction(env, ev):
                d = denom(env, ev)
                if d == 0.0:
                    names = sorted(free_variables(form.denom) & env.keys())
                    ev._zero(names, [env[v] for v in names])
                    return 0.0
                return numer(env, ev) / d
            return run_fraction
        raise EstimationError(f"cannot evaluate {type(form).__name__}")

    def _sum(self, form: Sum):
        """A kept sum table. Closed factors of the body read only summed
        variables (a constant is closed), head factors none, and open factors
        both. The first call runs a loop nest over the summed variables in
        sorted order, the order of `itertools.product`, that evaluates each
        closed factor once the innermost summed variable it reads is bound,
        and adds each product into the entry of the summed values that the
        open factors read. A call multiplies the head factors by the sum,
        added in order with `+=` (not `sum()`, which compensates on 3.12+), of
        each nonzero entry's weight times each open P(·) term read from the
        slice that its bound values select. NaN marks a miss, an unhashable
        value or another open factor, and then every entry runs the open
        factors' closures."""
        names, sub = sorted(form.sub), form.sub
        factors = form.body.factors if isinstance(form.body, Product) else (form.body,)
        closed, heads, opens = [], [], []
        for factor in factors:
            free = free_variables(factor)
            (closed if free <= sub else opens if free & sub else heads).append((factor, free))
        outer = tuple([v for v in names if any(v in free for _, free in opens)])
        # stages[d]: the closed factors evaluated once names[:d] are bound
        stages = [[] for _ in range(len(names) + 1)]
        for i, (_, free) in enumerate(closed):
            stages[max([names.index(v) + 1 for v in free], default=0)].append(i)
        runs, head_runs, open_runs = (
            [self._compile(factor) for factor, _ in group] for group in (closed, heads, opens))
        # the getter of each open P(·) term's bound values, False for another factor
        getters = [isinstance(f, Prob) and _getter(tuple(sorted(free - sub))) for f, free in opens]
        at, misses, supports, kept = _getter(outer), itertools.repeat(math.nan), None, None

        # the build's state is passed in, so that no cycle holds the distribution
        def nest(env, record, values, sums, depth):
            for i in stages[depth]:
                values[i] = runs[i](env, record)
            if depth == len(names):
                key = at(env)
                sums[key] = sums.get(key, 0.0) + math.prod(values, start=1.0)
                return
            for value in supports[depth]:
                env[names[depth]] = value
                nest(env, record, values, sums, depth + 1)

        def build(dist):
            nonlocal supports
            record, supports, sums = _Evaluator(dist), dist._supports(names), {}
            nest({}, record, [0.0] * len(runs), sums, 0)
            points = tuple([point for point, weight in sums.items() if weight != 0.0])
            slices = [get and _regroup(dist, f, sub, outer, points)
                      for (f, _), get in zip(opens, getters)]
            weights = tuple(map(sums.get, points))
            return points, weights, slices, record.zero_conditionals, record.empty_stratum

        def run_sum(env, ev):
            nonlocal kept
            head = 1.0
            for run in head_runs:
                head *= run(env, ev)
            try:
                keys = [get and get(env) for get in getters]
            except KeyError as exc:  # unbound in this call
                raise _unbound(exc.args[0]) from None
            if kept is None:  # calls racing here each build an equal table
                kept = build(ev.dist)
            points, weights, slices, zeros, stratum = kept
            ev.zero_conditionals += zeros
            if ev.empty_stratum is None:
                ev.empty_stratum = stratum
            products, total = weights, 0.0
            for key, sliced in zip(keys, slices):
                try:
                    part = sliced and sliced[0].get(key)
                except TypeError:  # an unhashable value, which no cell can hold
                    part = None
                column = map(part.get, sliced[1], misses) if part else misses
                products = map(operator.mul, products, column)
            for product in products:
                total += product
            if total != total:  # NaN: a miss, so every entry runs the closures
                total, scope = 0.0, dict(env)
                for point, weight in zip(points, weights):
                    scope.update(zip(outer, point))
                    for run in open_runs:
                        weight *= run(scope, ev)
                    total += weight
            return head * total
        return run_sum

    def _prob(self, form: Prob):
        term, joint = None, form.p | form.given

        def run_prob(env, ev):
            nonlocal term
            if term is None:
                term = ev._resolve(form, env)
            key, table, given_names, given = term
            try:
                value = table.get(key(env))
            except TypeError:  # an unhashable value, which no cell can hold
                value = None
            except KeyError:  # unbound in this call, though bound when the term was resolved
                raise _unbound(sorted(joint - env.keys())[0]) from None
            if value is not None:
                return value
            if given is not None:  # no quotient: an empty stratum, or no such cell
                values = tuple([env[v] for v in given_names])
                try:
                    denom = given.get(values, 0.0)
                except TypeError:
                    denom = 0.0
                if denom == 0.0:
                    ev._zero(given_names, values)
            return 0.0
        return run_prob

    def _resolve(self, form: Prob, env: Mapping[Variable, Any]) -> tuple:
        """The key getter of P(p, given), the table it reads (the marginal,
        or for a conditional the quotients), and the given variables with
        their marginal table or None. An unbound variable is reported before
        an unknown one."""
        joint = form.p | form.given
        unbound = sorted(joint - env.keys())
        if unbound:
            raise _unbound(unbound[0])
        names, table = self.dist._table(joint, form.given)
        given_names, given = self.dist._table(form.given) if form.given else ((), None)
        return _getter(names), table, given_names, given

    def _zero(self, names: Sequence[Variable], values: Sequence[Any]) -> None:
        """Count a 0/0 conditional, and keep the first one's stratum."""
        self.zero_conditionals += 1
        if self.empty_stratum is None:
            self.empty_stratum = tuple(zip(names, values))


def _getter(names: tuple):
    """A function from an environment, or a tuple, to the tuple of its values
    at `names`."""
    if len(names) == 1:
        return lambda env, v=names[0]: (env[v],)
    return operator.itemgetter(*names) if names else lambda env: ()


def _regroup(
    dist: CategoricalDistribution, form: Prob, sub: frozenset, outer: tuple, points: tuple
) -> tuple:
    """A P(·) term's table by the values of its variables outside `sub`, then
    by those of the rest; and the key of the rest at each point of `outer`."""
    names, table = dist._table(form.p | form.given, form.given)
    rest = tuple([i for i, v in enumerate(names) if v in sub])
    at, inner = _getter(tuple([i for i, v in enumerate(names) if v not in sub])), _getter(rest)
    groups: defaultdict[tuple, dict] = defaultdict(dict)
    for values, value in table.items():
        groups[at(values)][inner(values)] = value
    return groups, tuple(map(_getter(tuple([outer.index(names[i]) for i in rest])), points))


def _unbound(v: Variable) -> EstimationError:
    return EstimationError(f"unbound variable {v!r} during formula evaluation")


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

    A Fail from identification is returned as-is. The model keeps each
    query shape's derived form or Fail, by the signature's variables and the
    effect, do and given sets, so a repeated shape is only checked and bound.
    """
    query, shape = _shape(model, signature(distribution), query)
    try:
        derived = model._derived
    except AttributeError:  # the memo is made on a model's first infer
        derived = {}
        object.__setattr__(model, "_derived", derived)
    form = derived.get(shape)
    if form is None:
        form = derived[shape] = _derive(model, *shape)
    result = _bind(form, query, shape[1])
    if isinstance(result, Fail):
        return result
    return estimate(distribution, result)
