"""Exactly enumerable structural causal models, used as ground truth in tests.

A DiscreteSCM fixes finite noise spaces and deterministic mechanisms, so the
observational joint and any intervened joint can be computed by exhaustive
enumeration of the noise. Confounded variables share a noise group.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .distribution import CategoricalDistribution
from .errors import UnknownVariableError
from .model import Model, Variable, as_event, topological_order

NoiseGroup = frozenset[Variable]
Mechanism = Callable[[Mapping[Variable, Any], Mapping[NoiseGroup, Any]], Any]


@dataclass(frozen=True)
class DiscreteSCM:
    """model: the causal diagram; noise: group -> weighted outcomes;
    mechanisms: variable -> f(values so far, noise outcomes) -> value.

    Mechanisms must read only their parents and the noise groups containing
    their variable (enforced by the builders, not checked at call time).
    """

    model: Model
    noise: Mapping[NoiseGroup, tuple[tuple[Any, float], ...]]
    mechanisms: Mapping[Variable, Mechanism]
    domains: Mapping[Variable, tuple]

    def __post_init__(self):
        for group, outcomes in self.noise.items():
            mass = math.fsum(p for _, p in outcomes)
            if abs(mass - 1.0) > 1e-12:
                raise ValueError(f"noise group {sorted(group)} has total mass {mass!r}")


def exact_joint(scm: DiscreteSCM) -> CategoricalDistribution:
    """Observational joint, computed by pushing every noise combination
    through the mechanisms in topological order."""
    order = topological_order(scm.model)
    groups = sorted(scm.noise, key=lambda g: tuple(sorted(g)))
    names = tuple(sorted(scm.model.vertices))
    cells: dict[tuple, float] = {}
    spaces = [scm.noise[g] for g in groups]
    for combo in itertools.product(*spaces):
        prob = math.prod(p for _, p in combo)
        if prob == 0.0:
            continue
        noise_env = {g: outcome for g, (outcome, _) in zip(groups, combo)}
        values: dict[Variable, Any] = {}
        for v in order:
            values[v] = scm.mechanisms[v](values, noise_env)
        key = tuple(values[v] for v in names)
        cells[key] = cells.get(key, 0.0) + prob
    return CategoricalDistribution.from_weights(
        [(dict(zip(names, key)), w) for key, w in cells.items()], tolerance=1e-9
    )


def intervene(scm: DiscreteSCM, do: Mapping[Any, Any]) -> DiscreteSCM:
    """Replace the mechanisms of the do-variables with constants and cut
    their incoming edges; noise is untouched."""
    fixed = as_event(do, "do")
    for v, value in fixed.items():
        if v not in scm.model.vertices:
            raise UnknownVariableError(f"cannot intervene on unknown variable {v!r}")
        if v in scm.domains and value not in scm.domains[v]:
            raise UnknownVariableError(f"value {value!r} outside the domain of {v!r}")
    if not fixed:
        return scm
    dag = {
        v: (() if v in fixed else scm.model.dag[v]) for v in scm.model.dag
    }
    model = Model(dag, scm.model.confounding)
    mechanisms = dict(scm.mechanisms)
    for v, value in fixed.items():
        mechanisms[v] = _Constant(value)
    return DiscreteSCM(model, scm.noise, mechanisms, scm.domains)


@dataclass(frozen=True)
class _Constant:
    value: Any

    def __call__(self, values, noise):
        return self.value


@dataclass(frozen=True)
class TableMechanism:
    """Deterministic lookup: (parent values, noise outcomes) -> value."""

    parents: tuple[Variable, ...]
    groups: tuple[NoiseGroup, ...]
    table: Mapping[tuple, Any]

    def __call__(self, values, noise):
        key = (
            tuple(values[p] for p in self.parents),
            tuple(noise[g] for g in self.groups),
        )
        return self.table[key]


def _binary_noise(rng: random.Random) -> tuple[tuple[Any, float], ...]:
    p = rng.uniform(0.2, 0.8)
    return ((0, 1.0 - p), (1, p))


def random_scm(
    seed: int, max_vars: int = 5, confounding_prob: float = 0.3
) -> DiscreteSCM:
    """A reproducible random binary SCM with strictly positive joint.

    Each variable gets a private binary noise that is XORed into a random
    lookup table over (parents, shared noises); the XOR keeps every
    conditional probability inside (0, 1), which the soundness checks of the
    identification algorithm assume.
    """
    if max_vars > 5:
        raise ValueError("random SCMs are kept small so enumeration stays exact")
    rng = random.Random(seed)
    n = rng.randint(2, max_vars) if max_vars >= 2 else 1
    names = [Variable(ch) for ch in "abcde"[:n]]
    dag: dict[Variable, tuple[Variable, ...]] = {}
    for j, v in enumerate(names):
        dag[v] = tuple(p for p in names[:j] if rng.random() < 0.5)
    pairs = [
        frozenset(pair)
        for pair in itertools.combinations(names, 2)
        if rng.random() < confounding_prob
    ]
    return scm_over(Model(dag, pairs), rng)


def scm_over(model: Model, rng: random.Random) -> DiscreteSCM:
    """A random binary SCM over model's graph, its noises and mechanisms drawn
    from rng as random_scm draws them."""
    names = sorted(model.vertices)
    groups = sorted(model.confounding, key=lambda g: tuple(sorted(g)))
    noise: dict[NoiseGroup, tuple[tuple[Any, float], ...]] = {}
    for v in names:
        noise[frozenset((v,))] = _binary_noise(rng)
    for group in groups:
        noise[group] = _binary_noise(rng)

    mechanisms: dict[Variable, Mechanism] = {}
    for v in names:
        parents = tuple(sorted(model.parents(v)))
        own = frozenset((v,))
        shared = tuple(g for g in groups if v in g)
        table: dict[tuple, int] = {}
        for parent_vals in itertools.product((0, 1), repeat=len(parents)):
            for shared_vals in itertools.product((0, 1), repeat=len(shared)):
                base = rng.getrandbits(1)
                for own_bit in (0, 1):
                    key = (parent_vals, (own_bit,) + shared_vals)
                    table[key] = base ^ own_bit
        mechanisms[v] = TableMechanism(parents, (own,) + shared, table)

    domains = {v: (0, 1) for v in names}
    return DiscreteSCM(model, noise, mechanisms, domains)
