"""Whittemore: causal programming.

Identification compiles causal queries against a causal diagram into
estimable probability formulas (or fails with a hedge witness); estimation
applies formulas to concrete probability distributions. A small expression
language with a REPL fronts both operations.
"""

__version__ = "0.1.0"

from .errors import WhittemoreError
from .model import (
    Data,
    Model,
    Variable,
    ancestors,
    c_components,
    latent_projection,
    make_model,
    subgraph,
    topological_order,
    variables,
)
from .formula import (
    ONE,
    Fail,
    Form,
    Formula,
    Fraction,
    Hedge,
    Prob,
    Product,
    Sum,
    fraction,
    free_variables,
    prob,
    product,
    sum_over,
)
from .simplify import simplify, simplify_form
from .identify import Query, identify, make_query
from .distribution import (
    CategoricalDistribution,
    categorical,
    estimate,
    evaluate,
    infer,
    measure,
    signature,
)
from .reader import parse
from .printer import display_value, print_value
from .interpreter import Environment, eval_expr, eval_program, standard_environment
from .interpreter import head, marginal_table, read_csv, write_csv
from .render import to_dot, to_latex, to_text
from .cli import main

__all__ = [
    "__version__",
    "WhittemoreError",
    "Variable",
    "variables",
    "Model",
    "make_model",
    "Data",
    "topological_order",
    "ancestors",
    "c_components",
    "subgraph",
    "latent_projection",
    "Prob",
    "Sum",
    "Product",
    "Fraction",
    "Form",
    "ONE",
    "prob",
    "sum_over",
    "product",
    "fraction",
    "Formula",
    "Hedge",
    "Fail",
    "free_variables",
    "simplify",
    "simplify_form",
    "Query",
    "make_query",
    "identify",
    "CategoricalDistribution",
    "categorical",
    "estimate",
    "evaluate",
    "measure",
    "signature",
    "infer",
    "parse",
    "print_value",
    "display_value",
    "Environment",
    "standard_environment",
    "eval_expr",
    "eval_program",
    "to_dot",
    "to_latex",
    "to_text",
    "read_csv",
    "write_csv",
    "head",
    "marginal_table",
    "main",
]
