import pathlib

import pytest
from hypothesis import settings

from whittemore import CategoricalDistribution, make_model

# a deeper run of the property tests, chosen with --hypothesis-profile deep;
# derandomized, so that a failure reproduces exactly
settings.register_profile("deep", max_examples=1000, derandomize=True, deadline=None)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
KIDNEY_CSV = REPO_ROOT / "data" / "renal-calculi.csv"

# (treatment, size, successes, total); smallest integer ratios reproducing
# the published conditional estimates
KIDNEY_COUNTS = [
    ("surgery", "small", 81, 87),
    ("nephrolithotomy", "small", 234, 270),
    ("surgery", "large", 192, 263),
    ("nephrolithotomy", "large", 55, 80),
]

# joint over x (smoker), z (tar), y (cancer) as integer counts over 800;
# equivalent to the textbook tar/cancer table: P(x=0,z=0)=0.475 with
# P(y=1|...)=0.1, P(x=1,z=0)=0.025 with 0.9, P(x=0,z=1)=0.025 with 0.05,
# P(x=1,z=1)=0.475 with 0.85
SMOKING_COUNTS = [
    ({"x": 0, "z": 0, "y": 1}, 38),
    ({"x": 0, "z": 0, "y": 0}, 342),
    ({"x": 1, "z": 0, "y": 1}, 18),
    ({"x": 1, "z": 0, "y": 0}, 2),
    ({"x": 0, "z": 1, "y": 1}, 1),
    ({"x": 0, "z": 1, "y": 0}, 19),
    ({"x": 1, "z": 1, "y": 1}, 323),
    ({"x": 1, "z": 1, "y": 0}, 57),
]


def kidney_rows():
    rows = []
    for treatment, size, successes, total in KIDNEY_COUNTS:
        rows.extend({"treatment": treatment, "size": size, "success": "yes"} for _ in range(successes))
        rows.extend({"treatment": treatment, "size": size, "success": "no"} for _ in range(total - successes))
    return rows


@pytest.fixture
def front_door():
    return make_model({"x": [], "z": ["x"], "y": ["z"]}, [{"x", "y"}])


@pytest.fixture
def bow():
    return make_model({"x": [], "y": ["x"]}, [{"x", "y"}])


@pytest.fixture
def charig():
    return make_model({"size": [], "treatment": ["size"], "success": ["treatment", "size"]})


@pytest.fixture
def concomitant():
    return make_model(
        {"y": ["x", "z_1", "z_2"], "z_2": ["z_1"], "z_1": ["x"], "x": []},
        [{"y", "z_1"}, {"x", "z_2"}],
    )


@pytest.fixture
def smoking():
    return CategoricalDistribution.from_counts(SMOKING_COUNTS)


@pytest.fixture
def kidney():
    return CategoricalDistribution.from_samples(kidney_rows())
