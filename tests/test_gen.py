"""The seeded instance generator: its output is pinned, since the certificate
corpus, ``delayflow gen`` and the acceptance gate all draw from it."""

import hashlib
import json

import numpy as np

from delayflow.gen import random_problem
from delayflow.graph import serialize_topology
from delayflow.problem import problem_to_json

from conftest import CORPUS_SIZE

#: sha256 over the topology text and problem JSON of every corpus seed.
CORPUS_DIGEST = "b407b0264c1ff96e393f96977aa1730cdfdb84c280e0bf04e775f86cebb084c5"


def test_generator_output_is_pinned():
    h = hashlib.sha256()
    for seed in range(CORPUS_SIZE):
        spec = random_problem(np.random.default_rng(seed))
        h.update(serialize_topology(spec.network).encode())
        h.update(json.dumps(problem_to_json(spec)).encode())
    assert h.hexdigest() == CORPUS_DIGEST


def test_every_requirement_is_a_python_float():
    """R's are rounded as floats, so JSON and reprs carry no numpy scalar."""
    for seed in range(CORPUS_SIZE):
        spec = random_problem(np.random.default_rng(seed))
        assert all(type(c.R) is float for c in spec.commodities), seed
