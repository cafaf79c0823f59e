import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from scatcalc.ordinal import Ordinal
from scatcalc.term import parse_term


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# the benchmark's input generator, ``bench/gen.py``
_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parent.parent / "bench" / "gen.py"
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def random_term(rng, depth=5):
    """A seeded random scattered term of nesting depth at most ``depth``,
    drawn by ``bench/gen.random_tree``."""
    return parse_term(gen.text(gen.random_tree(rng, depth)))


@st.composite
def ordinals(draw, max_exp=3, max_coeff=4, max_finite=6):
    n_terms = draw(st.integers(0, max_exp))
    exps = sorted(
        draw(
            st.lists(
                st.integers(1, max_exp), min_size=n_terms, max_size=n_terms, unique=True
            )
        ),
        reverse=True,
    )
    terms = tuple((e, draw(st.integers(1, max_coeff))) for e in exps)
    return Ordinal(terms, draw(st.integers(0, max_finite)))


@st.composite
def terms(draw, depth=4):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_term(random.Random(seed), depth)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def census_inputs(seed, pool_size, pairs):
    """``bench/gen.census_inputs``: the benchmark's random census pool
    and pairs for ``seed``."""
    return gen.census_inputs(seed, pool_size, pairs)


def load_script(name: str):
    """The module of ``scripts/<name>``."""
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
