import os
import sys

import pytest
from hypothesis import settings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")

sys.path.insert(0, os.path.join(ROOT, "tests"))

# The generated-program tests (`programs.generated_settings`) draw 300 fixed
# examples in tier-1; `python -m pytest --hypothesis-profile=long -k
# generated` draws 5000 random ones.
settings.register_profile("generated", max_examples=300, derandomize=True, deadline=None)
settings.register_profile("long", max_examples=5000, deadline=None)


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


@pytest.fixture(scope="session")
def load_program():
    """Factory: parse and typecheck a corpus program by basename."""
    from kuifje import check_program, parse_program

    def go(name):
        with open(os.path.join(CORPUS, name + ".kuif")) as f:
            program = parse_program(f.read())
        check_program(program)
        return program

    return go
