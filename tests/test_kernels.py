"""The compiled cone step against the pure one and the oracle, and the
loader's fallback to the pure kernels."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subwordkit import BudgetExceededError
from subwordkit import _cone_c, _kernels_py
from subwordkit.closures import CONE_SUFFIX_CAP, _dominators

from oracles import cone_closure_naive
from strategies import cone_inputs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def backends_agree(args, n, delta, finals):
    """Both backends give (n, delta, finals) at budget n, and one less
    stops both with the same error."""
    for mod in (_cone_c, _kernels_py):
        got = mod.cone_closure(*args, n)
        assert (got[0], list(got[1]), got[2]) == (n, delta, finals), mod.__name__
        assert got[1].typecode == "i"
        if n > 1:
            with pytest.raises(BudgetExceededError) as e:
                mod.cone_closure(*args, n - 1)
            assert (e.value.what, e.value.budget) == ("closure antichain states", n - 1)


@settings(max_examples=300, deadline=None)
@given(cone_inputs())
def test_compiled_cone_matches_the_pure_one_and_the_oracle(args):
    n, delta, finals = cone_closure_naive(*args, 1 << 20)
    backends_agree(args, n, delta, finals)


@settings(max_examples=3, deadline=None)
@given(st.integers(1, 3), st.integers(CONE_SUFFIX_CAP - 64, CONE_SUFFIX_CAP - 1),
       st.integers(0, 2**32))
def test_compiled_cone_on_one_word_near_the_suffix_cap(k, length, seed):
    # 1985 to 2048 suffix ids: 32 words per state, with the ids shuffled
    # so that heads, tails and drops fall in every word.
    rng = random.Random(seed)
    word = tuple(rng.randrange(k) for _ in range(length))
    ids = list(range(len(word) + 1))
    rng.shuffle(ids)
    sid = {word[i:]: ids[i] for i in range(len(word) + 1)}
    by_id = sorted(sid, key=sid.get)
    nxt = [sid[s[1:]] if s and s[0] == a else sid[s] for s in by_id for a in range(k)]
    args = (len(sid), k, nxt, sid[()], _dominators(by_id, sid), [sid[word]])
    assert (len(sid) + 63) // 64 == 32
    n, delta, finals = cone_closure_naive(*args, 1 << 20)
    assert n == len(word) + 1
    backends_agree(args, n, delta, finals)


def test_loader_needs_a_compiler(tmp_path):
    with pytest.raises(ImportError, match="no C compiler"):
        _cone_c.load(str(tmp_path), None)


def test_loader_needs_a_writable_cache(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(ImportError):
        _cone_c.load(str(blocker / "cache"), _cone_c.compiler())


def test_loader_refuses_a_cache_that_others_may_write(tmp_path):
    cache = tmp_path / "cache"
    lib = _cone_c.load(str(cache), _cone_c.compiler())
    assert lib.cone_closure
    (build,) = cache.iterdir()
    build.chmod(0o722)
    with pytest.raises(ImportError, match="not private"):
        _cone_c.load(str(cache), _cone_c.compiler())
    build.chmod(0o700)
    cache.chmod(0o777)
    with pytest.raises(ImportError, match="not private"):
        _cone_c.load(str(cache), _cone_c.compiler())


PROBE = """
import sys
from subwordkit import closure_dfa, gen_family, kernels, serialize_automaton
print(kernels.ACTIVE)
for name, n in (("E", 5), ("heam", 6), ("twoLetter", 2)):
    print(serialize_automaton(closure_dfa(gen_family(name, n), "up")).replace("\\n", "|"))
"""


@pytest.mark.parametrize("broken", ["no compiler", "cache under a file"])
def test_kernels_fall_back_to_the_pure_cone(tmp_path, broken):
    # A child with no compiler on its PATH, or whose home is a file (so no
    # cache directory can be made), runs the pure cone, to the same DFAs.
    home = tmp_path / "home"
    if broken == "cache under a file":
        home.write_text("")
        path = os.environ.get("PATH", "")
    else:
        home.mkdir()
        path = ""
    env = dict(os.environ, HOME=str(home), PATH=path, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    same = subprocess.run([sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == "pure"
    assert same[0] == "compiled"
    assert out[1:] == same[1:]


def test_the_compiled_step_loads_on_first_use_only():
    code = ("import sys\n"
            "from subwordkit import closure_dfa, gen_family, kernels\n"
            "closure_dfa(gen_family('D', 3), 'down')\n"
            "print('subwordkit._cone_c' in sys.modules, 'ctypes' in sys.modules)\n"
            "closure_dfa(gen_family('E', 3), 'up')\n"
            "print('subwordkit._cone_c' in sys.modules, kernels.ACTIVE)\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["False False", "True compiled"]

