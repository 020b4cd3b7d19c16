"""Derived tables live on the model they describe and die with it."""

import gc
import importlib
import pkgutil

import pomcheck
from pomcheck import prebisim as pb
from pomcheck.equiv import RelationKind, bisim
from pomcheck.estructure import PrimeEventStructure, compiled
from pomcheck.grammar import parse_term
from pomcheck.testgen import distinguishing_tree


def _structures():
    return [o for o in gc.get_objects() if isinstance(o, PrimeEventStructure)]


def test_query_structures_die_with_their_states():
    gc.collect()
    before = _structures()  # held, so no later structure reuses an id
    p = compiled(parse_term("{a,b}:0"))
    q = compiled(parse_term("a:(b:0) + b:(a:0)"))
    for kind in RelationKind:
        bisim(p, q, kind, want_witness=True)
        pb.prebisim(p, q, kind, want_witness=True)
        pb.fin_preorder(p, q, kind, want_witness=True)
        distinguishing_tree(p, q, kind)
    del p, q
    gc.collect()
    alive = [s for s in _structures() if not any(s is b for b in before)]
    assert alive == []


def test_singleton_is_the_only_process_wide_cache():
    # singleton is keyed by label strings, so it is bounded by the alphabet
    cached = set()
    for info in pkgutil.walk_packages(pomcheck.__path__, "pomcheck."):
        module = importlib.import_module(info.name)
        for obj in list(vars(module).values()):
            members = [obj]
            if isinstance(obj, type):
                members += vars(obj).values()
            for member in members:
                if hasattr(member, "cache_info"):
                    cached.add(f"{member.__module__}.{member.__qualname__}")
    assert cached == {"pomcheck.pomset.singleton"}
