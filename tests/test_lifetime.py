"""Derived tables live on the model they describe and die with it."""

import gc
import importlib
import pkgutil

import pomcheck
from conftest import chain_tree
from pomcheck import estructure as es_mod
from pomcheck import prebisim as pb
from pomcheck.cli import main
from pomcheck.equiv import RelationKind, Witness, bisim
from pomcheck.estructure import PrimeEventStructure, compiled
from pomcheck.grammar import parse, parse_term
from pomcheck.pomset import singleton
from pomcheck.testgen import distinguishing_tree

F1 = """
proc P = {a,b,c,d}:0
proc Q = {a,b,c,d}:0 + a:({b,c,d}:0)
proc R = {a,b,c,d}:W + W
"""


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


def test_queries_leave_no_cyclic_garbage():
    # every object a query makes is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for kind in RelationKind:
            table = parse(F1)
            p = compiled(table["Q"])
            q = compiled(table["P"])
            bisim(p, q, kind, want_witness=True)
            pb.prebisim(p, q, kind, want_witness=True)
            pb.fin_preorder(p, q, kind, want_witness=True)
        del table, p, q
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_kernel_queries_leave_no_cyclic_garbage(tmp_path, capsys):
    # asking both directions keeps a product table on each structure,
    # keyed by the other: the key must not hold the other alive
    path = tmp_path / "f1.pom"
    path.write_text(F1, encoding="utf-8")
    gc.collect()
    gc.disable()
    try:
        for kind in RelationKind:
            table = parse(F1)
            p = compiled(table["Q"])
            q = compiled(table["P"])
            pb.prebisim(p, q, kind, want_witness=True)
            pb.prebisim(q, p, kind, want_witness=True)
            main(["check", "--left", "Q", "--right", "Q", "--rel", kind.value,
                  "--kernel", str(path)])
        del table, p, q
        found = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert found == 0


def test_step_queries_build_no_pomset_table():
    # nor the cause and conflict set views: queries read the masks
    unbuilt = {es_mod._pomset_transition_table.__wrapped__,
               es_mod._cause_sets.__wrapped__,
               es_mod._conflict_sets.__wrapped__}
    table = parse(F1)
    for left, right in [(table["Q"], table["P"]), (chain_tree(12), chain_tree(11))]:
        p, q = compiled(left), compiled(right)
        bisim(p, q, RelationKind.STEP, want_witness=True)
        pb.prebisim(p, q, RelationKind.STEP, want_witness=True)
        pb.fin_preorder(p, q, RelationKind.STEP, want_witness=True)
        for es in (p.structure, q.structure):
            assert es.derived
            assert not any(key[0] in unbuilt for key in es.derived)


def test_deep_chain_step_queries():
    p, q = compiled(chain_tree(200)), compiled(chain_tree(199))
    assert bisim(p, compiled(chain_tree(200)), RelationKind.STEP).related
    v = pb.fin_preorder(p, q, RelationKind.STEP, want_witness=True)
    assert not v.related
    assert v.witness == Witness("pomset", singleton("a"))
