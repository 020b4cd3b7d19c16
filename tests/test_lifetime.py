"""Derived tables live on the model they describe and die with it."""

import gc
import importlib
import pkgutil
from types import FunctionType

import pomcheck
from conftest import chain_tree, f1_terms
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
    # asking both directions reads each structure's tables and builds a
    # product per query: neither structure may end up holding the other
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


def _check_derived(es, kind):
    """Only int tables of ``es`` alone in ``es.derived``: no product, no
    configuration event sets, no frozenset-keyed table, no set views of
    the masks, and for the step kind no pomset table."""
    unbuilt = {es_mod._config_sets.__wrapped__,
               es_mod._cause_sets.__wrapped__,
               es_mod._conflict_sets.__wrapped__,
               es_mod._divergent_sets.__wrapped__}
    if kind is RelationKind.STEP:
        unbuilt.add(es_mod._pomset_table.__wrapped__)
    assert es.derived
    for key, value in es.derived.items():
        assert key.__module__ == es_mod.__name__  # no engine product
        assert key not in unbuilt
        assert not isinstance(value, frozenset)
        assert not (isinstance(value, dict)
                    and any(isinstance(k, frozenset) for k in value))


def _library_queries(pairs, kinds):
    """Every query of each tree pair, each structure checked after."""
    for kind in kinds:
        for left, right in pairs:
            p, q = compiled(left), compiled(right)
            bisim(p, q, kind, want_witness=True)
            pb.prebisim(p, q, kind, want_witness=True)
            pb.fin_preorder(p, q, kind, want_witness=True)
            distinguishing_tree(p, q, kind)
            for es in (p.structure, q.structure):
                _check_derived(es, kind)


def _cli_queries(text, kinds, tmp_path, monkeypatch):
    """Each command on ``Q`` and ``P`` of ``text``, its structures checked."""
    made = []

    def recorded(t):
        state = compiled(t)
        made.append(state.structure)
        return state

    monkeypatch.setattr(es_mod, "compiled", recorded)
    path = tmp_path / "f1.pom"
    path.write_text(text, encoding="utf-8")
    names = ["--left", "Q", "--right", "P"]
    for kind in kinds:
        rel = ["--rel", kind.value]
        for argv in (["check", *names, *rel, "--witness", "--json"],
                     ["check", *names, *rel, "--pre", "--witness"],
                     ["check", *names, *rel, "--kernel"],
                     ["approx", *names, *rel, "--max-level", "5"],
                     ["explain", *names, *rel]):
            made.clear()
            assert main([*argv, str(path)]) in (0, 1)
            # hp/hhp explain also compiles each candidate it re-verifies
            assert len(made) == 2 or kind.posetal and argv[0] == "explain"
            for es in made:
                _check_derived(es, kind)


def test_step_queries_build_no_pomset_table(tmp_path, capsys, monkeypatch):
    # pomset and step queries read int tables only, through the library
    # and through the command line
    table = parse(F1)
    kinds = (RelationKind.POMSET, RelationKind.STEP)
    _library_queries([(table["Q"], table["P"]),
                      (chain_tree(12), chain_tree(11))], kinds)
    _cli_queries(F1, kinds, tmp_path, monkeypatch)
    capsys.readouterr()


def test_posetal_queries_build_no_decoded_table(tmp_path, capsys,
                                                monkeypatch):
    # hp and hhp queries read the int product and the configuration
    # graph; the triple-keyed tables and the configuration event sets
    # are decoded only for the benchmark's traced replay
    text = "".join(f"proc {name} = {term}\n"
                   for name, term in zip("PQR", f1_terms("aab")))
    table = parse(text)
    kinds = (RelationKind.HP, RelationKind.HHP)
    _library_queries([(table[a], table[b]) for a in "PQR" for b in "PQR"],
                     kinds)
    _cli_queries(text, kinds, tmp_path, monkeypatch)
    capsys.readouterr()


def test_posetal_decisions_build_no_action_table():
    # hp and hhp decide on the posetal product, grown from the
    # configuration graph; only tree extraction reads the action table
    terms = f1_terms("aab")
    for kind in (RelationKind.HP, RelationKind.HHP):
        for left in terms:
            for right in terms:
                p, q = compiled(parse_term(left)), compiled(parse_term(right))
                bisim(p, q, kind, want_witness=True)
                pb.prebisim(p, q, kind, want_witness=True)
                pb.fin_preorder(p, q, kind, want_witness=True)
                for es in (p.structure, q.structure):
                    assert es.derived
                    assert es_mod.action_table.__wrapped__ not in es.derived


def test_a_reused_structure_keeps_no_product():
    # a structure compiled once and checked against many others keeps
    # only its own tables: the products die with their queries
    table = parse(F1)
    p = compiled(table["Q"])
    first = None
    for _ in range(50):
        q = compiled(table["P"])
        for kind in RelationKind:
            bisim(p, q, kind, want_witness=True)
            pb.prebisim(p, q, kind, want_witness=True)
            pb.prebisim(q, p, kind, want_witness=True)
            pb.fin_preorder(p, q, kind, want_witness=True)
            distinguishing_tree(p, q, kind)
            distinguishing_tree(q, p, kind)
        if first is None:
            first = set(p.structure.derived)
        assert set(p.structure.derived) == first
    assert all(isinstance(key, FunctionType) for key in first)


def test_deep_chain_step_queries():
    p, q = compiled(chain_tree(200)), compiled(chain_tree(199))
    assert bisim(p, compiled(chain_tree(200)), RelationKind.STEP).related
    v = pb.fin_preorder(p, q, RelationKind.STEP, want_witness=True)
    assert not v.related
    assert v.witness == Witness("pomset", singleton("a"))
