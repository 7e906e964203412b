"""Guard for the benchmark's traced mode: every name perfbench/tracer.py
patches must exist where it patches it, and its cache probes must accept
the arguments the library really passes, or `--trace 1` runs break."""

import importlib.util
from pathlib import Path

from e510 import fmodules, linalg, sl5, uminus
from e510 import verma as V

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer",
    Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

MODULES = (sl5, uminus, linalg, fmodules, V)


def test_every_patched_name_is_owned_where_it_is_patched():
    for owner, attr, _name, _pre, _post in tracer.patch_table(*MODULES):
        assert attr in owner.__dict__, (owner, attr)


def test_the_morphism_layer_keeps_its_traced_names():
    # the tracer times the generator operator, both checks and both
    # act_entries by these names, so each must stay in the patch table
    patched = {(owner.__name__, attr) for owner, attr, *_ in tracer.patch_table(*MODULES)}
    assert {("e510.verma", "_gen_on_theta"), ("e510.verma", "check_morphism"),
            ("e510.verma", "verify_degree_equations"), ("TensorModule", "act_entries"),
            ("DualModule", "act_entries")} <= patched


def test_traced_search_and_checks_match_untraced(monkeypatch):
    mods = []

    def run():
        mods.append(fmodules.TensorModule((0, 0, 1, 0)))
        hits = [(lam, [V.verma_element_to_obj(w) for w in vecs])
                for lam, vecs in V.singular_vectors((0, 0, 1, 0), 2, module=mods[-1])]
        phi = V.family_instance("CA")
        return hits, V.check_morphism(phi), V.verify_degree_equations(phi)

    plain = run()
    V.clear_caches()
    # registering the originals lets monkeypatch undo the tracer's patches
    for owner, attr, _name, _pre, _post in tracer.patch_table(*MODULES):
        monkeypatch.setattr(owner, attr, owner.__dict__[attr])
    tr = tracer.Tracer()
    tr.install(*MODULES)
    assert run() == plain
    summary = tr.summary()
    # the probes ran on every real call of the cached layers
    for name in ("verma._stacked_solver", "fmodules.act_entries", "verma._lift_singular"):
        assert summary[name]["calls"] > 0, name
    assert 0 < summary["fmodules.act_entries"]["hits"] < summary["fmodules.act_entries"]["calls"]
    # the search keeps its stacked solvers in its module's F_p "stack"
    # stores, one per modulus, which the tracer's probe does not read: more
    # calls than entries means some calls found their solver there
    stored = sum(len(mods[-1].cache("stack", p)) for p in (V.SIEVE_PRIME, *V._LADDER))
    assert 0 < stored < summary["verma._stacked_solver"]["calls"]
