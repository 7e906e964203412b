import ast
import os
import pathlib
import subprocess
import sys

import e510

SRC = pathlib.Path(e510.__file__).parent


def test_no_assert_in_src():
    # python -O strips assert statements, so a check written as one vanishes
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) >= 7
    assert found == []


# the attributes a module's derived caches live in, and the names they had
# before they shared one store, so that bringing one back fails too
DERIVED_ATTRS = {"_derived", "_act_cache", "_stack_cache", "_zterm_cache", "_depth_cache",
                 "_fp_cache", "_actions"}


def test_only_fmodules_reads_derived_state_by_attribute():
    # everywhere else a module's derived caches are reached through
    # cache(name, p), so fmodules alone knows how they are stored
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "fmodules.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in DERIVED_ATTRS
             or isinstance(node, ast.Constant) and node.value in DERIVED_ATTRS]
    assert found == []


def test_only_fmodules_makes_a_dual_module():
    # every dual is a module's shared dual(), so that duals of one module
    # are one object and compose can chain them
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "fmodules.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "DualModule"]
    assert found == []


def _referrers(name):
    """path:owner for every mention of name in src/e510 as a variable or an
    attribute, owner being the innermost enclosing def or class (<module>
    at the top level)."""
    found = set()

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name):
                found.add(f"{path.name}:{owner}")
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if scope else owner, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "<module>", path)
    return found


def test_invariance_passes_go_through_the_kept_verdict():
    # only _equivariance_failure and its frame check apply generators to
    # Phi, and it keeps its verdict on the MorphismData; only the two checks
    # ask it, and nothing else reads or sets the verdict, so no invariance
    # pass is run twice
    assert _referrers("_gen_on_theta") == {"verma.py:_frame_holds",
                                           "verma.py:_equivariance_failure"}
    assert _referrers("_equivariance_failure") == {"verma.py:check_morphism",
                                                   "verma.py:verify_degree_equations"}
    assert _referrers("l0_failure") == {"verma.py:MorphismData",
                                        "verma.py:_equivariance_failure"}


def test_invariance_is_decided_on_the_lowering_frame():
    # _equivariance_failure alone runs the frame check, which alone reads a
    # source's lowering frame; every module finds its frame by elimination
    # once, through the one lowering_frame both kinds of module share
    assert _referrers("_frame_holds") == {"verma.py:_equivariance_failure"}
    assert _referrers("lowering_frame") == {"verma.py:_frame_holds"}
    assert _referrers("_eliminated_frame") == set()
    assert _referrers("_SIMPLE") == set()
    defs = [f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.FunctionDef) and node.name == "lowering_frame"]
    assert len(defs) == 1 and defs[0].startswith("fmodules.py")


def test_frame_disagreement_raises_under_optimize():
    # with asserts stripped (-O), a frame check that fails while the 20
    # generators of L_0 kill Phi still raises ArithmeticError
    prog = ("import sys\n"
            "from e510 import verma\n"
            "assert sys.flags.optimize\n"  # stripped: must not stop the check
            "verma._frame_holds = lambda phi, columns: False\n"
            "try:\n"
            "    verma.check_morphism(verma.nabla_A(1, 0))\n"
            "except ArithmeticError as exc:\n"
            "    print('raised:', exc)\n"
            "else:\n"
            "    sys.exit('no error raised')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", prog], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: the lowering frame fails")


def test_invariance_checks_never_mention_a_dual():
    # the checks read the source's frame and action only: no name in them
    # reaches a dual module
    for name in ("_gen_on_theta", "_frame_holds", "_equivariance_failure",
                 "check_morphism", "verify_degree_equations"):
        names = {getattr(node, "id", getattr(node, "attr", ""))
                 for node in ast.walk(_function("verma.py", name))}
        assert not [n for n in names if "dual" in n], name


def test_degree_equations_are_decided_hw_column_first():
    # the equations are evaluated only by verify_degree_equations, which
    # tries the highest weight column before every column, so no caller can
    # skip the one-column decision or read a diagnostic it did not name
    for d in (1, 2, 3):
        assert _referrers(f"_equations_deg{d}") == {"verma.py:verify_degree_equations"}


def test_only_fmodules_reads_its_private_names():
    # the packed monomial layout (slot shifts, masks, slot ranges) stays
    # inside fmodules: other modules go through its public functions, so a
    # change of layout edits fmodules alone
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fmodules.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fmodules"):
                found += [f"{path.name}:{node.lineno}:{a.name}"
                          for a in node.names if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("fmodules", "fm")):
                found.append(f"{path.name}:{node.lineno}:{node.attr}")
    assert found == []


def test_singular_conditions_and_the_equation_term_are_written_once():
    # _singular_checks alone applies the L_1 spanning set, in the order that
    # fixes a lazy module's numbering, and _x_theta alone writes the
    # x_p d/d gamma . theta term of the degree equations
    assert _referrers("l1_images") == {"verma.py:_singular_checks"}
    for name in ("_theta_shuffle", "_mat_apply"):
        assert _referrers(name) == {"verma.py:_x_theta"}


def test_single_terms_are_added_by_add_term():
    # one term goes into a sparse vector through linalg.add_term: no private
    # copy of it, and no one-entry dict built per term for add_into
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.FunctionDef) and node.name == "_accumulate"
             or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "add_into"
             and len(node.args) > 1 and isinstance(node.args[1], ast.Dict)
             and len(node.args[1].keys) == 1]
    assert _referrers("_accumulate") == set()
    assert found == []


def _function(path_name, name):
    tree = ast.parse((SRC / path_name).read_text(), path_name)
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_raising_columns_come_from_the_lowering_record():
    # verma acts on ambient vectors only for the z-term images; in fmodules
    # only _raising, reached through act_entries, computes raising columns
    # and touches their "raising" memo, and it never builds a weight space
    assert {r for r in _referrers("glact_vector") if r.startswith("verma.py")} == \
        {"verma.py:_zimage"}
    assert _referrers("_raising") == {"fmodules.py:act_entries"}
    memo = [f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Constant) and node.value == "raising"]
    raising = _function("fmodules.py", "_raising")
    inside = [node for node in ast.walk(raising)
              if isinstance(node, ast.Constant) and node.value == "raising"]
    assert memo and len(memo) == len(inside)
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(raising)}
    assert "ensure_weight" not in names
    # ensure_weight writes the lowering record, which is module state, and
    # _lowering alone reads it, for the raising and the lowering columns of
    # act_entries and for the search's z-term coordinates (lowering_coords)
    assert _referrers("_lowering") == {"fmodules.py:_raising", "fmodules.py:act_entries",
                                       "fmodules.py:lowering_coords"}
    assert _referrers("lower") == {"fmodules.py:__init__", "fmodules.py:ensure_weight",
                                   "fmodules.py:_lowering"}


def _signatures(path_name, name):
    """The parameter names of every def called name in the file, in order."""
    tree = ast.parse((SRC / path_name).read_text(), path_name)
    return [[a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
            + [a.arg for a in (node.args.vararg, node.args.kwarg) if a]
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == name]


def test_module_action_is_rational_and_fp_raising_is_reduced_in_one_place():
    # both act_entries, coords and _reduce take no modulus (nor does any
    # other def of fmodules: see the test below); _raising_columns alone
    # reduces the raising columns mod p, for _stacked_solver alone
    assert _signatures("fmodules.py", "act_entries") == [["self", "r", "s", "nu"]] * 2
    for name in ("coords", "_reduce"):
        assert _signatures("fmodules.py", name) == [["self", "nu", "vec"]]
    assert _referrers("_p_integral") == set()
    assert _referrers("_raising_columns") == {"verma.py:_stacked_solver"}
    assert _signatures("verma.py", "_raising_columns") == [["mod", "i", "nu", "p"]]
    # what perfbench/tracer.py patches or probes keeps its name and arguments
    assert _signatures("verma.py", "_stacked_solver") == [["mod", "nu", "p"]]
    assert "verma.py:_zimage" in _referrers("glact_vector")
    assert _referrers("_act_cache") == {"fmodules.py:_ActingModule"}


def test_fmodules_works_over_q_only():
    # no def of fmodules takes a modulus, and fmodules never names the F_p
    # reduction or its error: every reduction of module data mod p is
    # verma's, next to the sieve
    tree = ast.parse((SRC / "fmodules.py").read_text(), "fmodules.py")
    params = {f"{getattr(node, 'name', 'lambda')}:{a.arg}" for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.Lambda))
              for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    assert params and not [p for p in params if p.endswith(":p")]
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    names |= {getattr(node, "name", None) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.alias))}
    assert not names & {"to_fp", "UnluckyPrime", "fp_basis", "vector"}


def test_module_data_is_reduced_mod_p_by_one_helper():
    # no basis vector is reduced mod p: the "bases" store only says whether
    # a basis is p-integral (_integral_basis), _fp_basis raises from it for
    # the raising columns, and _zimage reads it to choose coordinates; _mod_p
    # is the one reduction, of the raising columns and the z-term images,
    # and the only caller of to_fp in verma
    assert _referrers("_integral_basis") == {"verma.py:_fp_basis", "verma.py:_zimage"}
    assert _referrers("_fp_basis") == {"verma.py:_raising_columns"}
    assert _referrers("_mod_p") == {"verma.py:_raising_columns", "verma.py:_zimage"}
    assert {r for r in _referrers("to_fp") if r.startswith("verma.py")} == {"verma.py:_mod_p"}


def test_zterms_act_on_ambient_vectors_only_where_the_target_is_not_built():
    # in verma, only _zimage's fallback calls glact_vector: its one call
    # follows the test of its target space, whose branch returns the
    # record's coordinates (lowering_coords); verma still imports it by
    # name
    zimage = _function("verma.py", "_zimage")
    calls = [node for node in ast.walk(zimage) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "glact_vector"]
    usable = next(node for node in zimage.body if isinstance(node, ast.If)
                  and "spaces" in {getattr(n, "attr", None) for n in ast.walk(node.test)})
    assert isinstance(usable.body[-1], ast.Return)
    assert "lowering_coords" in {getattr(n, "attr", None) for n in ast.walk(usable)}
    assert len(calls) == 1 and calls[0].lineno > usable.end_lineno
    assert {r for r in _referrers("glact_vector") if r.startswith("verma.py")} == \
        {"verma.py:_zimage"}
    from e510 import fmodules, verma

    assert verma.glact_vector is fmodules.glact_vector  # perfbench/tracer.py patches it
    assert _referrers("lowering_coords") == {"fmodules.py:lowering_coords", "verma.py:_zimage"}


# the functions of the search that take the modulus p of a lifting
_SEARCH = ("_stacked_solver", "_raising_columns", "_zimage", "_flush_z", "_combine", "_lift")


def test_the_lifting_is_one_module_level_function():
    # _lift lifts a candidate mod a prime and returns a record: no closure,
    # string verdict (_sieve) or pair of partials (_lifting_inputs) stands
    # between it and its caller, and it alone flushes z-terms.  The search
    # works mod primes alone: none of its functions has a default for p or
    # tests it against None, and src/ never calls _lift with None.
    # _lift_singular keeps the signature perfbench/tracer.py patches, and
    # every _stacked_solver call passes p by keyword, since the tracer's
    # cache probe unpacks (mod, nu) from the positional arguments
    tree = ast.parse((SRC / "verma.py").read_text(), "verma.py")
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_sieve", "_lifting_inputs", "lift"}
    assert "_lift" in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert _referrers("_lift") == {"verma.py:_lift_singular"}
    assert _referrers("_flush_z") == {"verma.py:_lift"}
    assert _signatures("verma.py", "_lift") == [["mod", "plan", "tables", "p"]]
    assert _signatures("verma.py", "_lift_singular") == [["mod", "d", "lam", "tables"]]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_stacked_solver"]
    assert calls and all(len(call.args) == 2 and [k.arg for k in call.keywords] == ["p"]
                         for call in calls)
    for name in _SEARCH:
        fn = _function("verma.py", name)
        assert "p" in _signatures("verma.py", name)[0]
        assert not fn.args.defaults and fn.args.kw_defaults in ([], [None]), name
        against_none = [node for node in ast.walk(fn) if isinstance(node, ast.Compare)
                        and {"p", None} <= {getattr(n, "id", getattr(n, "value", 0))
                                            for n in [node.left, *node.comparators]}]
        assert against_none == [], name
    lifts = [node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lift"]
    assert lifts and not [call for call in lifts
                          if any(isinstance(a, ast.Constant) and a.value is None
                                 for a in call.args)]


def test_names_the_benchmark_tracer_reads_are_kept():
    # perfbench/tracer.py patches verma.glact_vector as the z-term spans, so
    # _zimage must keep calling it by that name, and its cache probes read
    # _stack_cache and _act_cache off a module (a missing _stack_cache would
    # read as an empty cache, not fail)
    assert "verma.py:_zimage" in _referrers("glact_vector")
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tracer = ast.parse(path.read_text(), str(path))
    probed = {node.attr for node in ast.walk(tracer)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "mod"}
    probed |= {node.args[1].value for node in ast.walk(tracer)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
               and isinstance(node.args[1], ast.Constant)}
    from e510 import fmodules

    assert probed == {"_stack_cache", "_act_cache"}
    for name in probed:
        assert isinstance(getattr(fmodules._ActingModule, name), property), name


# the morphism layer that runs on integer-scaled tables, and the helpers it
# runs through
_INTEGER_LAYER = ("theta_decomposition", "_theta_table", "_int_columns", "dual_morphism",
                  "compose", "equivariant_controls")
_INTEGER_HELPERS = ("_int_thetas", "_expand_omega", "_apply", "_divided")


def test_the_morphism_layer_reads_phi_through_one_integer_table():
    # theta blocks, duals, compositions, equivariant controls and the checks'
    # columns reach Phi's coefficients only through _int_coeffs (D Phi in
    # ints), and neither they nor their helpers name a Fraction or divide
    # with /: each output entry is divided once, by exact_div in _divided
    for name in _INTEGER_LAYER + _INTEGER_HELPERS:
        fn = _function("verma.py", name)
        names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        attrs = {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
        assert not names & {"Q", "Fraction", "_clear_denominators"}, name
        assert "coeffs" not in attrs and "scaled" not in attrs, name
        assert not [node for node in ast.walk(fn)
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)], name
    assert _referrers("_int_coeffs") == {"verma.py:_int_thetas", "verma.py:_int_columns",
                                         "verma.py:compose"}
    assert _referrers("_int_thetas") == {"verma.py:theta_decomposition", "verma.py:_theta_table",
                                         "verma.py:dual_morphism",
                                         "verma.py:equivariant_controls"}
    assert {r for r in _referrers("exact_div") if r.startswith("verma.py")} == \
        {"verma.py:_divided", "verma.py:morphism_from_singular"}


def test_morphisms_map_between_fully_built_modules_only():
    # morphism_from_singular moves a search vector onto get_module(mu)
    # through reexpress, its one caller in verma, so every morphism maps
    # between fully built modules or their duals: no copy onto the full
    # module is left, and verma never asks whether a module is fully built
    # nor which kind of module it holds
    tree = ast.parse((SRC / "verma.py").read_text(), "verma.py")
    assert "_onto_full_target" not in {node.name for node in ast.walk(tree)
                                       if isinstance(node, ast.FunctionDef)}
    assert _referrers("_onto_full_target") == set()
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "_full"
             or isinstance(node, ast.Constant) and node.value == "_full"
             or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
             and {"TensorModule", "DualModule"} & {getattr(n, "id", getattr(n, "attr", None))
                                                   for arg in node.args[1:]
                                                   for n in ast.walk(arg)}]
    assert found == []
    assert {r for r in _referrers("reexpress") if r.startswith("verma.py")} == \
        {"verma.py:morphism_from_singular"}
    # every function perfbench/tracer.py patches on a module of the library,
    # or on a class of one, is still defined or imported there by that name
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    patched = {(ast.unparse(node.elts[0]), node.elts[1].value)
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Tuple) and len(node.elts) == 5
               and isinstance(node.elts[1], ast.Constant)}
    assert {("verma", "theta_decomposition"), ("verma", "compose"),
            ("verma", "dual_morphism"), ("verma", "morphism_from_singular"),
            ("uminus", "omega_basis"), ("fmodules.DualModule", "act_entries")} <= patched
    for owner, attr in patched:
        module, _, cls = owner.partition(".")
        body = ast.parse((SRC / f"{module}.py").read_text(), module).body
        if cls:
            body = next(node for node in body if isinstance(node, ast.ClassDef)
                        and node.name == cls).body
        names = {node.name for node in body if isinstance(node, ast.FunctionDef)}
        names |= {alias.name for node in body if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert attr in names, (owner, attr)
