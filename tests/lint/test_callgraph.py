"""Call-graph construction and function-summary edge cases.

The interprocedural rules are only as sound as the graph under them, so
these tests pin the resolver's behaviour on the shapes the codebase
actually uses — bound methods through ``self``, single-assignment
aliases, decorated generators — and on the shapes it must *refuse* to
resolve (arbitrary receivers, rebound aliases).  The may-yield summary
is exercised with mutual recursion, which must terminate, not loop.
"""

import ast
import textwrap

from repro.lint.callgraph import build_call_graph, module_name_of
from repro.lint.summaries import compute_summaries


def graph_of(*modules):
    """Build a call graph from ``(logical, source)`` pairs."""
    return build_call_graph([
        (logical, ast.parse(textwrap.dedent(source)))
        for logical, source in modules])


def callees_of(cg, fid):
    return sorted(set(cg.callees(fid)))


def unknown_sites(cg, fid):
    return [site for site in cg.call_sites(fid) if site.callee is None]


# -- module naming -------------------------------------------------------------

def test_module_name_of_maps_init_to_package():
    assert module_name_of("repro/core/wtpg.py") == "repro.core.wtpg"
    assert module_name_of("repro/engine/__init__.py") == "repro.engine"


def test_every_def_is_indexed_once():
    """Redefinitions and defs under loops, ``with`` and ``except`` get
    their own declaration, so the flow rules see every body."""
    source = """\
        class Tracer:
            @property
            def rate(self):
                return self._rate

            @rate.setter
            def rate(self, value):
                self._rate = value

            def use(self):
                return self.rate

        try:
            import fast
        except ImportError:
            def fallback():
                pass
        for _ in ():
            def in_loop():
                pass
    """
    cg = graph_of(("repro/machine/t.py", source))
    walked = [node for node in ast.walk(ast.parse(textwrap.dedent(source)))
              if isinstance(node, ast.FunctionDef)]
    assert len(cg.functions) == len(walked) == 5
    assert ("repro/machine/t.py", "Tracer.rate#7") in cg.functions
    getter = cg.declaration(("repro/machine/t.py", "Tracer.rate"))
    assert getter is not None and getter.node.lineno == 3


# -- resolution ----------------------------------------------------------------

def test_bound_method_through_self_resolves_within_class():
    cg = graph_of(("repro/machine/a.py", """\
        class Node:
            def run(self):
                self.step()
            def step(self):
                pass
    """))
    fid = ("repro/machine/a.py", "Node.run")
    assert callees_of(cg, fid) == [("repro/machine/a.py", "Node.step")]


def test_self_method_resolves_through_project_base_class():
    cg = graph_of(
        ("repro/machine/base.py", """\
            class Base:
                def helper(self):
                    pass
        """),
        ("repro/machine/sub.py", """\
            from repro.machine.base import Base

            class Sub(Base):
                def run(self):
                    self.helper()
        """))
    fid = ("repro/machine/sub.py", "Sub.run")
    assert callees_of(cg, fid) == [("repro/machine/base.py", "Base.helper")]


def test_single_assignment_alias_resolves_to_module_function():
    cg = graph_of(("repro/core/a.py", """\
        def helper():
            pass

        def run():
            f = helper
            f()
    """))
    fid = ("repro/core/a.py", "run")
    assert callees_of(cg, fid) == [("repro/core/a.py", "helper")]


def test_rebound_alias_is_soundly_unknown():
    cg = graph_of(("repro/core/a.py", """\
        def helper():
            pass

        def other():
            pass

        def run(flag):
            f = helper
            if flag:
                f = other
            f()
    """))
    fid = ("repro/core/a.py", "run")
    # Two candidate bindings: the alias map must refuse to pick one.
    assert callees_of(cg, fid) == []
    assert len(unknown_sites(cg, fid)) == 1


def test_wraps_decorated_generator_keeps_its_name_and_yield():
    cg = graph_of(("repro/machine/a.py", """\
        import functools

        def traced(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return fn(*args, **kwargs)
            return wrapper

        @traced
        def worker(env):
            yield env.timeout(1)

        def run(env):
            return worker(env)
    """))
    fid = ("repro/machine/a.py", "worker")
    decl = cg.declaration(fid)
    assert decl is not None and decl.has_yield
    # The decorated def still resolves at its call site, and the nested
    # wrapper body is indexed separately without stealing the yield.
    assert ("repro/machine/a.py", "worker") in callees_of(
        cg, ("repro/machine/a.py", "run"))
    nested = cg.declaration(
        ("repro/machine/a.py", "traced.<locals>.wrapper"))
    assert nested is not None and not nested.has_yield


def test_imported_name_follows_package_init_reexport():
    cg = graph_of(
        ("repro/core/impl.py", """\
            def compute():
                pass
        """),
        ("repro/core/__init__.py", """\
            from repro.core.impl import compute
        """),
        ("repro/machine/user.py", """\
            from repro.core import compute

            def run():
                compute()
        """))
    fid = ("repro/machine/user.py", "run")
    assert callees_of(cg, fid) == [("repro/core/impl.py", "compute")]


def test_class_call_targets_init_and_instance_method_resolves():
    cg = graph_of(("repro/core/a.py", """\
        class Thing:
            def __init__(self):
                pass
            def poke(self):
                pass

        def run():
            t = Thing()
            Thing().poke()
    """))
    fid = ("repro/core/a.py", "run")
    assert callees_of(cg, fid) == [
        ("repro/core/a.py", "Thing.__init__"),
        ("repro/core/a.py", "Thing.poke"),
    ]


def test_arbitrary_receiver_is_soundly_unknown():
    cg = graph_of(("repro/machine/a.py", """\
        def run(node):
            node.step()
            getattr(node, "poke")()
    """))
    fid = ("repro/machine/a.py", "run")
    assert callees_of(cg, fid) == []
    assert len(unknown_sites(cg, fid)) >= 2


# -- summaries -----------------------------------------------------------------

def test_may_yield_propagates_through_calls():
    cg = graph_of(("repro/machine/a.py", """\
        class Node:
            def leaf(self, env):
                yield env.timeout(1)
            def middle(self, env):
                yield from self.leaf(env)
            def top(self, env):
                self.middle(env)
            def pure(self):
                return 1
    """))
    table = compute_summaries(cg)
    mod = "repro/machine/a.py"
    assert table.summary((mod, "Node.leaf")).may_yield
    assert table.summary((mod, "Node.middle")).may_yield
    assert table.summary((mod, "Node.top")).may_yield
    assert not table.summary((mod, "Node.pure")).may_yield


def test_mutual_recursion_summary_fixpoint_converges():
    cg = graph_of(("repro/machine/a.py", """\
        def ping(env, n):
            if n:
                pong(env, n - 1)

        def pong(env, n):
            yield env.timeout(1)
            ping(env, n)
    """))
    table = compute_summaries(cg)  # must terminate
    mod = "repro/machine/a.py"
    assert table.summary((mod, "ping")).may_yield
    assert table.summary((mod, "pong")).may_yield
