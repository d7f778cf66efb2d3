"""The names the benchmark in ``perfbench/`` reads from the package.

The benchmark is kept unchanged from change to change so its runs stay
comparable; it wraps the package functions its tracer lists and calls
others through their modules.  A package name it reads that goes away
breaks it only when it runs, so these tests resolve every such name.
"""

import ast
import os
import sys
import types

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_tracer_target_is_patched():
    t = tracer.Tracer()  # resolves every TARGET without installing
    patched = {id(original) for _, _, original, _ in t._patches}
    for module, path, _ in tracer.TARGETS:
        owner = sys.modules[f"polymg.{module}"]
        for part in path.split("."):
            owner = getattr(owner, part)
        assert id(owner) in patched, f"{module}.{path}"


def test_every_module_attribute_the_workloads_read_resolves():
    modules = {name: value for name, value in vars(workloads).items()
               if isinstance(value, types.ModuleType)
               and value.__name__.startswith("polymg")}
    with open(workloads.__file__) as f:
        tree = ast.parse(f.read())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {name for name, _ in used} == set(modules)
    missing = [f"{name}.{attr}" for name, attr in sorted(used)
               if not hasattr(modules[name], attr)]
    assert not missing
