"""The compiled-module cache: what names a module, and how the cache
stays bounded.

A module's name hashes its own cdef and source with the codegen
contract (``cjit._KERNEL_VERSION``: the codegen version, the frozen IR
key and the canonical bodies a loop unit embeds). A new engine kernel
therefore renames the engine library and no loop unit, while a change
to an embedded body renames every module. After each build the cache
drops the modules from before the per-target directories and evicts
the least recently loaded modules beyond ``cjit._CACHE_BYTES``.
"""

import os
import types

import pytest

from repro.customization import customize_problem
from repro.hw import cjit, compiled
from repro.hw.accelerator import RSQPAccelerator
from repro.problems import generate
from repro.verify import codegen as cg

FLAGS = list(cjit._COMPILE_ARGS[0])


def _variant(edit) -> types.ModuleType:
    """``repro.hw.cjit`` executed from its source text after ``edit``,
    as a module of its own (nothing is compiled)."""
    with open(cjit.__file__) as fh:
        text = edit(fh.read())
    module = types.ModuleType("cjit_variant")
    exec(compile(text, cjit.__file__, "exec"), module.__dict__)
    return module


def _unit_sources() -> dict:
    """The source of a B=1 and of a B=2 unit of one ADMM program."""
    problem = generate("eqqp", 16, seed=0)
    program = RSQPAccelerator(problem, customize_problem(problem, 8),
                              verify=False).compiled
    matrices = {"P": problem.P, "A": problem.A, "At": problem.A.transpose()}
    units, _ = cg.lift_units(program, matrices, (1, 2))
    return {width: next(ir.source for ir, _, _ in units
                        if ir.batch == width) for width in (1, 2)}


def _names(module, sources: dict) -> dict:
    names = {"engine": module.module_name(module._ENGINE_CDEF,
                                          module._ENGINE_SOURCE, "engine",
                                          FLAGS, ["m"])}
    for width, source in sources.items():
        names[f"B={width}"] = module.module_name(
            compiled._LOOP_CDEF, source, "loop", FLAGS, ["m"])
    return names


def test_a_new_engine_kernel_renames_the_engine_alone():
    sources = _unit_sources()
    assert "#include" in sources[1] and "#include" in sources[2]
    before = _names(_variant(lambda text: text), sources)
    assert before == _names(cjit, sources)
    grown = _names(_variant(lambda text: text.replace(
        '_LOAD_SOURCE = """\n',
        '_LOAD_SOURCE = """\nvoid k_extra(void) {}\n', 1)), sources)
    assert grown["engine"] != before["engine"]
    assert {key: grown[key] for key in ("B=1", "B=2")} == {
        key: before[key] for key in ("B=1", "B=2")}


def test_an_embedded_body_renames_every_module():
    sources = _unit_sources()
    before = _names(cjit, sources)
    edited = _names(_variant(lambda text: text.replace(
        "        acc += a[i] * b[i];\n",
        "        acc = acc + a[i] * b[i];\n", 1)), sources)
    assert all(edited[key] != before[key] for key in before)


def _module(root, name: str, size: int, mtime: float) -> str:
    path = os.path.join(root, name)
    os.makedirs(path)
    with open(os.path.join(path, name + ".so"), "wb") as fh:
        fh.write(b"\0" * size)
    os.utime(path, (mtime, mtime))
    return path


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """An empty cache directory of this host's target."""
    monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
    os.makedirs(cjit.module_dir())
    return tmp_path


def test_prune_evicts_the_least_recently_loaded(cache, monkeypatch):
    root = cjit.module_dir()
    monkeypatch.setattr(cjit, "_CACHE_BYTES", 3000)
    old = _module(root, "_repro_loop_old", 1000, 100.0)
    mid = _module(root, "_repro_loop_mid", 1000, 200.0)
    new = _module(root, "_repro_loop_new", 1000, 300.0)
    built = _module(root, "_repro_loop_built", 1000, 50.0)
    building = os.path.join(root, "_repro_loop_x.build.abc")
    os.makedirs(building)
    cjit._prune(built)
    assert sorted(os.listdir(root)) == sorted(
        os.path.basename(path) for path in (mid, new, built, building))
    assert not os.path.exists(old)
    cjit._prune(built)  # within the bound: nothing more goes
    assert os.path.isdir(mid)


def test_prune_deletes_modules_from_before_target_directories(cache):
    legacy = _module(str(cache), "_repro_engine_legacy", 10, 100.0)
    other = os.path.join(cache, "notes.txt")
    with open(other, "w") as fh:
        fh.write("kept")
    kept = _module(cjit.module_dir(), "_repro_loop_kept", 10, 100.0)
    cjit._prune(kept)
    assert not os.path.exists(legacy)
    assert os.path.exists(other) and os.path.isdir(kept)


@pytest.mark.skipif(not cjit.available(), reason="needs a C toolchain")
def test_a_build_prunes_and_a_load_refreshes(cache):
    legacy = _module(str(cache), "_repro_loop_legacy", 10, 100.0)
    module = cjit.compile_module("int eight(void);",
                                 "int eight(void) { return 8; }")
    assert module.lib.eight() == 8
    assert not os.path.exists(legacy)
    path = os.path.join(cjit.module_dir(), module.__name__)
    os.utime(path, (1.0, 1.0))
    assert cjit._load(module.__name__, path) is not None
    assert os.stat(path).st_mtime > 1.0
