"""The reference implementations themselves: raw unfolding certifies the
closed forms, the closed-form oracle certifies the evaluator, and the frame
iterator produces the known tree counts."""

import ast
from pathlib import Path

import pytest

from slowprov.ordinal import ONE, ZERO, from_int, parse_ordinal
from slowprov.fgh import Value, eval_F
from slowprov.oracles import (
    HardCapExceeded,
    RawBudgetExceeded,
    TreeFrame,
    enumerate_tree_frames,
    oracle_F,
    oracle_F_raw,
)

p = parse_ordinal


def test_raw_certifies_closed_forms():
    for x in range(65):
        assert oracle_F_raw(ONE, x) == 2 * x + 1
    for x in range(13):
        assert oracle_F_raw(p("2"), x) == 2 ** (x + 1) * (x + 1) - 1


def test_raw_certifies_zero_and_small_limits():
    assert oracle_F_raw(ZERO, 9) == 10
    assert oracle_F_raw(p("w"), 1) == 7
    assert oracle_F_raw(ONE, 0) == 1
    assert oracle_F_raw(p("2"), 1) == 7
    # w at 2 is F_3(2), far past raw reach; check the budget trips instead
    with pytest.raises(RawBudgetExceeded):
        oracle_F_raw(p("3"), 2, max_ops=10 ** 5)


def test_oracle_agrees_with_evaluator():
    cases = [("0", 4), ("1", 6), ("2", 3), ("3", 1), ("w", 2),
             ("w+1", 0), ("w*2", 0), ("w^2", 0), ("e0", 0)]
    for a_txt, n in cases:
        got = eval_F(p(a_txt), n)
        assert isinstance(got, Value)
        assert got.v == oracle_F(p(a_txt), n)


def test_oracle_hard_cap():
    with pytest.raises(HardCapExceeded):
        oracle_F(p("2"), 2 ** 34)
    with pytest.raises(HardCapExceeded):
        oracle_F(p("4"), 3)


def test_frame_counts():
    # labeled rooted trees on n nodes: n^(n-1) total, of which these are
    # the ones rooted at w0 (n^(n-2) for n >= 2, by Cayley)
    assert len(list(enumerate_tree_frames(1))) == 1
    assert len(list(enumerate_tree_frames(2))) == 1
    assert len(list(enumerate_tree_frames(3))) == 3
    assert len(list(enumerate_tree_frames(4))) == 16
    assert len(list(enumerate_tree_frames(5))) == 125


def test_frames_are_trees():
    for frame in enumerate_tree_frames(4):
        pairs = frame.ancestor_pairs()
        assert len(set(pairs)) == len(pairs)
        # transitivity
        ps = set(pairs)
        for a, b in pairs:
            for c, d in pairs:
                if c == b:
                    assert (a, d) in ps
        # every non-root has exactly one parent among immediate links
        for child in range(1, frame.size):
            assert 0 <= frame.parents[child - 1] < frame.size
        # root reaches everything
        reached = {d for a, d in pairs if a == 0} | {0}
        assert reached == set(range(frame.size))


def test_size_three_frames_explicitly():
    got = [f.parents for f in enumerate_tree_frames(3)]
    assert got == [(0, 0), (0, 1), (2, 0)]


def test_frame_size_limits():
    with pytest.raises(ValueError):
        enumerate_tree_frames(9)
    with pytest.raises(ValueError):
        enumerate_tree_frames(0)


def test_frame_world_names():
    f = TreeFrame(3, (0, 0))
    assert f.world_names() == ("w0", "w1", "w2")
    assert f.ancestor_pairs() == ((0, 1), (0, 2))


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "slowprov"


def _imported(source: str, package: str):
    """Every module an import statement of source names, absolute; package is
    the dotted name of the package the source sits in."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = ".".join(parts[:len(parts) + 1 - node.level] if node.level else [])
            module = ".".join(filter(None, (base, node.module)))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_import_walker_resolves_relative_imports():
    found = set(_imported("from .. import oracles\nfrom ..oracles import TreeFrame\n"
                          "import slowprov.oracles as o\nfrom .kripke import Ok", "slowprov.modal"))
    assert {"slowprov.oracles", "slowprov.oracles.TreeFrame", "slowprov.modal.kripke.Ok"} <= found


def test_production_modules_do_not_import_the_oracles():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    for path in modules:
        if path.name == "oracles.py":
            continue
        package = ".".join(path.relative_to(PACKAGE.parent).parent.parts)
        names = set(_imported(path.read_text(), package))
        assert not {n for n in names if n == "slowprov.oracles"
                    or n.startswith("slowprov.oracles.")}, path
