"""Shared modal test data: curated decision corpora and an AST generator.

Each corpus pins 20 theorems and 20 non-theorems per system. The deciders
must classify every entry; Inconclusive is reserved for stress inputs
outside these lists.
"""

import random

from slowprov.modal.formula import (And, Bot, Box, Diamond, Iff, Implies,
                                    Nabla, Not, Or, Top, Triangle, Var)

GL_THEOREMS = (
    "[]([]p->p)->[]p",
    "[](p->q)->([]p->[]q)",
    "[]p->[][]p",
    "[](p&q)->[]p",
    "[](p&q)->([]p&[]q)",
    "([]p&[]q)->[](p&q)",
    "[]([]q->q)->[]q",
    "[](p->q)->(<>p-><>q)",
    "<>(p|q)->(<>p|<>q)",
    "<>p-><>true",
    "~<>false",
    "[]true",
    "p->p",
    "[]p->[]p",
    "[]~~p->[]p",
    "[](p->p)",
    "[]p|~[]p",
    "((p->q)->p)->p",
    "[]q->[][]q",
    "[](q->p)->([]q->[]p)",
)

GL_NON_THEOREMS = (
    "p",
    "~p",
    "false",
    "[]p->p",
    "p->[]p",
    "[]p",
    "<>true",
    "[][]p->[]p",
    "[](p|q)->([]p|[]q)",
    "<>p",
    "~[]p",
    "[]p->q",
    "[]p<->p",
    "[]false->false",
    "p|~q",
    "[](p->q)->(q->p)",
    "<>~p",
    "[]p-><>p",
    "q",
    "[]q->q",
)

GLT_THEOREMS = (
    "[.](p->q)->([.]p->[.]q)",
    "[.]([.]p->p)->[.]p",
    "[](p->q)->([]p->[]q)",
    "[.]p->[]p",
    "[]p->[.][]p",
    "[]p->[][.]p",
    "[][.]p->[]p",
    "[.](q->p)->([.]q->[.]p)",
    "[.]([.]q->q)->[.]q",
    "[.]q->[]q",
    "[]q->[.][]q",
    "[]([]p->p)->[]p",
    "[.]p->[.][.]p",
    "[]p->[][]p",
    "[.](p->p)",
    "[](p->p)",
    "[](p&q)->[]p",
    "[.](p&q)->[.]q",
    "p->p",
    "[]p|~[]p",
)

GLT_NON_THEOREMS = (
    "[]p->[.]p",
    "[]false->[.]false",
    "[.]p->p",
    "[]p->p",
    "[.]p",
    "[]p",
    "[.]false",
    "p",
    "~p",
    "false",
    "<.>true",
    "<>true",
    "[.][.]p->[.]p",
    "[](p|q)->[]p",
    "(p|q)->p",
    "p&~p",
    "[]p<->p",
    "[.]p<->p",
    "<.>p->p",
    "[.]p->[.]q",
)

GL2_THEOREMS = (
    "[]p<->[.][.]p",
    "[]q<->[.][.]q",
    "[.](p->q)->([.]p->[.]q)",
    "[.]([.]p->p)->[.]p",
    "[](p->q)->([]p->[]q)",
    "[.]p->[]p",
    "[.][.]p->[]p",
    "[]p->[.][.]p",
    "[.]p->[.][.]p",
    "[.]q->[.][.]q",
    "[.](p->p)",
    "[](p->p)",
    "[](p&q)->[]p",
    "[.](p&q)->[.]p",
    "[.]false->[]false",
    "p->p",
    "[]p->[]p",
    "[.]([.]q->q)->[.]q",
    "[]p->[][]p",
    "[.]q->[]q",
)

GL2_NON_THEOREMS = (
    "[]p->[.]p",
    "[]p->p",
    "p->[]p",
    "[.]p->p",
    "p->[.]p",
    "[]false",
    "[.]false",
    "p",
    "~p",
    "false",
    "<.>true",
    "<>true",
    "[.][.]p->[.]p",
    "[]p<->p",
    "[.]p<->p",
    "[](p|q)->[]p",
    "(p|q)->p",
    "p&~p",
    "[.](p|q)->[.]p",
    "<.>p->p",
)


def random_formula(rng: random.Random, depth: int, box_only=False):
    """Random AST with nesting bounded by depth; uniform-ish over shapes."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((Var("p"), Var("q"), Var("r"), Top(), Bot()))
    unary = [Not, Box, Diamond]
    if not box_only:
        unary += [Triangle, Nabla]
    pick = rng.randrange(len(unary) + 4)
    if pick < len(unary):
        return unary[pick](random_formula(rng, depth - 1, box_only))
    ctor = (And, Or, Implies, Iff)[pick - len(unary)]
    return ctor(random_formula(rng, depth - 1, box_only),
                random_formula(rng, depth - 1, box_only))


# The five ways to nest a formula n levels deep: n parentheses around p, n
# negations, n dotted boxes, n right-nested arrows and n left-nested
# conjunctions. Each once overflowed Python's recursion limit.
NESTINGS = ("parens", "not", "triangle", "implies", "and")


def nested(shape: str, n: int) -> str:
    if shape == "parens":
        return "(" * n + "p" + ")" * n
    if shape == "not":
        return "~" * n + "p"
    if shape == "triangle":
        return "[.]" * n + "p"
    return {"implies": " -> ", "and": " & "}[shape].join(["p"] * (n + 1))
