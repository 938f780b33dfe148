"""The hand-written modal corpus: 20 theorems and 20 non-theorems per system.

Each entry is (formula, reason). The readings, as in `slowprov.modal.kripke`:
- gl: [] over a finite tree order (transitive, conversely well-founded);
- glt: [.] over the tree order, [] over an auxiliary relation R inside it,
  closed under prec;R and R;prec, with a reflexive witness for every R pair;
- gl2: [.] over the tree order, [] over its two-step composition.
For a non-theorem the reason names a countermodel; w0 is the root and
"w0 > w1" means w1 lies above w0.
"""

GL_THEOREMS = (
    ("p -> p", "tautology"),
    ("[](p -> q) -> ([]p -> []q)", "axiom K"),
    ("[]([]p -> p) -> []p", "Loeb's axiom"),
    ("[]p -> [][]p", "axiom 4, derivable from Loeb in GL; the order is transitive"),
    ("[](p & q) -> []p", "K with the tautology p & q -> p"),
    ("[]p & []q -> [](p & q)", "K with the tautology p -> (q -> p & q)"),
    ("[]true", "necessitation of a tautology"),
    ("~<>false", "the dual of []true"),
    ("<>p -> <>true", "K with p -> true, in dual form"),
    ("<>(p | q) -> <>p | <>q", "<> distributes over |: dual of [] over &"),
    ("[](p -> q) -> (<>p -> <>q)", "K in dual form"),
    ("[]~~p -> []p", "replacement of the equivalent ~~p by p under []"),
    ("[]p | ~[]p", "tautology with []p opaque"),
    ("<>~p -> ~[]p", "duality of [] and <>, the other way"),
    ("[](p <-> q) -> ([]p <-> []q)", "congruence: K twice"),
    ("[]p -> [](q -> p)", "K with the tautology p -> (q -> p)"),
    ("[]false | <>[]false", "Loeb's axiom for false: some successor is a dead end"),
    ("[]p -> [](p | q)", "K with the tautology p -> p | q"),
    ("~[]p -> <>~p", "duality of [] and <>"),
    ("[](p -> p)", "necessitation of a tautology"),
)

GL_NON_THEOREMS = (
    ("p", "one world, p false"),
    ("~p", "one world, p true"),
    ("false", "any world"),
    ("[]p -> p", "a dead end with p false: []p holds vacuously"),
    ("p -> []p", "w0 > w1 with p true at w0 only"),
    ("[]p", "w0 > w1 with p false at w1"),
    ("<>true", "a dead end sees nothing"),
    ("[][]p -> []p", "w0 > w1 with p false at w1: w1 is a dead end"),
    ("[](p | q) -> []p | []q", "w0 sees w1 with p only and w2 with q only"),
    ("<>p", "one world"),
    ("~[]p", "a dead end, where []p holds vacuously"),
    ("[]p -> q", "one world with q false"),
    ("[]p <-> p", "a dead end with p false"),
    ("[]false -> false", "a dead end"),
    ("[]p -> <>p", "a dead end: the D axiom fails"),
    ("<>p -> []p", "w0 sees w1 with p and w2 without"),
    ("[](p -> q) -> (q -> p)", "one world with q true and p false"),
    ("p -> <>p", "a dead end with p true"),
    ("[]<>true", "w0 > w1 with w1 a dead end"),
    ("<>[]p -> []p", "w0 > w1, w1 a dead end with p false"),
)

GLT_THEOREMS = (
    ("[.](p -> q) -> ([.]p -> [.]q)", "axiom K for [.]"),
    ("[.]([.]p -> p) -> [.]p", "Loeb's axiom for [.]"),
    ("[](p -> q) -> ([]p -> []q)", "axiom K for []"),
    ("[.]p -> []p", "axiom T1: R lies inside the tree order"),
    ("[]p -> [.][]p", "axiom T2: prec;R is inside R"),
    ("[]p -> [][.]p", "axiom T3: R;prec is inside R"),
    ("[][.]p -> []p", "axiom T4: every R pair has a reflexive witness"),
    ("[.]p -> [.][.]p", "axiom 4 for [.], from Loeb"),
    ("[]p -> [][]p", "T2 then T1 on [.][]p"),
    ("[.](p & q) -> [.]q", "K for [.] with p & q -> q"),
    ("[](p & q) -> []p", "K for [] with p & q -> p"),
    ("[.](p -> p)", "necessitation for [.]"),
    ("[](p -> p)", "necessitation for [.], then T1"),
    ("p -> p", "tautology"),
    ("[.]p -> [.](q -> p)", "K for [.] with the tautology p -> (q -> p)"),
    ("[.]p -> [][.]p", "4 for [.], then T1"),
    ("[]([]p -> p) -> []p", "Loeb's principle for [], derivable from T1-T4"),
    ("[.]q -> []q", "axiom T1 for q"),
    ("[]q -> [.][]q", "axiom T2 for q"),
    ("[]p | ~[]p", "tautology with []p opaque"),
)

GLT_NON_THEOREMS = (
    ("[]p -> [.]p", "w0 > w1, R empty, p false at w1"),
    ("[]false -> [.]false", "w0 > w1 with R empty"),
    ("[.]p -> p", "a dead end with p false"),
    ("[]p -> p", "a dead end with p false"),
    ("[.]p", "w0 > w1 with p false at w1"),
    ("[]p", "w0 > w1 > w2, R = {(w0,w1),(w0,w2)}, p false; w1 witnesses both pairs"),
    ("[.]false", "w0 > w1"),
    ("p", "one world, p false"),
    ("~p", "one world, p true"),
    ("false", "any world"),
    ("<.>true", "a dead end"),
    ("<>true", "any model with R empty"),
    ("[.][.]p -> [.]p", "w0 > w1 with p false at the dead end w1"),
    ("[](p | q) -> []p", "an R pair to a world with q and not p, witnessed"),
    ("(p | q) -> p", "one world with q only"),
    ("p & ~p", "contradiction"),
    ("[]p <-> p", "a dead end with p false"),
    ("[.]p <-> p", "a dead end with p false"),
    ("<.>p -> p", "w0 > w1 with p at w1 only"),
    ("[.]p -> [.]q", "w0 > w1 with p and not q at w1"),
)

GL2_THEOREMS = (
    ("[]p <-> [.][.]p", "axiom 2: [] reads two tree steps"),
    ("[.](p -> q) -> ([.]p -> [.]q)", "axiom K for [.]"),
    ("[.]([.]p -> p) -> [.]p", "Loeb's axiom for [.]"),
    ("[](p -> q) -> ([]p -> []q)", "axiom K for []"),
    ("[.]p -> []p", "two steps of a transitive order are one step"),
    ("[.][.]p -> []p", "axiom 2, right to left"),
    ("[]p -> [.][.]p", "axiom 2, left to right"),
    ("[.]p -> [.][.]p", "axiom 4 for [.], from Loeb"),
    ("[]p -> [][]p", "four tree steps include two"),
    ("[.](p -> p)", "necessitation for [.]"),
    ("[](p -> p)", "necessitation twice, then axiom 2"),
    ("[](p & q) -> []q", "K for [] with p & q -> q"),
    ("[.]false -> []false", "a dead end has no two-step successor"),
    ("[]false <-> [.][.]false", "axiom 2 for false"),
    ("p -> p", "tautology"),
    ("[]p -> []p", "tautology"),
    ("[.]q -> []q", "transitivity, for q"),
    ("[.]([.]q -> q) -> [.]q", "Loeb's axiom for [.] and q"),
    ("[.]p -> [.](q -> p)", "K for [.] with the tautology p -> (q -> p)"),
    ("[.]q -> [.][.]q", "axiom 4 for [.] and q"),
)

GL2_NON_THEOREMS = (
    ("[]p -> [.]p", "w0 > w1 with p false at w1: no two-step successor"),
    ("[]p -> p", "a dead end with p false"),
    ("p -> []p", "w0 > w1 > w2 with p false at w2 only"),
    ("[.]p -> p", "a dead end with p false"),
    ("p -> [.]p", "w0 > w1 with p false at w1 only"),
    ("[]false", "w0 > w1 > w2"),
    ("[.]false", "w0 > w1"),
    ("p", "one world, p false"),
    ("~p", "one world, p true"),
    ("false", "any world"),
    ("<.>true", "a dead end"),
    ("<>true", "a dead end"),
    ("[.][.]p -> [.]p", "w0 > w1 with p false at the dead end w1"),
    ("[]p <-> p", "a dead end with p false"),
    ("[.]p <-> p", "a dead end with p false"),
    ("[](p | q) -> []p", "w0 > w1 > w2 with q only at w2"),
    ("(p | q) -> p", "one world with q only"),
    ("p & ~p", "contradiction"),
    ("[.](p | q) -> [.]p", "w0 > w1 with q only at w1"),
    ("<.>p -> p", "w0 > w1 with p at w1 only"),
)

CORPUS = {
    "gl": (GL_THEOREMS, GL_NON_THEOREMS),
    "glt": (GLT_THEOREMS, GLT_NON_THEOREMS),
    "gl2": (GL2_THEOREMS, GL2_NON_THEOREMS),
}
