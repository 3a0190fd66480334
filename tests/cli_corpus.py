"""Command lines of the ``finitepart`` CLI that its parse tests and
``tools/bitdump.py`` share.

``ARGVS`` covers every command with valid options, repeated options,
option abbreviations, ``=`` forms, empty and negative values, ``--``,
``--format`` and ``--output`` on either side of the command, and the
argparse rejections: unknown and ambiguous options, extra positionals,
``--replay`` after a command, missing options and values, bad int, float,
tolerance and choice values, and help; and ``EDGE_ROWS``, whose rows hold
None cells or leave columns out, in all three formats.  The CLI reads some
of them from its option tables and hands the rest to argparse.  ``SCRIPTS`` are runs
that share one working directory: a document saved with ``--output`` and
then replayed.  Output files are named relative to the working directory.
"""

COMMANDS = ("fpi", "stieltjes", "quadratic", "specfun", "asym", "compare",
            "sweep")

FPI = ["fpi", "--f", "exp(1)", "--m", "1"]
ST = ["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "0.5"]

# rows kept where an oracle raises (its cells None, an "error:" line), no
# rel_diff against an inf total or a finite part of exactly 0, and a flagged
# closed route that carries direct
EDGE_ROWS = [
    ["sweep", "--f", "exp(1)", "--n", "1", "--omega-grid", "1e-320:1e-14:3",
     "--with-oracle"],
    ["quadratic", "--f", "exp(1)", "--omega", "1e5", "--compare"],
    ["compare", "--op", "fpi", "--f", "binpoly(2,1)", "--m", "1", "--a",
     "1.5"],
    ["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "400"],
]

ARGVS = [
    # every command, valid
    FPI,
    ["fpi", "--f", "monexp(2,0.8)", "--m", "2", "--nu", "0.5", "--a", "3",
     "--compare", "--tol", "1e-10"],
    ST + ["--a", "inf", "--compare"],
    ["stieltjes", "--f", "binpoly(1,2)", "--n", "2", "--nu", "0.25",
     "--omega", "0.1", "--a", "1", "--kmax", "200"],
    ["quadratic", "--f", "exp(1)", "--omega", "0.1", "--compare"],
    ["quadratic", "--f", "exp(1)", "--pe", "4"],
    ["quadratic", "--g-plus", "0.5*exp(1)", "--g-minus", "0.5*exp(1)",
     "--pe", "100", "--kappa", "2"],
    ["specfun", "--family", "gauss-int", "--n", "5", "--r", "2", "--s", "4",
     "--zeta", "2"],
    ["specfun", "--family", "gauss-branch", "--n", "3", "--mu", "0.5",
     "--s", "2", "--zeta", "2"],
    ["specfun", "--family", "kummer-int", "--n", "2", "--s", "1",
     "--omega", "0.5"],
    ["specfun", "--family", "kummer-frac", "--n", "3", "--afrac", "0.3",
     "--omega", "0.5"],
    ["asym", "--f", "monexp(2,1)", "--n", "1", "--omega", "1e-3"],
    ["asym", "--f", "exp(1)", "--n", "2", "--nu", "0.5"],
    ["compare", "--op", "fpi", "--f", "exp(1)", "--m", "1", "--a", "2"],
    ["compare", "--op", "stieltjes", "--f", "exp(1)", "--n", "1",
     "--omega", "0.3"],
    ["compare", "--op", "quadratic", "--f", "exp(1)", "--omega", "0.1"],
    ["sweep", "--f", "exp(1)", "--n", "1", "--a", "inf", "--omega-grid",
     "1e-4:1e-1:4", "--with-oracle", "--format", "csv"],
    # the oracles' maps: nu > 0, a = inf with omega >= 1, an omega > a/2
    # that the transform routes, and omega where 1 / omega leaves float range
    ["stieltjes", "--f", "monexp(1,0.8)", "--n", "2", "--nu", "0.25",
     "--omega", "0.05", "--compare"],
    ["compare", "--op", "stieltjes", "--f", "exp(1.3)", "--n", "3", "--nu",
     "0.75", "--omega", "0.3", "--a", "0.5"],
    ["sweep", "--f", "monexp(1,0.8)", "--n", "2", "--nu", "0.25",
     "--omega-grid", "0.5:4:3", "--with-oracle"],
    ["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "1.5", "--a", "2",
     "--compare"],
    ["quadratic", "--f", "exp(1)", "--omega", "0.3", "--a", "2", "--compare"],
    ["compare", "--op", "quadratic", "--f", "monexp(1,1.2)", "--omega", "2"],
    ["stieltjes", "--f", "exp(1)", "--n", "2", "--nu", "0.5", "--omega",
     "1e-30", "--compare"],
    ["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "1e-320",
     "--compare"],
    # the edge rows in every format
    *(argv + fmt for argv in EDGE_ROWS
      for fmt in ([], ["--format", "json"], ["--format", "csv"])),
    # a grid whose hi / lo leaves float range
    ["sweep", "--f", "exp(1)", "--n", "1", "--omega-grid", "1e-320:0.5:3"],
    # scaled finite parts past float range: the closed form times its
    # factor, and the recurrence's seed at ab > 1
    ["fpi", "--f", "1e300*exp(100)", "--m", "50"],
    ["fpi", "--f", "1e308*exp(5)", "--m", "1", "--a", "2"],
    # m <= p rungs of monexp past float range: lower_gamma's x^s e^{-x}
    # overflows, and b^s underflows to 0
    ["fpi", "--f", "monexp(200,200)", "--m", "1", "--a", "1"],
    ["fpi", "--f", "monexp(3,1e-110)", "--m", "1", "--a", "1"],
    # specfun factorials past float range, and a polynomial coefficient
    ["specfun", "--family", "gauss-int", "--n", "300", "--r", "1", "--s",
     "200", "--zeta", "2.0"],
    ["specfun", "--family", "gauss-branch", "--n", "300", "--mu", "0.5",
     "--s", "2", "--zeta", "1.5"],
    ["specfun", "--family", "kummer-int", "--n", "300", "--s", "3",
     "--omega", "0.5"],
    ["specfun", "--family", "kummer-int", "--n", "3", "--s", "300",
     "--omega", "0.5"],
    ["specfun", "--family", "kummer-frac", "--n", "300", "--afrac", "0.5",
     "--omega", "0.5"],
    ["fpi", "--f", "binpoly(0,2000)", "--m", "5", "--a", "1"],
    # 2F1 at zeta < 2 by its Euler integral: refused at n = 300 past the
    # rule's cap, at n = 2000 past float range, and at n = 3000 in range;
    # computed at (14, 9, 11), once refused for a bound above tol
    ["specfun", "--family", "gauss-int", "--n", "300", "--r", "1", "--s",
     "200", "--zeta", "1.5"],
    ["specfun", "--family", "gauss-int", "--n", "2000", "--r", "1", "--s",
     "3", "--zeta", "1.5"],
    ["specfun", "--family", "gauss-int", "--n", "3000", "--r", "1", "--s",
     "3", "--zeta", "1.001"],
    ["specfun", "--family", "gauss-int", "--n", "14", "--r", "9", "--s",
     "11", "--zeta", "1.999"],
    # branch-power coefficients at large n, from the Beta integral, and
    # leading values past float range
    ["asym", "--f", "monexp(20,1)", "--n", "40", "--nu", "0.5", "--omega",
     "0.5"],
    ["asym", "--f", "monexp(3,1)", "--n", "200", "--nu", "0.5", "--omega",
     "0.5"],
    ["asym", "--f", "poly(1@1000)", "--n", "1002", "--nu", "0.3", "--omega",
     "0.5"],
    ["asym", "--f", "exp(1)", "--n", "400", "--omega", "1e-3"],
    ["asym", "--f", "exp(1)", "--n", "3", "--nu", "0.5", "--omega", "1e-300"],
    ["asym", "--f", "1e300*exp(1)", "--n", "3", "--omega", "1e-200"],
    # read from the option tables: a repeated option, the last one wins,
    # and a repeated store_true flag
    FPI + ["--m", "2"],
    FPI + ["--compare", "--a", "2", "--compare"],
    # left to argparse: an = form, an empty value, a negative number as a
    # separate argument, "--" and -h after a command's options
    FPI + ["--nu=0.25"],
    ["fpi", "--f", "", "--m", "1"],
    FPI + ["--nu", "-0.5"],
    ["fpi", "--", "--f", "exp(1)", "--m", "1"],
    FPI + ["-h"],
    # abbreviations
    ["stieltjes", "--f", "exp(1)", "--n", "1", "--om", "0.5"],
    ["quadratic", "--f", "exp(1)", "--om", "0.2"],
    ["sweep", "--f", "exp(1)", "--n", "1", "--om", "1e-3:1e-1:3"],
    FPI + ["--form", "json"],
    FPI + ["--form", "csv", "--out", "fpi.csv"],
    ["compare", "--o", "fpi", "--f", "exp(1)", "--m", "1"],  # ambiguous
    # a negative prefix, joined and separate
    ["fpi", "--f=-3*exp(2)", "--m", "1"],
    ["fpi", "--f", "-3*exp(2)", "--m", "1"],
    # --format and --output before, after and on both sides of the command
    ["--format", "csv"] + ST,
    ST + ["--format", "csv"],
    ["--format", "json"] + FPI + ["--format", "csv"],
    ["--output", "before.txt"] + FPI,
    FPI + ["--output", "after.txt"],
    ["--form", "json", "--out", "both.json"] + FPI + ["--out", "sub.json"],
    # rejected by argparse
    FPI + ["--bogus", "3"],
    FPI + ["extra"],
    FPI + ["--replay", "doc.json"],
    FPI + ["--"],
    ["fpi", "--f", "exp(1)"],
    ["stieltjes", "--n", "1", "--omega", "0.5"],
    ["specfun", "--n", "2"],
    ["fpi", "--f", "exp(1)", "--m"],
    ["fpi", "--f", "exp(1)", "--m", "one"],
    ["stieltjes", "--f", "exp(1)", "--n", "1.5", "--omega", "0.5"],
    ["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "half"],
    FPI + ["--tol", "2"],
    FPI + ["--tol", "tiny"],
    FPI + ["--tol", "0"],
    ST + ["--format", "JSON"],
    ST + ["--a"],
    ["specfun", "--family", "bessel", "--n", "1"],
    ["compare", "--op", "sweep", "--f", "exp(1)"],
    FPI + ["--format", "xml"],
    ["--format", "xml"] + FPI,
    ["stielt", "--f", "exp(1)"],
    ["bogus"],
    # validated after parsing: exit 2 with an error line
    ["fpi", "--f", "bogus(1)", "--m", "1"],
    ST[:-1] + ["inf"],
    ["asym", "--f", "exp(1)", "--n", "1", "--omega", "inf"],
    ["asym", "--f", "exp(1)", "--n", "1", "--omega", "0"],
    ["quadratic", "--f", "exp(1)", "--pe", "inf"],
    ["fpi", "--f", "1e200*poly(1e200)", "--m", "1", "--a", "2"],
    ["--replay", "missing.json"],
    [],
    # help
    ["-h"],
    ["--help"],
    ["fpi", "--help"],
] + [[cmd, "-h"] for cmd in COMMANDS]

SAVED = ["--format", "json", "--output", "saved.json"]

SCRIPTS = [(argv,) for argv in ARGVS] + [
    (ST + ["--a", "4"] + SAVED, ["--replay", "saved.json"],
     ["--replay", "saved.json", "--format", "csv"],
     ["--output", "replayed.json", "--replay", "saved.json"]),
    (["quadratic", "--g-plus", "exp(1)", "--g-minus", "monexp(1,0.9)",
      "--pe", "30"] + SAVED, ["--replay", "saved.json", "--format", "table"]),
    (["sweep", "--f", "poly(1:0.5:-0.3)", "--n", "2", "--a", "2",
      "--omega-grid", "1e-3:0.5:5"] + SAVED, ["--replay", "saved.json"]),
    (["specfun", "--family", "kummer-frac", "--n", "3", "--afrac", "0.3",
      "--omega", "0.5"] + SAVED, ["--replay", "saved.json"]),
    (FPI + ["--replay", "saved.json"] + SAVED, ["--replay", "saved.json"]),
]
