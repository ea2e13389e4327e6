"""CLI stdout pinned by digest.

`cli_digests.json` holds each argv of ARGVS with the sha256 of the stdout
that an in-process `cli.main(argv)` prints and the exit code it returns (the
SystemExit code of --help), run in an empty directory with COLUMNS=80.  The
test replays every argv.  After a change that means to alter an output,
rewrite the file with the command below, which first prints each argv whose
digest moved, was added or was dropped, and name each in the change's notes:

    PYTHONPATH=src python tests/test_cli_digests.py

argparse words help and usage errors differently across Python versions, so
the file records the version that wrote it and the test runs only on that
version.  `selftest` is left out, as it prints timings.  The directory holds
the files of FILES, which some argvs read.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from hyptorsion import cli

DIGESTS = Path(__file__).with_name("cli_digests.json")
PYTHON = "%d.%d" % sys.version_info[:2]
# a curve over GF(3^2) whose field carries its modulus
GF9_CURVE = ('{"field": {"kind": "GF", "p": 3, "m": 2, "modulus": %s}, "g": 1, '
             '"f": [[0, 2], [0, 2], [1, 0], [1, 0]]}')
FILES = {"truncated.json": '{"field": {"kind": "GF", "p": 11}, "g"',
         "zero-denominator.json": '{"field": {"kind": "Q"}, "g": 2, "f": ["1/0", 1]}',
         "gf9.json": GF9_CURVE % "[2, 1, 1]",
         "gf9-reducible.json": GF9_CURVE % "[2, 0, 1]",
         "gf9-wrong-degree.json": GF9_CURVE % "[1, 1, 1, 1]"}

HELP = [
    ["-h"],
    ["--help"],
    ["construct-single", "-h"],
    ["verify", "-h"],
    ["construct-pair", "-h"],
    ["enumerate-families", "-h"],
    ["find-mu", "-h"],
    ["rational-g52", "-h"],
    ["hyperelliptic", "-h"],
    ["census", "-h"],
    ["weil", "-h"],
    ["selftest", "-h"],
    ["weil", "--help"],
    ["--", "census", "--help"],
]

# usage errors, and options given by a prefix of their name
USAGE = [
    [],
    ["bogus"],
    ["--"],
    ["-x"],
    ["-x", "hyperelliptic", "--n", "105"],
    ["--", "hyperelliptic", "--n", "105"],
    ["hyperelliptic", "--n", "105", "extra"],
    ["hyperelliptic"],
    ["hyperelliptic", "--n", "105", "--max", "120"],
    ["census", "--p", "3"],
    ["verify", "--curve", "x^5+1"],
    ["construct-pair", "--field", "GF:11", "--g", "2"],
    ["find-mu", "--field", "GF:11", "--g", "2", "--regime", "bogus"],
    ["weil", "--field", "GF:11", "--g", "x", "--I", "0,1"],
    ["rational-g52", "--seed", "1"],
    ["selftest", "--seed", "1"],
    ["construct-single", "--fie", "GF:5", "--g", "2", "--a", "0", "--v", "x+1"],
    ["verify", "--f", "GF:11", "--g", "2", "--curve", "x^5+1", "--point", "(0,1)"],
    ["hyperelliptic", "--ma", "201"],
    ["census", "--p", "5", "--g", "2", "--cur", "x^5+(x+1)^2", "--n", "5"],
    ["find-mu", "--field", "GF:11", "--g", "2", "--ind", "1"],
    ["enumerate-families", "--field", "GF:11", "--g", "2", "--all"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1", "--m", "2"],
]

# every subcommand but selftest, and --json-out
CALLS = [
    ["construct-single", "--field", "GF:5", "--g", "2", "--a", "0", "--v", "x+1"],
    ["construct-single", "--field", "GF:3,2", "--g", "1", "--a", "1",
     "--v", "[[0,1],[1,0]]"],
    ["construct-single", "--field", "Q", "--g", "2", "--a", "1/2", "--v", "x+1"],
    ["verify", "--field", "GF:11", "--g", "2", "--curve", "x^5+1", "--point", "(0,1)",
     "--oracle"],
    ["verify", "--field", "GF:3,2", "--g", "1", "--curve", "[[2,1],[2,0],[1,0],[1,0]]",
     "--point", "([0,1],[1,1])", "--oracle"],
    ["verify", "--field", "GF:29,2", "--g", "2", "--curve",
     "[[15,8],[12,28],[22,7],[21,24],[9,0],[1,0]]", "--point", "([28,0],[22,3])",
     "--oracle"],
    ["construct-pair", "--field", "GF:11", "--g", "2", "--a1", "0", "--a2", "10",
     "--u1", "[7, 7, 2]", "--u2", "[8, 10, 8]"],
    ["enumerate-families", "--field", "GF:11", "--g", "2"],
    ["enumerate-families", "--field", "GF:3,4", "--g", "7", "--regime", "char",
     "--p", "3", "--k", "1", "--l", "2"],
    ["enumerate-families", "--field", "GF:3,4", "--g", "7", "--regime", "char",
     "--p", "3", "--k", "1", "--l", "2", "--all-admissible"],
    ["find-mu", "--field", "GF:11", "--g", "2", "--index", "1"],
    # the coprime regime is the char regime at k = 0
    ["enumerate-families", "--field", "GF:11", "--g", "2", "--regime", "char",
     "--p", "11", "--k", "0", "--l", "2"],
    ["enumerate-families", "--field", "GF:11", "--g", "2", "--regime", "char",
     "--p", "11", "--k", "0", "--l", "2", "--all-admissible"],
    ["find-mu", "--field", "GF:11", "--g", "2", "--regime", "char", "--p", "11",
     "--k", "0", "--l", "2", "--index", "3"],
    ["find-mu", "--field", "GF:11", "--g", "2", "--index", "3"],
    ["rational-g52"],
    ["rational-g52", "--g", "82"],
    ["rational-g52", "--g", "262"],
    ["rational-g52", "--g", "292"],
    ["hyperelliptic", "--n", "105"],
    ["hyperelliptic", "--max", "201"],
    ["census", "--p", "5", "--g", "2", "--curve", "x^5+(x+1)^2", "--n", "5"],
    ["census", "--p", "3", "--m", "4", "--g", "1", "--curve", "x^3+(x+1)^2",
     "--n", "3", "--seed", "1"],
    ["census", "--p", "3", "--m", "4", "--g", "1", "--curve", "x^3+(x+1)^2",
     "--n", "15"],
    ["census", "--p", "13", "--g", "2", "--curve", "x^5+2*x+3", "--n", "76"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1", "--mu", "2"],
    ["weil", "--field", "GF:29,2", "--g", "2", "--I", "0,1"],
    ["weil", "--field", "GF:29,2", "--g", "2", "--I", "0,2", "--mu", "[3,1]"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "0,2,4", "--mu", "5"],
    # untabled GF(3^9) arithmetic under Cantor, and Poly.__pow__'s
    # square-and-multiply branch
    ["verify", "--field", "GF:3,9", "--g", "1", "--curve", "x^3+(x+1)^2",
     "--point", "(0,1)", "--oracle"],
    ["verify", "--field", "GF:11", "--g", "2", "--curve", "(x^2+1)^2*x+1",
     "--point", "(0,1)", "--oracle"],
    # a curve file with a given GF(3^2) modulus
    ["verify", "--curve", "gf9.json", "--point", "([1,0],[1,1])", "--oracle"],
    ["hyperelliptic", "--max", "120", "--json-out", "out.json"],
    ["hyperelliptic", "--n", "5", "--json-out", "missing/out.json"],
]

# error envelopes: malformed input and the bounds
ERRORS = [
    # a curve file whose GF(3^2) modulus is reducible, and one of degree 3
    ["verify", "--curve", "gf9-reducible.json", "--point", "([1,0],[1,1])", "--oracle"],
    ["verify", "--curve", "gf9-wrong-degree.json", "--point", "([1,0],[1,1])",
     "--oracle"],
    ["verify", "--field", "Q", "--g", "2", "--curve", "x^5+1", "--point", "(1/0,1)"],
    # a JSON rational with a zero denominator
    ["construct-single", "--field", "Q", "--g", "2", "--a", "0", "--v", '["1/0"]'],
    ["verify", "--field", "Q", "--g", "2", "--curve", '["1/0",0,0,0,0,1]',
     "--point", "(0,1)"],
    ["construct-pair", "--field", "Q", "--g", "2", "--a1", "0", "--a2", "-1",
     "--u1", '["1/0",1,1]', "--u2", "[1,1,1]"],
    ["verify", "--curve", "zero-denominator.json", "--point", "(0,1)"],
    ["verify", "--field", "GF:11", "--g", "2", "--curve", "x^5+1", "--point", "(0,2)"],
    ["verify", "--curve", "missing.json", "--point", "(0,1)"],
    # a curve over Q whose gcd with f' the modular images cannot settle
    ["verify", "--field", "Q", "--g", "2", "--curve", "(x+1)^2*(x^3+2)",
     "--point", "(0,1)"],
    ["verify", "--field", "GF:318665857834031151167461", "--g", "2",
     "--curve", "x^5+1", "--point", "(0,1)"],
    ["construct-single", "--field", "GF(11)", "--g", "1", "--a", "0", "--v", "1"],
    ["construct-single", "--field", "GF:5", "--g", "2", "--a", "0", "--v", "1"],
    ["construct-single", "--field", "GF:5", "--g", "2", "--a", "0", "--v", "x^5 + y"],
    ["construct-single", "--field", "GF:5", "--g", "2", "--a", "0",
     "--v", "x^99999999999"],
    ["construct-single", "--field", "GF:5,0", "--g", "1", "--a", "1", "--v", "1"],
    ["construct-single", "--field", "GF:3,81", "--g", "1", "--a", "1", "--v", "x"],
    ["construct-single", "--field", "GF:3,5000", "--g", "1", "--a", "1", "--v", "x"],
    ["construct-single", "--field", "GF:1000003", "--g", "3000", "--a", "1",
     "--v", "1"],
    ["enumerate-families", "--field", "GF:29", "--g", "2"],
    ["enumerate-families", "--field", "GF:47", "--g", "11"],
    ["enumerate-families", "--field", "GF:11", "--g", "2", "--regime", "char"],
    ["enumerate-families", "--field", "GF:11", "--g", "302", "--regime", "char",
     "--p", "11", "--k", "2", "--l", "2", "--all-admissible"],
    ["find-mu", "--field", "GF:11", "--g", "2", "--index", "-1"],
    ["find-mu", "--field", "GF:11", "--g", "2", "--index", "6"],
    ["find-mu", "--field", "GF:3,4", "--g", "1", "--regime", "char", "--p", "3",
     "--k", "1", "--l", "2"],
    ["find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char", "--p", "3",
     "--k", "30", "--l", "2"],
    ["find-mu", "--field", "GF:7", "--g", "1", "--regime", "char", "--p", "7",
     "--k=-1", "--l", "1"],
    ["enumerate-families", "--field", "GF:83", "--g", "20", "--regime", "char",
     "--p", "83", "--k", "0", "--l", "20"],
    ["find-mu", "--field", "GF:83", "--g", "20", "--regime", "char", "--p", "83",
     "--k", "0", "--l", "20", "--index", "5"],
    ["rational-g52", "--g", "301"],
    ["hyperelliptic", "--n", "4"],
    ["hyperelliptic", "--n", "100000001"],
    ["hyperelliptic", "--max", "50001"],
    ["census", "--p", "3", "--m", "14", "--g", "1", "--n", "3", "--curve", "x^3+2*x+1"],
    ["census", "--p", "5", "--m", "0", "--g", "1", "--n", "3", "--curve", "x^3+2*x+1"],
    ["census", "--p", "5", "--m", "-3", "--g", "1", "--n", "3",
     "--curve", "x^3+2*x+1"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "1,0"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1", "--mu", "0"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1", "--mu", "1"],
    # weil --mu on a curve whose f is not squarefree
    ["weil", "--field", "GF:11", "--g", "2", "--I", "0,3", "--mu", "3"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "1,2", "--mu", "2"],
    ["weil", "--field", "GF:311", "--g", "100000", "--I", "0"],
    ["verify", "--field", "GF:11", "--g", "2", "--curve", "(" * 300 + "x" + ")" * 300,
     "--point", "(0,1)"],
    ["construct-single", "--field", "GF:5", "--g", "2", "--a", "[" * 5000 + "]" * 5000,
     "--v", "x+1"],
    ["verify", "--field", "GF:11", "--g", "2", "--curve", "x^5+1", "--point", "(0,1/2)"],
    ["construct-single", "--field", "GF:5", "--g", "2", "--a", "[1,", "--v", "x+1"],
    ["verify", "--field", "GF:11", "--g", "2", "--curve", "[1,0,0,0,0",
     "--point", "(0,1)"],
    ["verify", "--field", "GF:11", "--g", "2", "--curve", "x^5+1", "--point", "([1,,1)"],
    ["verify", "--curve", "truncated.json", "--point", "(0,1)"],
    # each construct-pair refusal: equal abscissas, u1 = 0, degree above g,
    # degree below g, product mismatch, P side, Q side, f not squarefree
    *(["construct-pair", "--field", "GF:11", "--g", "2", "--a1", a1, "--a2", a2,
       "--u1", u1, "--u2", u2]
      for a1, a2, u1, u2 in (("0", "0", "[7, 7, 2]", "[8, 10, 8]"),
                             ("0", "10", "0", "[8, 10, 8]"),
                             ("0", "10", "[7, 7, 2, 1]", "[8, 10, 8]"),
                             ("0", "10", "[7, 7]", "[8, 10, 8]"),
                             ("0", "10", "[7, 7, 3]", "[8, 10, 8]"),
                             ("10", "0", "[9, 9, 1]", "[6, 2, 6]"),
                             ("0", "10", "[9, 9, 1]", "[5, 9, 5]"))),
    ["construct-pair", "--field", "GF:5", "--g", "2", "--a1", "0", "--a2", "3",
     "--u1", "1", "--u2", "2"],   # u1' = u2' = 0
]

# one round of each benchmark workload at seed 1, in perfbench's order
CENSUS_ROUND = [
    ["verify", "--field", "Q", "--g", "2", "--curve", "x^5+1", "--point", "(1/0,1)"],
    ["construct-single", "--field", "GF:11", "--g", "5", "--a", "4", "--v",
     "[1, 4, 2, 4, 8, 9]", "--seed", "1"],
    ["census", "--p", "11", "--m", "1", "--g", "5", "--curve",
     "[8, 8, 9, 2, 8, 10, 10, 1, 4, 1, 4, 1]", "--n", "11", "--seed", "1"],
    ["construct-single", "--field", "GF:3", "--g", "1", "--a", "2", "--v", "[0, 1]",
     "--seed", "1"],
    ["census", "--p", "3", "--m", "1", "--g", "1", "--curve", "[1, 0, 1, 1]", "--n",
     "3", "--seed", "1"],
    ["construct-single", "--field", "GF:3,3", "--g", "1", "--a", "[2, 0, 0]", "--v",
     "[[2, 0, 0], [1, 0, 0]]", "--seed", "1"],
    ["census", "--p", "3", "--m", "3", "--g", "1", "--curve",
     "[[2, 0, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0]]", "--n", "3", "--seed", "1"],
    ["construct-single", "--field", "GF:3,3", "--g", "4", "--a", "[1, 0, 0]", "--v",
     "[[2, 0, 0], [1, 0, 0], [1, 0, 0], [2, 0, 0], [1, 0, 0]]", "--seed", "1"],
    ["census", "--p", "3", "--m", "3", "--g", "4", "--curve",
     "[[0, 0, 0], [1, 0, 0], [2, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], "
     "[1, 0, 0], [1, 0, 0], [1, 0, 0]]",
     "--n", "9", "--seed", "1"],
    ["construct-single", "--field", "GF:5,3", "--g", "2", "--a", "[1, 0, 0]", "--v",
     "[[2, 0, 0], [2, 0, 0], [4, 0, 0]]", "--seed", "1"],
    ["census", "--p", "5", "--m", "3", "--g", "2", "--curve",
     "[[3, 0, 0], [3, 0, 0], [0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0]]", "--n", "5",
     "--seed", "1"],
    ["construct-single", "--field", "GF:5", "--g", "12", "--a", "2", "--v",
     "[0, 0, 3, 2, 4, 4, 4, 3, 3, 3, 4, 0, 1]", "--seed", "1"],
    ["census", "--p", "5", "--m", "1", "--g", "12", "--curve",
     "[3, 0, 0, 0, 4, 2, 3, 0, 1, 1, 3, 1, 0, 3, 0, 3, 2, 0, 1, 0, 2, 1, 3, 0, 1, 1]",
     "--n", "25", "--seed", "1"],
    ["find-mu", "--field", "GF:11", "--g", "2", "--index", "-1"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1", "--mu", "0"],
    ["construct-single", "--field", "GF:3", "--g", "4", "--a", "2", "--v",
     "[1, 0, 1, 0, 2]", "--seed", "1"],
    ["census", "--p", "3", "--m", "1", "--g", "4", "--curve",
     "[2, 0, 2, 0, 2, 0, 1, 0, 1, 1]", "--n", "9", "--seed", "1"],
    ["construct-single", "--field", "GF:3,4", "--g", "4", "--a", "[0, 0, 0, 0]", "--v",
     "[[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]", "--seed", "1"],
    ["census", "--p", "3", "--m", "4", "--g", "4", "--curve",
     "[[1, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, "
     "0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]",
     "--n", "9", "--seed", "1"],
    ["construct-single", "--field", "GF:7,2", "--g", "3", "--a", "[2, 0]", "--v",
     "[[3, 0], [3, 0], [5, 0]]", "--seed", "1"],
    ["census", "--p", "7", "--m", "2", "--g", "3", "--curve",
     "[[0, 0], [4, 0], [4, 0], [2, 0], [4, 0], [0, 0], [0, 0], [1, 0]]", "--n", "7",
     "--seed", "1"],
    ["construct-single", "--field", "GF:7,2", "--g", "3", "--a", "[2, 0]", "--v",
     "[[3, 0], [3, 0], [1, 0], [5, 0]]", "--seed", "1"],
    ["census", "--p", "7", "--m", "2", "--g", "3", "--curve",
     "[[0, 0], [4, 0], [1, 0], [1, 0], [3, 0], [3, 0], [4, 0], [1, 0]]", "--n", "7",
     "--seed", "1"],
    ["construct-single", "--field", "GF:3,4", "--g", "1", "--a", "[2, 0, 0, 0]", "--v",
     "[[1, 0, 0, 0], [2, 0, 0, 0]]", "--seed", "1"],
    ["census", "--p", "3", "--m", "4", "--g", "1", "--curve",
     "[[2, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]", "--n", "3", "--seed",
     "1"],
    ["verify", "--curve", "perfbench/no-such-curve.json", "--point", "(0,1)"],
    ["construct-single", "--field", "GF:3", "--g", "13", "--a", "1", "--v",
     "[1, 1, 2, 0, 0, 0, 2, 0, 0, 1, 2, 2, 2, 1]", "--seed", "1"],
    ["census", "--p", "3", "--m", "1", "--g", "13", "--curve",
     "[0, 2, 2, 1, 1, 0, 1, 1, 2, 2, 0, 0, 2, 2, 1, 2, 2, 2, 0, 2, 2, 0, 2, 0, 2, 1, "
     "1, 1]",
     "--n", "27", "--seed", "1"],
    ["construct-single", "--field", "GF:3,2", "--g", "4", "--a", "[0, 0]", "--v",
     "[[1, 0], [0, 0], [1, 0], [0, 0], [2, 0]]", "--seed", "1"],
    ["census", "--p", "3", "--m", "2", "--g", "4", "--curve",
     "[[1, 0], [0, 0], [2, 0], [0, 0], [2, 0], [0, 0], [1, 0], [0, 0], [1, 0], [1, 0]]",
     "--n", "9", "--seed", "1"],
    ["construct-single", "--field", "GF:5,3", "--g", "2", "--a", "[2, 0, 0]", "--v",
     "[[0, 0, 0], [0, 0, 0], [2, 0, 0]]", "--seed", "1"],
    ["census", "--p", "5", "--m", "3", "--g", "2", "--curve",
     "[[3, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [4, 0, 0], [1, 0, 0]]", "--n", "5",
     "--seed", "1"],
    ["construct-single", "--field", "GF:3,4", "--g", "4", "--a", "[1, 0, 0, 0]", "--v",
     "[[0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]]", "--seed", "1"],
    ["census", "--p", "3", "--m", "4", "--g", "4", "--curve",
     "[[2, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, "
     "0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]",
     "--n", "9", "--seed", "1"],
    ["construct-single", "--field", "GF:7", "--g", "3", "--a", "2", "--v",
     "[2, 3, 2, 2]", "--seed", "1"],
    ["census", "--p", "7", "--m", "1", "--g", "3", "--curve",
     "[2, 5, 3, 6, 2, 1, 4, 1]", "--n", "7", "--seed", "1"],
    ["construct-single", "--field", "GF:3,4", "--g", "1", "--a", "[1, 0, 0, 0]", "--v",
     "[[1, 0, 0, 0], [1, 0, 0, 0]]", "--seed", "1"],
    ["census", "--p", "3", "--m", "4", "--g", "1", "--curve",
     "[[0, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]", "--n", "3", "--seed",
     "1"],
    ["construct-single", "--field", "GF:5", "--g", "2", "--a", "1", "--v", "[2, 4, 3]",
     "--seed", "1"],
    ["census", "--p", "5", "--m", "1", "--g", "2", "--curve", "[3, 1, 3, 4, 4, 1]",
     "--n", "5", "--seed", "1"],
    ["construct-single", "--field", "GF:5,2", "--g", "2", "--a", "[4, 0]", "--v",
     "[[1, 0], [1, 0], [2, 0]]", "--seed", "1"],
    ["census", "--p", "5", "--m", "2", "--g", "2", "--curve",
     "[[2, 0], [2, 0], [0, 0], [4, 0], [4, 0], [1, 0]]", "--n", "5", "--seed", "1"],
    ["construct-single", "--field", "GF:3,2", "--g", "1", "--a", "[2, 0]", "--v",
     "[[0, 0], [1, 0]]", "--seed", "1"],
    ["census", "--p", "3", "--m", "2", "--g", "1", "--curve",
     "[[1, 0], [0, 0], [1, 0], [1, 0]]", "--n", "3", "--seed", "1"],
]

PAIRING_ROUND = [
    ["weil", "--field", "GF:11", "--g", "2", "--I", "2,3"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "0,1"],
    ["find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char", "--p", "3", "--k",
     "1", "--l", "2", "--index", "4", "--seed", "1"],
    ["weil", "--field", "GF:29,2", "--g", "2", "--I", "0,1"],
    ["weil", "--field", "GF:29,2", "--g", "2", "--I", "0,2"],
    ["weil", "--field", "GF:29,2", "--g", "2", "--I", "1,3"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "0,1,4"],
    ["find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char", "--p", "3", "--k",
     "1", "--l", "2", "--index", "5", "--seed", "1"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "1,3,4"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "0,1,3"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "1,2,3"],
    ["find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char", "--p", "3", "--k",
     "1", "--l", "2", "--index", "0", "--seed", "1"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "1,3,5"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "0,4,5"],
    ["weil", "--field", "GF:29,2", "--g", "2", "--I", "0,3"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "0,3,5"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "0,3"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "0,1,2"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "2,3,5"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "3,4,5"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "0,1,3"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "1,2,3"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "0,2,5"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "0,3,4"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "1,2,5"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "1,2,4"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "1,4,5"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "2,4,5"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "1,3,5"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "1,4,5"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "0,4,5"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "1,3"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "1,2,5"],
    ["find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char", "--p", "3", "--k",
     "1", "--l", "2", "--index", "2", "--seed", "1"],
    ["weil", "--field", "GF:29,2", "--g", "2", "--I", "1,2"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "0,2,4"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "0,2,4"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "2,3,4"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "0,3,4"],
    ["find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char", "--p", "3", "--k",
     "1", "--l", "2", "--index", "3", "--seed", "1"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "1,2"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "0,3,5"],
    ["weil", "--field", "GF:29,2", "--g", "2", "--I", "2,3"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "0,2,3"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "0,2,3"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "0,1,2"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "0,2,5"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "1,3,4"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "0,1,5"],
    ["find-mu", "--field", "GF:3,4", "--g", "7", "--regime", "char", "--p", "3", "--k",
     "1", "--l", "2", "--index", "1", "--seed", "1"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "3,4,5"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "2,4,5"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "0,1,4"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "2,3,5"],
    ["weil", "--field", "GF:29", "--g", "3", "--I", "2,3,4"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "0,1,5"],
    ["weil", "--field", "GF:11", "--g", "2", "--I", "0,2"],
    ["weil", "--field", "GF:11,3", "--g", "3", "--I", "1,2,4"],
]

ARGVS = HELP + USAGE + CALLS + ERRORS + CENSUS_ROUND + PAIRING_ROUND


def write_files(directory):
    for name, text in FILES.items():
        (directory / name).write_text(text)


def digest(argv):
    """(sha256 of the stdout, exit code) of cli.main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:       # --help
            code = exc.code
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def test_cli_stdout_matches_the_pinned_digests(monkeypatch, tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    if pinned["python"] != PYTHON:
        pytest.skip(f"digests written by Python {pinned['python']}")
    assert [argv for argv, _, _ in pinned["digests"]] == ARGVS, \
        "ARGVS changed: rewrite cli_digests.json"
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    write_files(tmp_path)
    moved = [argv for argv, sha, code in pinned["digests"]
             if digest(argv) != (sha, code)]
    assert moved == []


def main():
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        write_files(Path(tmp))
        rows = [[argv, *digest(argv)] for argv in ARGVS]
    old = {}
    if DIGESTS.exists():
        old = {json.dumps(argv): (sha, code)
               for argv, sha, code in json.loads(DIGESTS.read_text())["digests"]}
    new = {json.dumps(argv): (sha, code) for argv, sha, code in rows}
    for key, pinned in new.items():
        if key not in old:
            print("added", key)
        elif pinned != old[key]:
            print("moved", key)
    for key in old:
        if key not in new:
            print("dropped", key)
    DIGESTS.write_text(f'{{"python": "{PYTHON}", "digests": [\n'
                       + ",\n".join(json.dumps(row) for row in rows) + "\n]}\n")


if __name__ == "__main__":
    main()
