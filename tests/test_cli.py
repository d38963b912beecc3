import argparse
import ast
import functools
import glob
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from bktame import (LocalContext, all_weights, cli, enumerate_types, errors, gamma_digits,
                    intlinalg, rankone, shapes, tametypes, weights)
from bktame.cli import run
from bktame.rng import SplitMix64
from definitions import admissible_by_definition

# sha256 of the rendered report; any change to these bytes is a change of output
REPORT_SHA256 = {
    "types -p 3 -f 2 --format text":
        "b85c6a3a1431ac893dab6001c588a36597a2700b377fb497ad993f379d2567fb",
    "ptau -p 3 -f 2":
        "86a5154f45cc9a533554600f2ad2731e0cbf163034993d86fc1fffc85881139b",
    "ptau -p 3 -f 2 -e 2 --ordered":
        "3c22c0b514237c4ec376174c3878de71cf144cc090a6582056632c173174be14",
    "weights -p 3 -f 2":
        "8b0367360313ba8085c466ed55d9ed644011112e9ef802741d6b7656dff80a92",
    "weights -p 5 -f 1 --format csv":
        "eb3e26cdd8491a39d6431d5bb022641a4ba43a5bca99312b6f74d9e55c831450",
    "oracle -p 3 -f 1 -e 2 --samples 40 --seed 5":
        "6c840fd594ad025c12e9a9d57b92ef573e7ea2c663efaf1baac9d2f42550ea12",
    "oracle -p 3 -f 1 --exhaustive":
        "e3cf049d7c992a744efa081006bc911ecbf49e311c5bc233524a8d9247a0f3ae",
    "oracle -p 3 -f 1 -e 2 --exhaustive":
        "4ddac807aaa69e082b5d081731fb751e68b1da05bdd4863f729cc9fc9cf8bf27",
    "oracle -p 3 -f 2 --samples 20 --seed 9":
        "278bea85ff490cfc2c295fd6c0dab764bc10dd418cb0f7d0df0eb3fc7805f43a",
    "bm -p 3 -f 2 --seed 4 --format csv":
        "709502d7542cff76b71eea4e37f796395fcec57e42930efce94d83ebf3fba0ed",
    "bm -p 3 -f 2":
        "39db8975db4e1808a5c4b9f924e57b00d101974dc96699d57e3ef682229b508f",
    "components -p 3 -f 2":
        "ebe780163bf66b49aa0a24e6c7c8d9fdb7440ad56b54b4468f87900507a489b8",
    "types -p 3 -f 2":
        "54f7cda5304f4d3eb09ea9723fd442f2d739ac2810cd134e7fe57422e7552f2d",
    "ptau -p 3 -f 3":
        "e1fa2b08e481d8719c857f644c1e02d245a189981b6e90dce87c7ba2d34fdeeb",
    "oracle -p 3 -f 1 --samples 20 --seed 2 --format text":
        "29a1d4ab02ef3730aa48c52d8a5b4afbf00baf5e300313e82cbf066411ec049e",
    "components -p 3 -f 2 --format csv":
        "bd2d90864327e3e160c2b26d5bd13b3dbeda20c7d01b78f28f21dc6ea9efe23a",
    "bm -p 3 -f 1 --format text":
        "341af4d0bebfbf9a12aa557e8f9b8ac6644cfc41ce4128927ac78a0ccd70ea80",
    # f = 3 weights, with s_j and the det digits read from index -j (sigma_tau_J)
    "weights -p 3 -f 3":
        "e60361d8a39e9dd98ca14ef03c34399d1933d3ea1a98b5aa900e30994d67ca8e",
    "bm -p 3 -f 3":
        "2392134cb509f8073561e582f4a4b3be78641713481fd78aa8753a873eaa34bd",
}


def run_json(argv):
    text, code = run(argv)
    return json.loads(text), code


def test_types_counts_p3_f1():
    report, code = run_json(["types", "-p", "3", "-f", "1"])
    assert code == 0
    kinds = [it["kind"] for it in report["items"]]
    assert kinds.count("cusp") == 3
    scalars = [it for it in report["items"] if it["scalar"]]
    assert len(scalars) == 2
    nonscalar_ps = [it for it in report["items"]
                    if it["kind"] == "ps" and not it["scalar"]]
    assert len(nonscalar_ps) == 1


def test_types_ordered_lists_pairs():
    report, _ = run_json(["types", "-p", "3", "-f", "1", "--ordered"])
    ps = [it for it in report["items"] if it["kind"] == "ps"]
    assert len(ps) == 4


def test_types_row_fails_on_a_wrong_digit(monkeypatch):
    # flip one digit of one type's gamma: only that type's row, which checks
    # gamma's defining identity, can see it
    gamma_digits = cli.gamma_digits

    def flipped(tau):
        gamma = gamma_digits(tau)
        if tau.label() == "ps:1,0":
            return ((gamma[0] + 1) % tau.ctx.p,) + gamma[1:]
        return gamma

    monkeypatch.setattr(cli, "gamma_digits", flipped)
    report, code = run_json(["types", "-p", "3", "-f", "2"])
    assert code == 1
    assert [it["key"] for it in report["items"] if not it["ok"]] == ["ps:1,0"]


@pytest.mark.parametrize("argv, message", [
    ("types -p 2 -f 1", "p must be odd"),
    ("ptau -p 3 -f 1 --type cusp:4", "bad type selector"),
    ("oracle -p 3 -f 2 --exhaustive", "f = 1 only"),
    ("oracle -p 3 -f 1 --trunc -3", "truncation level must be at least 1, got -3"),
    ("oracle -p 3 -f 1 --trunc 0", "truncation level must be at least 1, got 0"),
    ("oracle -p 3 -f 1 --samples -5", "--samples must be at least 0, got -5"),
], ids=["even_p", "bad_type_selector", "exhaustive_needs_f1", "negative_trunc", "zero_trunc",
        "negative_samples"])
def test_bad_input_exits_2(argv, message):
    text, code = run(argv.split())
    assert code == 2 and message in text


@pytest.mark.parametrize("selector", ["ps:1_0,0", "scalar:0_1", "ps:+1,0", "ps: 1,0", "ps:1,0 ",
                                      "cusp:\u0661", "ps:1", "ps:1,0,0", "cusp:", "cusp:1,2"])
def test_type_selector_takes_only_ascii_digits(selector):
    # int() would also read an underscore, a sign, spaces and other digits:
    # ps:1_0,0 selected ps:10,0 and cusp:\u0661 (Arabic-Indic one) cusp:1
    text, code = run(["types", "-p", "3", "-f", "3", "--type", selector])
    assert (text, code) == ("error: bad type selector %r\n" % selector, 2)
    for selector in ("ps:10,0", "scalar:1", "cusp:1"):
        report, code = run_json(["types", "-p", "3", "-f", "3", "--type", selector])
        assert code == 0 and [it["key"] for it in report["items"]] == [selector]


def test_oracle_refuses_trunc_below_1_before_any_row(monkeypatch):
    # the level is refused up front, also when no pair is drawn
    computed = []

    def recording(fn):
        def wrapper(*args):
            computed.append(fn.__name__)
            return fn(*args)
        return wrapper

    for name in ("oracle_dims", "kext_dim", "kext_dim_oracles"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    for samples in ("0", "1"):
        text, code = run(["oracle", "-p", "3", "-f", "1", "--samples", samples, "--trunc", "0"])
        assert code == 2
        assert text == "error: truncation level must be at least 1, got 0\n"
    assert computed == []


# the options each command reads, besides -p, -f, --format and --out
COMMON_OPTIONS = ("-p", "-f", "--format", "--out")
READS = {
    "types": ("--type", "--ordered"),
    "ptau": ("-e", "--type", "--ordered"),
    "weights": ("-e", "--type", "--ordered"),
    "components": ("--type", "--ordered"),
    "oracle": ("-e", "--exhaustive", "--samples", "--seed", "--trunc"),
    "bm": ("--seed",),
}
# a value each option accepts
OPTION_ARGS = {"-e": ["2"], "--type": ["cusp:1"], "--ordered": [], "--exhaustive": [],
               "--samples": ["0"], "--seed": ["3"], "--trunc": ["4"]}


def _subparsers():
    parser = cli.build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action.choices, dict))


def test_each_command_accepts_exactly_the_options_it_reads():
    settable = {}
    for name, cmd in _subparsers().items():
        settable[name] = sorted(opt for action in cmd._actions for opt in action.option_strings
                                if opt not in ("-h", "--help"))
    assert settable == {name: sorted(COMMON_OPTIONS + READS[name]) for name in READS}
    assert sum(len(opts) for opts in settable.values()) == 40


@pytest.mark.parametrize("command", ["types", "bm", "components"])
@pytest.mark.parametrize("f", [1, 2])
def test_rows_of_commands_without_e_do_not_depend_on_e(command, f):
    # the evidence for refusing -e on these commands: their rows are the
    # same at every e, and run gives them LocalContext(p, f, 1)
    args = cli.build_parser().parse_args([command, "-p", "3", "-f", str(f)])
    assert args.e == 1
    rows = [list(cli.COMMANDS[command](LocalContext(3, f, e), args)) for e in (1, 2, 3)]
    assert rows[0] and rows[0] == rows[1] == rows[2]


@pytest.mark.parametrize("command, option", [(c, o) for c in READS for o in READS[c]],
                         ids=lambda x: x.lstrip("-"))
def test_an_option_a_command_reads_parses(command, option):
    args = cli.build_parser().parse_args([command, "-p", "3", "-f", "1", option,
                                          *OPTION_ARGS[option]])
    assert str(vars(args)[option.lstrip("-")]) == (OPTION_ARGS[option] or ["True"])[0]


@pytest.mark.parametrize("command, option",
                         [(c, o) for c in READS for o in OPTION_ARGS if o not in READS[c]],
                         ids=lambda x: x.lstrip("-"))
def test_an_option_a_command_does_not_read_exits_2_before_any_work(monkeypatch, capsys,
                                                                    command, option):
    contexts = []
    monkeypatch.setattr(cli, "LocalContext", lambda *args: contexts.append(args))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "-p", "3", "-f", "1", option, *OPTION_ARGS[option]])
    assert exc.value.code == 2 and contexts == []
    assert "unrecognized arguments: %s" % option in capsys.readouterr().err


def test_readme_command_line_examples_parse():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(path, encoding="utf-8") as handle:
        section = handle.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line.split() for line in block.splitlines() if line.startswith("bktame ")]
    assert {argv[1] for argv in examples} == set(READS)
    parser = cli.build_parser()
    for argv in examples:
        assert parser.parse_args(argv[1:]).command == argv[1]


def test_error_while_rows_are_produced_exits_2(monkeypatch, tmp_path):
    # rows are computed while the report renders, so an error in the middle
    # of a sweep must still give only the error line, with no partial report
    calls = []
    oracle_dims = cli.oracle_dims

    def failing(*args):
        calls.append(args)
        if len(calls) == 5:
            raise errors.TruncationUnstable("levels 3 and 4 disagree")
        return oracle_dims(*args)

    monkeypatch.setattr(cli, "oracle_dims", failing)
    out = tmp_path / "report.json"
    text, code = run(["oracle", "-p", "3", "-f", "1", "--samples", "20", "--out", str(out)])
    assert (text, code) == ("error: levels 3 and 4 disagree\n", 2)
    assert len(calls) == 5 and not out.exists()


@pytest.mark.parametrize("argv", sorted(REPORT_SHA256),
                         ids=lambda argv: argv.replace(" ", "_"))
def test_report_bytes_are_pinned(argv):
    text, code = run(argv.split())
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[argv]


@pytest.mark.parametrize("argv", ["weights -p 3 -f 2", "bm -p 3 -f 2", "ptau -p 3 -f 2"],
                         ids=lambda argv: argv.replace(" ", "_"))
def test_pinned_reports_survive_python_O(argv):
    # with assert statements compiled out, every invariant check must still
    # run and the whole report must keep its pinned bytes
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    proc = subprocess.run([sys.executable, "-O", "-m", "bktame"] + argv.split(),
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == REPORT_SHA256[argv]


def test_no_module_uses_assert():
    # python -O compiles assert statements out, so invariant checks in the
    # package go through errors.check instead; this covers every module, not
    # only the commands run above
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "bktame")
    paths = sorted(glob.glob(os.path.join(src, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements vanish under python -O: %s" % found


_SHAPE_ENTRY_POINTS = {"refined_shapes", "maximal_refined", "build_MN", "kext_dim",
                       "sigma_tau_J", "char_TN", "dieudonne_pattern", "divisor_support"}


def test_every_shape_argument_passes_the_one_gate():
    # shapes._to_shape refuses a Shape of another type; a public function
    # taking (tau, J) or (tau, refined) that skips it would answer for a
    # mix of two types.  family_dim reads only refined.y.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "bktame")
    checked, missing = set(), []
    for name in ("shapes.py", "weights.py"):
        with open(os.path.join(src, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=name)
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            params = [arg.arg for arg in node.args.args[:2]]
            if params not in (["tau", "J"], ["tau", "refined"]) or node.name == "family_dim":
                continue
            checked.add(node.name)
            calls = {call.func.id for call in ast.walk(node)
                     if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
            if "_to_shape" not in calls:
                missing.append("%s:%s" % (name, node.name))
    assert checked >= _SHAPE_ENTRY_POINTS
    assert not missing, "shape arguments that skip _to_shape: %s" % missing


# The oracles' solves read only the system and row-reduce it; they name no
# closed form and no Galois-character invariant of the modules.  _alpha is
# the one invariant they share with the closed forms, in the Galois-level
# Hom of _kext_solve, until a brute-force solve replaces it (ROADMAP item 4).
_ORACLE_SOLVES = ("_complex_matrix", "_dims_at_level", "_nullities", "_oracle_solve",
                  "_kext_solve")
_CLOSED_FORMS = ("hom_dim", "ext_dim", "kext_dim", "kext_count", "gamma_star",
                 "galois_character", "alpha_vector", "admissible", "p_tau")


def test_oracle_solves_name_no_closed_form():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "bktame",
                        "shapes.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    solves = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in _ORACLE_SOLVES}
    assert sorted(solves) == sorted(_ORACLE_SOLVES)
    found = []
    for name, node in sorted(solves.items()):
        for sub in ast.walk(node):
            ident = (sub.id if isinstance(sub, ast.Name)
                     else sub.attr if isinstance(sub, ast.Attribute) else None)
            if ident in _CLOSED_FORMS:
                found.append("%s:%d %s" % (name, sub.lineno, ident))
    assert not found, "an oracle solve names a closed form: %s" % found


def _random_json(rng, depth):
    """A seeded nested value of the kinds reports hold, with awkward strings."""
    texts = ["", "plain", 'quote " in', "back\\slash", "tab\tnl\ncr\r", "\x00\x1f\x7f",
             "caf\u00e9", "\u2203 J \u2286 Z/f'Z", "\U0001d53d_p", "</script>"]
    leaves = [lambda: rng.choice(texts), lambda: rng.randint(-10 ** 6, 10 ** 6),
              lambda: rng.choice([-(2 ** 70), 2 ** 64, 2 ** 64 + 1, 3 ** 90]),
              lambda: rng.choice([True, False, None])]
    kind = rng.randrange(7 if depth else 4)
    if kind < 4:
        return leaves[kind]()
    size = rng.randrange(5)
    if kind == 4:
        return {rng.choice(texts) + str(i): _random_json(rng, depth - 1) for i in range(size)}
    items = [_random_json(rng, depth - 1) for _ in range(size)]
    if kind == 5:
        return tuple(items)
    return items if rng.random() < 0.5 else [rng.randint(-99, 99) for _ in range(size)]


def test_json_render_matches_json_dumps():
    reference = lambda obj: json.dumps(obj, sort_keys=True, indent=2)
    rng = random.Random(2019)
    cases = [_random_json(rng, 4) for _ in range(300)]
    cases += [{}, [], (), {"a": {}, "b": [], "c": ()}, (1, (2, [3, ()])),
              [True, 1, 0, False], [1, True], [-1, 0, -(2 ** 64), 2 ** 64, 10 ** 40, None],
              ['"', "\\", "\b\f\n\r\t\x01", "\u00ff\u0100\ud7ff\ue000\U0010ffff"],
              {'"q"': 1, "back\\": 2, "\n": 3, "\u00e9": 4, "\x7f": 5, "": 6, "B": 7, "a": 8}]
    for obj in cases:
        assert cli._json(obj, "") == reference(obj)
    # memo hazards, in this order in one process: bools that equal and hash
    # like ints, one int list and one key set at several pads and insertion
    # orders, keys that look like format templates, a list inside a list
    int_list = [1, 2]
    hazards = [[1, 0], [True, False], [7], [True],
               int_list, {"a": int_list}, {"a": {"b": int_list}}, [int_list],
               {"b": 1, "a": 2}, {"a": 2, "b": 1}, [{"b": 1, "a": 2}], {"x": {"a": 2, "b": 1}},
               {'%s{"}': 1, "%d": [1, 2], "{0}": {'%s{"}': True}}, [[1, 2]]]
    for obj in hazards:
        assert cli._json(obj, "") == reference(obj)
    report, _ = run_json(["types", "-p", "3", "-f", "1"])
    assert cli.render(report, "json") == reference(report) + "\n"
    report["items"] = iter(())
    assert cli.render(report, "json") == reference(dict(report, items=[])) + "\n"
    for bad in (1.5, [0.0], {"x": {1, 2}}, {1, 2}, {1: 2}):
        with pytest.raises(TypeError):
            cli._json(bad, "")


@pytest.mark.parametrize("argv", ["types -p 3 -f 2", "ptau -p 3 -f 2", "weights -p 3 -f 2",
                                  "components -p 3 -f 2", "oracle -p 3 -f 1 --samples 20",
                                  "bm -p 3 -f 1"],
                         ids=lambda argv: argv.split()[0])
def test_every_command_renders_sorted_rows_in_json_and_text(argv):
    text, code = run(argv.split())
    assert code == 0
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    items = report["items"]
    keys = [it["key"] for it in items]
    assert keys and all(a < b for a, b in zip(keys, keys[1:]))
    summary = report["summary"]
    assert summary["pass"] + summary["fail"] == len(items)
    lines, code2 = run(argv.split() + ["--format", "text"])
    assert code2 == code
    lines = lines.split("\n")
    status = {True: "ok", False: "FAIL"}
    assert lines[1:-2] == ["  [%s] %s" % (status.get(it.get("ok"), "-"), it["key"])
                           for it in items]
    assert lines[-2:] == ["pass=%d fail=%d" % (summary["pass"], summary["fail"]), ""]


# contexts where the text order of the keys differs from numeric order:
# shape texts at f = 3 ("{0,1,2}" < "{0,1}"), labels with two-digit residues
# ("ps:1,10|" < "ps:1,1|"), weight digits of 10 or more at p = 11 and 13
KEY_ORDER_ARGVS = [
    *("%s -p 3 -f 3" % c for c in ("types", "ptau", "weights", "components")),
    *("%s -p 5 -f 2 --ordered" % c for c in ("types", "ptau", "weights", "components")),
    "bm -p 11 -f 1", "bm -p 13 -f 1",
    "oracle -p 3 -f 1 -e 2 --exhaustive", "oracle -p 11 -f 1 --samples 50",
]


@pytest.mark.parametrize("argv", KEY_ORDER_ARGVS, ids=lambda argv: argv.replace(" ", "_"))
def test_every_command_yields_rows_in_strictly_increasing_key_order(argv):
    # at the generator, not through render, which would refuse the report
    args = cli.build_parser().parse_args(argv.split())
    rows = cli.COMMANDS[args.command](LocalContext(args.p, args.f, args.e), args)
    keys = [it["key"] for it in rows]
    assert keys and all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("keys", [["a", "c", "b"], ["a", "b", "b"]],
                         ids=["out_of_order", "duplicate"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_a_row_out_of_key_order_exits_2(monkeypatch, keys, fmt):
    # render checks the order and does not sort
    rows = lambda ctx, args: ({"key": key, "ok": True} for key in keys)
    monkeypatch.setitem(cli.COMMANDS, "types", rows)
    text, code = run(["types", "-p", "3", "-f", "1", "--format", fmt])
    assert (text, code) == ("error: row key 'b' does not follow %r\n" % keys[1], 2)


def test_rendering_holds_no_item_tree():
    # rows are rendered as they arrive, so the peak is the rendered rows
    # plus the one joined text, not every row dict alongside copies of it
    tracemalloc.start()
    try:
        text, code = run(["ptau", "-p", "3", "-f", "3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 3 * len(text)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_render_peak_is_about_two_reports(fmt):
    # the rendered chunks plus the one text joined from them; holding each
    # row's key beside its rendered row until a sort cost 2.59 reports in
    # JSON and 10.93 in text, where rows are short
    def report(count):
        rows = ({"key": "row%07d" % i, "ok": True, "value": [i, i + 1]} for i in range(count))
        return {"command": "synthetic", "echo": {}, "context": {"p": 3, "f": 1, "e": 1},
                "items": rows}

    cli.render(report(10000), fmt)   # fills the rendering memos
    tracemalloc.start()
    try:
        text = cli.render(report(200000), fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count("row0199999") == 1
    assert peak <= 2.2 * len(text)


def test_ptau_report():
    report, code = run_json(["ptau", "-p", "3", "-f", "1", "--type", "ps:1,0"])
    assert code == 0
    by_key = {it["key"]: it for it in report["items"]}
    assert by_key["ps:1,0|J={}"]["in_ptau"] is True
    assert by_key["ps:1,0|J={0}"]["in_ptau"] is True
    assert by_key["ps:1,0|J={0}"]["family_dim"] == 1
    report2, _ = run_json(["ptau", "-p", "3", "-f", "1", "--type", "cusp:1"])
    flags = {it["key"]: it["in_ptau"] for it in report2["items"]}
    assert flags == {"cusp:1|J={0}": False, "cusp:1|J={1}": True}


@pytest.mark.parametrize("p, f, e", [(3, 1, 1), (3, 2, 2), (5, 2, 1), (3, 3, 1)])
@pytest.mark.parametrize("ordered", [False, True], ids=["canonical", "ordered"])
def test_ptau_in_ptau_is_admissibility_by_definition(p, f, e, ordered):
    argv = ["ptau", "-p", str(p), "-f", str(f), "-e", str(e)] + ["--ordered"] * ordered
    report, code = run_json(argv)
    assert code == 0
    types = {tau.label(): tau for tau in enumerate_types(LocalContext(p, f, e))}
    rows = report["items"]
    assert {it["type"] for it in rows} <= set(types)
    assert any(it["in_ptau"] for it in rows) and not all(it["in_ptau"] for it in rows)
    for it in rows:
        gamma = gamma_digits(types[it["type"]])
        assert it["in_ptau"] is admissible_by_definition(set(it["J"]), gamma, p), it["key"]


def test_ptau_does_each_shape_and_type_once(monkeypatch):
    # the shape columns (with their refined shapes) are built once per (kind,
    # scalar) group of types, and the class data (with admissibility) once
    # per (kind, delta, J); each type pays only for its label and for reading
    # its class table, with no digits of its own
    built, listed, classes, digits, type_digits, making = [], [], [], [], [], []

    def counting(log, fn):
        def wrapper(*args):
            log.append(args)
            return fn(*args)
        return wrapper

    post_init, shape_columns = shapes.RefinedShape.__post_init__, cli._shape_columns

    def building(rs):
        built.append((rs, bool(making)))
        post_init(rs)

    def making_columns(tau):
        making.append(tau)
        try:
            return shape_columns(tau)
        finally:
            making.pop()

    monkeypatch.setattr(shapes.RefinedShape, "__post_init__", building)
    monkeypatch.setattr(cli, "_shape_columns", making_columns)
    shapes_for = counting(listed, shapes.shapes_for)
    for module in (shapes, cli):
        monkeypatch.setattr(module, "shapes_for", shapes_for)
    monkeypatch.setattr(shapes, "_shape_class", counting(classes, shapes._shape_class))
    delta_digits = counting(digits, tametypes._delta_digits)
    gamma_digits = counting(type_digits, tametypes.gamma_digits)
    for module in (tametypes, shapes):
        monkeypatch.setattr(module, "_delta_digits", delta_digits)
    for module in (tametypes, cli):
        monkeypatch.setattr(module, "gamma_digits", gamma_digits)
    group = lambda tau: (tau.kind, tau.is_scalar)
    for argv, ctx in (("ptau -p 3 -f 2", LocalContext(3, 2, 1)),
                      ("ptau -p 3 -f 2 -e 2 --ordered", LocalContext(3, 2, 2))):
        del built[:], listed[:], classes[:], digits[:], type_digits[:]
        shapes._shape_classes.cache_clear()
        try:
            report, code = run_json(argv.split())
        finally:
            shapes._shape_classes.cache_clear()   # its entries were built by the wrappers
        assert code == 0
        rows = report["items"]
        types = {tau.label(): tau for tau in enumerate_types(ctx)}
        row_types = [types[it["type"]] for it in rows]
        groups = {group(tau) for tau in row_types}   # ps, cusp, scalar
        assert len(groups) == 3
        counts = {group(tau) + (tuple(it["J"]),): it["refined_count"]
                  for tau, it in zip(row_types, rows)}
        assert len(counts) < len(rows)
        # the refined shapes of each distinct (kind, scalar, J), and its
        # maximal one, built only while the group columns are made
        assert all(inside for _, inside in built)
        built_keys = [group(rs.shape.tau) + (rs.shape.key(),) for rs, _ in built]
        assert sorted(set(built_keys)) == sorted(counts)
        assert len(built_keys) == sum(count + 1 for count in counts.values())
        assert len(listed) == len({group(tau) for (tau,) in listed}) == len(groups)
        # the class data once per distinct (kind, delta, J); gamma once per
        # (kind, delta), and never per type
        keys = {(tau.kind, tau.delta, frozenset(it["J"])) for tau, it in zip(row_types, rows)}
        built_classes = [(kind, delta, J) for _, kind, delta, _, J in classes]
        assert len(built_classes) == len(set(built_classes)) == len(keys) < len(rows)
        assert set(built_classes) == keys
        assert len(digits) == len({key[:2] for key in keys})
        assert type_digits == []


def test_oracle_ne_rows_check_admissibility(monkeypatch):
    # at distinct products kExt vanishes exactly on P_tau, so the kExt
    # sweep's ne rows check the admissibility ptau reports as in_ptau;
    # flipping it turns every ne row red and no other row
    shape_class = shapes._shape_class

    def flipped(*args):
        entry = shape_class(*args)
        return entry._replace(admissible=not entry.admissible)

    monkeypatch.setattr(shapes, "_shape_class", flipped)
    shapes._shape_classes.cache_clear()
    try:
        report, code = run_json(["oracle", "-p", "3", "-f", "2", "--samples", "1"])
    finally:
        shapes._shape_classes.cache_clear()   # its entries were flipped
    assert code == 1
    ne_rows = {it["key"] for it in report["items"] if it.get("products") == "ne"}
    assert ne_rows
    assert {it["key"] for it in report["items"] if not it["ok"]} == ne_rows


def test_oracle_kext_sweep_does_each_invariant_once(monkeypatch):
    # each quantity is derived once at the level of the data it reads: the
    # class data (gamma, gamma*) per (kind, delta, J), the Frobenius orbits
    # per type, the standard pair and its one system per (type, shape)
    classes, digits, orbits, modules, systems, alphas = [], [], [], [], [], []

    def counting(log, fn):
        def wrapper(*args):
            log.append(args)
            return fn(*args)
        return wrapper

    shapes._shape_classes.cache_clear()
    monkeypatch.setattr(shapes, "_shape_class", counting(classes, shapes._shape_class))
    delta_digits = counting(digits, tametypes._delta_digits)
    for module in (tametypes, shapes):
        monkeypatch.setattr(module, "_delta_digits", delta_digits)
    monkeypatch.setattr(tametypes.TameType, "_frobenius_orbit",
                        counting(orbits, tametypes.TameType._frobenius_orbit))
    monkeypatch.setattr(shapes, "_module", counting(modules, shapes._module))
    monkeypatch.setattr(shapes, "_oracle_system", counting(systems, shapes._oracle_system))
    alpha = functools.cached_property(counting(alphas, rankone.RankOneBK.alpha_vector.func))
    alpha.__set_name__(rankone.RankOneBK, "alpha_vector")
    monkeypatch.setattr(rankone.RankOneBK, "alpha_vector", alpha)
    try:
        report, code = run_json(["oracle", "-p", "3", "-f", "2", "--samples", "1"])
    finally:
        shapes._shape_classes.cache_clear()   # its entries were built by the wrappers
    assert code == 0
    kext_rows = [it for it in report["items"] if it["key"].startswith("kext|")]
    n_shapes = len({(it["type"], tuple(it["J"])) for it in kext_rows})
    assert n_shapes and len(kext_rows) == 2 * n_shapes   # products eq and ne
    types = {tau.label(): tau for tau in enumerate_types(LocalContext(3, 2, 1), canonical=True)
             if not tau.is_scalar}
    assert {it["type"] for it in kext_rows} == set(types)
    class_of = lambda tau: (tau.kind, (tau.k0 - tau.k0p) % tau.ekk)
    keys = {class_of(types[it["type"]]) + (frozenset(it["J"]),) for it in kext_rows}
    # gamma* (with its identity check) once per distinct (kind, delta, J)
    built = [(kind, delta, J) for _, kind, delta, _, J in classes]
    assert len(built) == len(set(built)) == len(keys) < n_shapes
    assert set(built) == keys
    # gamma once per (kind, delta), so at most once per type
    assert len(digits) == len({class_of(tau) for tau in types.values()}) < len(types)
    # the two Frobenius orbits k and k' once per nonscalar type
    assert sorted(tau.label() for tau, _ in orbits) == sorted(2 * list(types))
    # m and n per (type, shape), each with every integer check; no n_twist
    assert len(modules) == 2 * n_shapes
    # one truncated-complex system per shape, plus one per pair-sweep pair
    assert len(systems) == n_shapes + 2
    # alpha vectors only for the pair sweep's hom_dim: the kExt solve reads r
    assert len(alphas) == 4


def test_oracle_kext_sweep_solves_each_distinct_system_once():
    shapes._oracle_solve.cache_clear()
    shapes._kext_solve.cache_clear()
    rankone._alpha.cache_clear()
    report, code = run_json(["oracle", "-p", "3", "-f", "2", "--samples", "1"])
    assert code == 0
    kext_rows = [it for it in report["items"] if it["key"].startswith("kext|")]
    # rebuild each row's pair and the system its solve reads
    ctx = LocalContext(3, 2, 1)
    types = {tau.label(): tau for tau in enumerate_types(ctx, canonical=True)}
    systems = set()
    for it in kext_rows:
        tau = types[it["type"]]
        m, n = shapes.build_MN(tau, shapes.maximal_refined(tau, it["J"]))
        if it["products"] == "ne":
            gen = ctx.coefficient_field(tau.kind).multiplicative_generator()
            n = rankone.validate(ctx, tau.kind, n.r, (gen,) * tau.fprime, n.c)
        systems.add(shapes._oracle_system(m, n))
    assert shapes._kext_solve.cache_info().misses == len(systems) == 64
    assert len(kext_rows) == 512


def test_oracle_pair_sweep_solves_each_distinct_system_once(monkeypatch):
    builds = []
    complex_matrix = shapes._complex_matrix

    def counting_matrix(*args):
        builds.append(args)
        return complex_matrix(*args)

    monkeypatch.setattr(shapes, "_complex_matrix", counting_matrix)
    shapes._oracle_solve.cache_clear()
    shapes._kext_solve.cache_clear()
    report, code = run_json(["oracle", "-p", "3", "-f", "1", "-e", "2",
                             "--samples", "40", "--seed", "5"])
    assert code == 0
    ctx = LocalContext(3, 1, 2)

    def module(kind, row):
        field = ctx.coefficient_field(kind)
        return rankone.validate(ctx, kind, row["r"], [field.elem(tuple(x)) for x in row["a"]],
                                row["c"])

    pairs = [(module(it["kind"], it["M"]), module(it["kind"], it["N"]))
             for it in report["items"] if "M" in it]
    assert len(pairs) == 80
    # the kExt sweep solves the complex of each standard pair and its twist
    for tau in enumerate_types(ctx, canonical=True):
        if tau.is_scalar:
            continue
        gen = ctx.coefficient_field(tau.kind).multiplicative_generator()
        for shape in shapes.shapes_for(tau):
            m, n = shapes.build_MN(tau, shapes.maximal_refined(tau, shape))
            pairs.append((m, n))
            pairs.append((m, rankone.validate(ctx, tau.kind, n.r, (gen,) * tau.fprime, n.c)))
    # the data each solve reads at f = 1, where m.a[0] / m.a[0] is 1
    systems = set()
    for m, n in pairs:
        field, ekk = m.field, m.ekk
        unit = field.inv(m.a[0])
        systems.add((m.kind, m.r[0], n.r[0], (m.c[0] - n.c[0]) % ekk,
                     field.mul(n.a[0], unit)))
    # levels L and L + 1 of each distinct system, built once
    assert len(builds) == 2 * len(systems) < 2 * len(pairs)


@pytest.mark.parametrize("argv, eliminations", [
    ("oracle -p 3 -f 1 -e 2 --samples 40 --seed 5", 146),
    ("oracle -p 7 -f 2 --samples 1", 1156),
])
def test_oracle_sweeps_validate_nothing_and_eliminate_once_per_matrix(monkeypatch, argv,
                                                                     eliminations):
    # the sweeps build their modules with the integer checks alone, and
    # each truncated complex or principal-part system is row-reduced once
    calls = {"validate": 0, "gauss_rank": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (rankone, shapes, cli):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    shapes._oracle_solve.cache_clear()
    shapes._kext_solve.cache_clear()
    rankone._alpha.cache_clear()
    _, code = run(argv.split())
    assert code == 0
    assert calls == {"validate": 0, "gauss_rank": eliminations}


def test_weights_report_has_dimension_checks():
    report, code = run_json(["weights", "-p", "3", "-f", "1"])
    assert code == 0
    sums = [it for it in report["items"] if it["key"].endswith("dimsum")]
    assert sums and all(it["ok"] for it in sums)
    rows = [it for it in report["items"] if "char_exponent" in it]
    assert all(it["char_exponent"] == it["char_exponent_alpha_route"] for it in rows)


@pytest.mark.parametrize("n", [0, 1, 10 ** 6, 10 ** 6 + 123])
def test_decimal_order_is_the_order_of_the_key_text(n):
    assert list(cli._decimal_order(n)) == sorted(range(n), key="%06d".__mod__)


@pytest.mark.parametrize("f", [1, 2])
def test_sampled_pair_i_is_pair_i_of_one_stream(f):
    # the PS pairs, then the cuspidal pairs, drawn from one stream
    ctx = LocalContext(3, f, 1)
    args = argparse.Namespace(exhaustive=False, samples=12, seed=5)
    rng = SplitMix64(args.seed)
    for kind in (tametypes.PS, tametypes.CUSPIDAL):
        stream = [(rankone.random_module(ctx, kind, rng), rankone.random_module(ctx, kind, rng))
                  for _ in range(args.samples)]
        assert list(cli._indexed_pairs(ctx, kind, args)) == list(enumerate(stream))


def test_a_sampled_pair_off_its_draw_count_exits_2(monkeypatch):
    # a module that takes one more draw would shift every later pair's
    # draws; the 6f check refuses the report instead
    random_module = cli.random_module

    def one_more_draw(ctx, kind, rng):
        rng.next_u64()
        return random_module(ctx, kind, rng)

    monkeypatch.setattr(cli, "random_module", one_more_draw)
    text, code = run(["oracle", "-p", "3", "-f", "1", "--samples", "3"])
    assert (text, code) == ("error: a sampled pair took other than 6 draws (internal error)\n",
                            2)


def test_oracle_seeded_run_is_byte_identical():
    a, code_a = run(["oracle", "-p", "3", "-f", "1", "-e", "1",
                     "--samples", "5", "--seed", "11"])
    b, code_b = run(["oracle", "-p", "3", "-f", "1", "-e", "1",
                     "--samples", "5", "--seed", "11"])
    assert a == b and code_a == code_b == 0


def test_oracle_different_seeds_differ():
    a, _ = run(["oracle", "-p", "3", "-f", "1", "--samples", "5", "--seed", "1"])
    b, _ = run(["oracle", "-p", "3", "-f", "1", "--samples", "5", "--seed", "2"])
    assert a != b


def test_oracle_exhaustive_passes():
    report, code = run_json(["oracle", "-p", "3", "-f", "1", "-e", "1",
                             "--exhaustive", "--samples", "0"])
    assert code == 0
    assert report["summary"]["fail"] == 0
    assert report["summary"]["millis"] == 0
    kext_rows = [it for it in report["items"] if it["key"].startswith("kext")]
    assert kext_rows and all(it["ok"] for it in kext_rows)


def test_items_record_inputs_for_replay():
    report, _ = run_json(["oracle", "-p", "3", "-f", "1", "--samples", "3",
                          "--seed", "4"])
    pair_rows = [it for it in report["items"] if "M" in it]
    assert pair_rows
    for it in pair_rows:
        assert set(it["M"]) == {"r", "a", "c"}
        assert all(isinstance(x, int) for x in it["M"]["r"])


def test_oracle_trunc_override_reaches_same_verdicts():
    base, code = run_json(["oracle", "-p", "3", "-f", "1", "--samples", "5",
                           "--seed", "3"])
    deep, code2 = run_json(["oracle", "-p", "3", "-f", "1", "--samples", "5",
                            "--seed", "3", "--trunc", "5"])
    assert code == code2 == 0
    pick = lambda rep: {it["key"]: (it.get("ext"), it.get("hom"))
                        for it in rep["items"] if "ext" in it}
    assert pick(base) == pick(deep)


def test_bm_report():
    report, code = run_json(["bm", "-p", "3", "-f", "1"])
    assert code == 0
    orth = [it for it in report["items"] if it["key"] == "orthogonality"]
    assert orth[0]["ok"] is True
    weight_rows = [it for it in report["items"] if it["key"].startswith("weight|")]
    assert len(weight_rows) == 4
    assert all(it["unit_cycle"] and it["unit_cycle_permuted"] for it in weight_rows)


def test_bm_ztau_row_fails_on_a_wrong_weight_set(monkeypatch):
    # give ps:1,0 the weight set of cusp:2: the cycle solves still close up,
    # because they read the same wrong set, so only the type's ztau row,
    # which compares Z(tau) with the Brauer-character oracle, can see it
    ctx = LocalContext(3, 1, 1)
    types = {tau.label(): tau for tau in enumerate_types(ctx, canonical=True)}
    jh_factors = weights.jh_factors

    def wrong(tau):
        return jh_factors(types["cusp:2"] if tau == types["ps:1,0"] else tau)

    monkeypatch.setattr(weights, "jh_factors", wrong)
    monkeypatch.setattr(cli, "jh_factors", wrong)
    weights._bm_system.cache_clear()
    try:
        report, code = run_json(["bm", "-p", "3", "-f", "1"])
    finally:
        weights._bm_system.cache_clear()
    assert code == 1
    assert [it["key"] for it in report["items"] if not it["ok"]] == ["ztau|ps:1,0"]


def test_bm_solves_the_first_order_twice_and_the_permuted_order_once(monkeypatch):
    # pass 1 keeps one unit-cycle flag per weight, so pass 2 solves the first
    # elimination order again beside the permuted one: 3 solves per weight
    calls = []
    solve = intlinalg.IntegerColumnSolver.solve

    def counting_solve(self, rhs):
        calls.append(rhs)
        return solve(self, rhs)

    monkeypatch.setattr(intlinalg.IntegerColumnSolver, "solve", counting_solve)
    _, code = run("bm -p 3 -f 2 --seed 4 --format csv".split())
    assert code == 0
    assert len(calls) == 3 * len(all_weights(LocalContext(3, 2, 1))) == 192


def test_bm_factorises_one_block_per_central_character_and_order(monkeypatch):
    # q - 1 blocks for each of the two elimination orders
    inits = []
    init = intlinalg.IntegerColumnSolver.__init__

    def counting_init(self, columns, nrows):
        inits.append(nrows)
        init(self, columns, nrows)

    monkeypatch.setattr(intlinalg.IntegerColumnSolver, "__init__", counting_init)
    weights._bm_system.cache_clear()
    try:
        _, code = run("bm -p 3 -f 2 --seed 4".split())
    finally:
        weights._bm_system.cache_clear()
    assert code == 0
    assert len(inits) == 2 * (9 - 1)
    assert sum(inits) == 2 * len(all_weights(LocalContext(3, 2, 1)))


def test_bm_refuses_a_type_whose_weights_span_two_central_characters(monkeypatch):
    # the blocks are valid only because every weight of a type has the
    # type's central character; give ps:1,0 a weight of the other character
    ctx = LocalContext(3, 1, 1)
    ps10 = next(tau for tau in enumerate_types(ctx, canonical=True) if tau.label() == "ps:1,0")
    jh_factors = weights.jh_factors
    stray = weights.SerreWeight(3, 1, (0,), (0,))
    assert {w.central_character for w in jh_factors(ps10)} == {1} != {stray.central_character}

    def spanning(tau):
        return jh_factors(tau) | {stray} if tau == ps10 else jh_factors(tau)

    monkeypatch.setattr(weights, "jh_factors", spanning)
    weights._bm_system.cache_clear()
    try:
        text, code = run(["bm", "-p", "3", "-f", "1"])
    finally:
        weights._bm_system.cache_clear()
    assert (text, code) == ("error: the weights of ps:1,0 span 2 central characters "
                            "(internal error)\n", 2)


def test_csv_render_holds_cells_not_row_trees():
    # each row becomes its quoted cells as it arrives, and each chunk of
    # cells becomes text before the next; holding the row dicts until the
    # end cost about 10.5 reports
    def report(count):
        rows = ({"key": "weight%05d" % i, "ok": True,
                 "n_tau": [{"type": "ps:%d,%d" % (i, j), "coeff": j - 5} for j in range(10)]}
                for i in range(count))
        return {"command": "synthetic", "echo": {}, "context": {"p": 3, "f": 1, "e": 1},
                "items": rows}

    cli.render(report(100), "csv")   # fills the key memo
    tracemalloc.start()
    try:
        text = cli.render(report(5000), "csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count("weight04999") == 1 and text.startswith("key,n_tau,ok\n")
    assert peak <= 6 * len(text)


def test_components_report():
    report, code = run_json(["components", "-p", "3", "-f", "1", "--type", "cusp:1"])
    assert code == 0
    counts = [it for it in report["items"] if it["key"].endswith("count")]
    assert counts[0]["components"] == 2


def test_components_cycle_row_fails_on_a_dropped_weight(monkeypatch):
    # drop one weight from one type's Z(tau): only that type's cycle row,
    # which compares Z(tau) with the Brauer-character oracle, can see it
    jh_factors = cli.jh_factors

    def dropped(tau):
        z = jh_factors(tau)
        if tau.label() == "cusp:1":
            return z - {min(z, key=lambda w: (w.t, w.s))}
        return z

    monkeypatch.setattr(cli, "jh_factors", dropped)
    report, code = run_json(["components", "-p", "3", "-f", "2"])
    assert code == 1
    assert [it["key"] for it in report["items"] if not it["ok"]] == ["cusp:1|cycle"]


def test_csv_and_text_render():
    text, code = run(["types", "-p", "3", "-f", "1", "--format", "csv"])
    assert code == 0
    header = text.splitlines()[0].split(",")
    assert "key" in header and len(text.splitlines()) == 7
    text2, _ = run(["types", "-p", "3", "-f", "1", "--format", "text"])
    assert "pass=6 fail=0" in text2


def test_unwritable_out_exits_2(tmp_path):
    # every row passes, so the failed write is a refused input, not a failed row
    path = tmp_path / "missing" / "report.json"
    text, code = run(["types", "-p", "3", "-f", "1", "--out", str(path)])
    assert code == 2
    assert text.startswith("error: cannot write %s" % path)
    assert not path.exists()


def test_out_file_at_an_absolute_path(tmp_path):
    path = tmp_path / "report.json"
    assert path.is_absolute()
    text, code = run(["types", "-p", "3", "-f", "1", "--out", str(path)])
    assert code == 0
    assert path.read_text(encoding="utf-8") == text


def test_report_over_one_write_slice_is_written_whole(tmp_path, capsys):
    # reports are written in 1 MiB slices; this one is 1.4 MiB
    argv = ["ptau", "-p", "3", "-f", "3", "--out", str(tmp_path / "report.json")]
    text, code = run(argv)
    assert code == 0 and len(text) > 1 << 20
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == text
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == text
