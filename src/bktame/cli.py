"""Batch front-end: enumerate types, shapes, and weights for a context,
run formula-vs-oracle sweeps, solve the cycle decompositions, and emit
machine-readable reports.

Reports are deterministic for a fixed (config, seed): every command yields
its rows in strictly increasing key order, which render checks and does not
sort, JSON is emitted with sorted keys, and the summary's millis field is
pinned to zero (wall-clock timing goes to stderr) so that repeated runs are
byte-identical.  All JSON numbers are exact integers.

A key is compared as text, so each command orders what its keys start
with as text: types by label() ("ps:1,1" < "ps:1,10"), or by label() + "|"
where the key goes on after the label ("ps:1,10|..." < "ps:1,1|..."), and
shapes by _shape_str(J).
"""

import argparse
import json
import re
import sys
import time
from operator import itemgetter

from . import errors
from .brauer import jh_oracle, weights_character
from .gfarith import _digits
from .rankone import exhaustive_modules, hom_dim, random_module
from .rng import SplitMix64
from .shapes import (build_MN, ext_dim, family_dim, fill_shape_classes, kext_dim,
                     kext_dim_oracles, maximal_refined, oracle_dims, refined_shapes,
                     shape_classes, shapes_for)
from .tametypes import (CUSPIDAL, PS, LocalContext, enumerate_types,
                        gamma_digits, make_type)
from .weights import (all_weights, c_sigma_cycle, char_TN, components_count,
                      dieudonne_pattern, divisor_support, jh_factors,
                      sigma_tau_J, solve_n_tau)

_WRITE_SLICE = 1 << 20   # characters per write of a report
_CHUNK_ROWS = 4096       # rendered rows joined into one chunk of a report
_RESIDUE = re.compile("[0-9]+")   # a residue of a type selector: ASCII digits only

_json_str = json.encoder.encode_basestring_ascii
_JSON_LEAVES = {str: _json_str, int: int.__repr__, type(None): lambda _: "null",
                bool: {True: "true", False: "false"}.__getitem__}
_MEMO_CAP = 1 << 12   # entries of each rendering memo
_LAYOUTS = {}     # (dict keys in insertion order, pad) -> _dict_layout
_INT_LISTS = {}   # (pad, *items) -> text of a list of exact ints
_CSV_KEYS = {}    # a CSV row's keys in insertion order -> that tuple, shared


def _parse_type_selector(ctx, text):
    """Grammar: ps:<k0>,<k0p> | cusp:<k0> | scalar:<k0>, each residue a run
    of ASCII digits (no sign, space, underscore or other script's digit)."""
    head, _, rest = text.partition(":")
    residues = rest.split(",")
    if ({"ps": 2, "scalar": 1, "cusp": 1}.get(head) != len(residues)
            or not all(_RESIDUE.fullmatch(x) for x in residues)):
        raise errors.BadResidue("bad type selector %r" % text)
    k0, k0p = int(residues[0]), int(residues[-1])
    try:
        if head == "cusp":
            return make_type(ctx, CUSPIDAL, k0)
        return make_type(ctx, PS, k0, k0p)   # scalar: k0p is k0
    except errors.BKError as exc:
        raise errors.BadResidue("bad type selector %r: %s" % (text, exc))


def _selected_types(ctx, args):
    if args.type:
        return [_parse_type_selector(ctx, args.type)]
    return enumerate_types(ctx, canonical=not args.ordered)


def _shape_str(J):
    return "{" + ",".join(str(i) for i in sorted(J)) + "}"


def _weight_json(w):
    return {"t": list(w.t), "s": list(w.s)}


def _cycle_json(weights):
    """The multiplicity-one cycle of the weights, in (t, s) order."""
    return [{"weight": _weight_json(w), "mult": 1}
            for w in sorted(weights, key=lambda w: (w.t, w.s))]


def _by_label(types, after=""):
    """(label, type) of each type, in the order of label() + after: the text
    its rows' keys start with.  Only the types are held; each label is made
    again as its rows are."""
    for tau in sorted(types, key=lambda tau: tau.label() + after):
        yield tau.label(), tau


def _keyed_shapes(tau, orders):
    """(_shape_str(J), shape) of each shape of tau, in the order of that
    text.  Every type of a (kind, scalarity) group lists the same J in the
    same order, so orders keeps the order per group and each text is made
    once per group."""
    group = (tau.kind, tau.is_scalar)
    shapes = shapes_for(tau)
    if group not in orders:
        orders[group] = sorted((_shape_str(shape.J), n) for n, shape in enumerate(shapes))
    return [(text, shapes[n]) for text, n in orders[group]]


def cmd_types(ctx, args):
    p = ctx.p
    for label, tau in _by_label(_selected_types(ctx, args)):
        gamma, fp, ekk = gamma_digits(tau), tau.fprime, tau.ekk
        kv, kpv = tau.kvec, tau.kpvec
        # gamma's defining identity: sum_j p^j gamma[i - j] = [k_i - k'_i]
        ok = all(sum(p ** j * gamma[(i - j) % fp] for j in range(fp)) == (kv[i] - kpv[i]) % ekk
                 for i in range(fp))
        yield {
            "key": label,
            "kind": tau.kind,
            "k0": tau.k0,
            "k0p": tau.k0p,
            "scalar": tau.is_scalar,
            "gamma": list(gamma),
            "ok": ok,
        }


def _shape_columns(tau):
    """Each J of tau with its key suffix, sorted J, refined-shape count,
    maximal y and family dimension, in the order of the suffix.  These read
    only the kind, f', f, e and J, so every type of tau's kind and scalarity
    has the same columns."""
    columns = []
    for shape in shapes_for(tau):
        rs = maximal_refined(tau, shape)
        columns.append((shape.J, "|J=" + _shape_str(shape.J), sorted(shape.J),
                        len(refined_shapes(tau, shape)), list(rs.y), family_dim(tau, rs)))
    columns.sort(key=itemgetter(1))
    return columns


def cmd_ptau(ctx, args):
    types = _selected_types(ctx, args)
    # the class data before the rows, as in oracle's kExt sweep: built during
    # them, it raised the peak RSS of ptau -p 5 -f 3 by 4.6% (110.7 to 115.8 MB)
    fill_shape_classes(types)
    columns = {}   # (kind, scalar) -> _shape_columns of the group's first type
    for label, tau in _by_label(types, "|"):
        group = (tau.kind, tau.is_scalar)
        if group not in columns:
            columns[group] = _shape_columns(tau)
        classes = shape_classes(tau)
        for J, suffix, sorted_J, count, y, dim in columns[group]:
            yield {
                "key": label + suffix,
                "type": label,
                "J": sorted_J,
                "in_ptau": classes[J].admissible,
                "refined_count": count,
                "maximal_y": y,
                "family_dim": dim,
                "ok": True,
            }


def cmd_weights(ctx, args):
    orders = {}
    for label, tau in _by_label(_selected_types(ctx, args), "|"):
        weights = []
        # the J= rows of P_tau, then dimsum ("J" < "d")
        for text, shape in _keyed_shapes(tau, orders):
            if not shape.admissible:
                continue
            w = sigma_tau_J(tau, shape)
            weights.append(w)
            exp_formula = char_TN(tau, shape)
            _, n = build_MN(tau, maximal_refined(tau, shape))
            exp_alpha = n.galois_character.tame_exp
            yield {
                "key": "%s|J=%s" % (label, text),
                "type": label,
                "J": sorted(shape.J),
                "weight": _weight_json(w),
                "dim": w.dim,
                "char_exponent": exp_formula,
                "char_exponent_alpha_route": exp_alpha,
                "ok": exp_formula == exp_alpha,
            }
        q = ctx.q
        total = sum(w.dim for w in weights)
        want = 1 if tau.is_scalar else (q + 1 if tau.kind == PS else q - 1)
        # the weights must also be the Jordan-Holder factors of the type's
        # reduction, by the Brauer-character oracle
        yield {
            "key": "%s|dimsum" % label,
            "type": label,
            "dim_total": total,
            "dim_expected": want,
            "ok": total == want and weights_character(weights) == jh_oracle(tau),
        }


def _module_json(m):
    p, fp = m.ctx.p, m.fprime
    return {"r": list(m.r), "a": [list(_digits(x, p, fp)) for x in m.a], "c": list(m.c)}


def _decimal_order(n):
    """The indices 0 <= i < n in the order of their "%06d" texts.  Below
    10^6 that is range(n).  Above it, an index of six digits is followed by
    the longer indices whose text it starts (100000, 1000000, 1000001, ...,
    100001 when n is 1000002)."""
    if n <= 10 ** 6:
        yield from range(n)
        return

    def with_longer(i):
        yield i
        for j in range(10 * i, min(10 * i + 10, n)):
            yield from with_longer(j)

    yield from range(10 ** 5)
    for i in range(10 ** 5, 10 ** 6):
        yield from with_longer(i)


def _indexed_pairs(ctx, kind, args):
    """(i, pair i) of the kind's pair sweep, in the order of the keys'
    "%06d" text, each pair reached by its index.  Exhaustive: pair i is
    (mods[i // N], mods[i % N]).  Sampled: random_module takes 3f draws, and
    the PS pairs come before the cuspidal ones in one stream from the seed,
    so pair i of kind number j starts at draw 6f (j samples + i)."""
    if args.exhaustive:
        mods = exhaustive_modules(ctx, kind)
        count = len(mods)
        for i in _decimal_order(count * count):
            yield i, (mods[i // count], mods[i % count])
        return
    draws = 6 * ctx.f
    first = (PS, CUSPIDAL).index(kind) * args.samples
    for i in _decimal_order(args.samples):
        rng = SplitMix64(args.seed)
        rng.skip(draws * (first + i))
        end = SplitMix64(rng.state)
        end.skip(draws)
        pair = random_module(ctx, kind, rng), random_module(ctx, kind, rng)
        errors.check(rng.state == end.state, "a sampled pair took other than %d draws" % draws)
        yield i, pair


def _pair_items(kind, pairs, trunc):
    for idx, (m, n) in pairs:
        hv, ev = hom_dim(m, n), ext_dim(m, n)
        ov, oh = oracle_dims(m, n, trunc)
        yield {
            "key": "%s|pair%06d" % (kind, idx),
            "kind": kind,
            "M": _module_json(m),
            "N": _module_json(n),
            "ext": ev, "ext_oracle": ov,
            "hom": hv, "hom_oracle": oh,
            "ok": ev == ov and hv == oh,
        }


def cmd_oracle(ctx, args):
    if args.samples < 0:
        raise errors.RangeError("--samples must be at least 0, got %d" % args.samples)
    if args.trunc is not None and args.trunc < 1:
        raise errors.RangeError("truncation level must be at least 1, got %d" % args.trunc)
    # in key order: cusp pairs, kExt rows, ps pairs
    yield from _pair_items(CUSPIDAL, _indexed_pairs(ctx, CUSPIDAL, args), args.trunc)
    # kExt sweep over every maximal refined shape, both product choices; the
    # ne rows' n has every coefficient gen, whose product is read once per kind
    twists = {}   # kind -> (gen over one period, its product)
    for kind in (PS, CUSPIDAL):
        field = ctx.coefficient_field(kind)
        gen, prod = field.multiplicative_generator(), 1
        for _ in range(ctx.f):
            prod = field.mul(prod, gen)
        twists[kind] = (gen,) * ctx.f, prod
    types = [tau for tau in enumerate_types(ctx, canonical=True) if not tau.is_scalar]
    fill_shape_classes(types)
    orders = {}
    for label, tau in _by_label(types, "|"):
        twist_a, prod_ne = twists[tau.kind]
        for text, shape in _keyed_shapes(tau, orders):
            m, n = build_MN(tau, maximal_refined(tau, shape))
            oracles = kext_dim_oracles(m, n, twist_a)
            prefix = "kext|%s|J=%s|" % (label, text)
            for tag, prod_b, ko in zip(("eq", "ne"), (1, prod_ne), oracles):
                kv = kext_dim(tau, shape, 1, prod_b)
                # at distinct products kExt vanishes exactly on P_tau, which
                # checks ptau's in_ptau on the canonical types
                ok = kv == ko and (tag == "eq" or (ko == 0) == shape.admissible)
                yield {
                    "key": prefix + tag,
                    "type": label,
                    "J": sorted(shape.J),
                    "products": tag,
                    "kext": kv, "kext_oracle": ko,
                    "ok": ok,
                }
    yield from _pair_items(PS, _indexed_pairs(ctx, PS, args), args.trunc)


def _weight_key(w):
    return "weight|t=%s|s=%s" % (list(w.t), list(w.s))


def cmd_bm(ctx, args):
    # the orthogonality row sorts first and reads every weight's first
    # elimination order, so pass 1 solves that order for each weight in key
    # order and keeps only whether its cycle is {w: 1}; pass 2 solves the
    # first order again and the permuted one, and yields the weight's row.
    # A solve reads one central-character block, so solving again costs less
    # than holding every decomposition of pass 1 (that raised the peak RSS of
    # bm -p 3 -f 4 by 6.8%)
    weights = sorted(all_weights(ctx), key=_weight_key)
    units = [c_sigma_cycle(solve_n_tau(ctx, w)) == {w: 1} for w in weights]
    # the orthogonality row: w is the cycle of w's decomposition for every w
    yield {"key": "orthogonality", "ok": all(units)}
    for w, unit in zip(weights, units):
        n = solve_n_tau(ctx, w)
        n_perm = solve_n_tau(ctx, w, permute_seed=args.seed or 1)
        unit_perm = c_sigma_cycle(n_perm) == {w: 1}
        yield {
            "key": _weight_key(w),
            "weight": _weight_json(w),
            # labels are distinct, so the sort never compares coefficients
            "n_tau": [{"type": label, "coeff": v}
                      for label, v in sorted((t.label(), v) for t, v in n.items())],
            "unit_cycle": unit,
            "unit_cycle_permuted": unit_perm,
            "n_tau_permuted_differs": n_perm != n,
            "ok": unit and unit_perm,
        }
    for label, tau in _by_label(enumerate_types(ctx, canonical=True)):
        z = jh_factors(tau)
        # Z(tau) has multiplicity one, so the character of its weights is its
        # character.  The weight rows check sum_tau n_tau Z(tau) = [w] and
        # characters are additive, so when both kinds of row pass,
        # sum_tau n_tau chi(sigma(tau)) = chi(w) holds for every weight with
        # no per-weight check.
        yield {
            "key": "ztau|%s" % label,
            "type": label,
            "cycle": _cycle_json(z),
            "ok": weights_character(z) == jh_oracle(tau),
        }


def cmd_components(ctx, args):
    orders = {}
    # per type: the J= rows, then count, then cycle
    for label, tau in _by_label(_selected_types(ctx, args), "|"):
        if tau.is_scalar:
            yield {
                "key": "%s|count" % label,
                "type": label,
                "components": components_count(tau),
                "ok": components_count(tau) == 1,
            }
            continue
        supports = set()
        for text, shape in _keyed_shapes(tau, orders):
            pattern = dieudonne_pattern(tau, shape)
            support = divisor_support(tau, shape)
            supports.add(tuple(sorted(support)))
            yield {
                "key": "%s|J=%s" % (label, text),
                "type": label,
                "J": sorted(shape.J),
                "pattern": [list(entry) for entry in pattern],
                "divisor_support": sorted(support),
                "ok": True,
            }
        yield {
            "key": "%s|count" % label,
            "type": label,
            "components": len(supports),
            "ok": len(supports) == components_count(tau),
        }
        # Z(tau) must be the Jordan-Holder set of the type's reduction, by the
        # Brauer-character oracle, as in bm's ztau rows
        z = jh_factors(tau)
        yield {
            "key": "%s|cycle" % label,
            "type": label,
            "cycle": _cycle_json(z),
            "ok": weights_character(z) == jh_oracle(tau),
        }


COMMANDS = {
    "types": cmd_types,
    "ptau": cmd_ptau,
    "weights": cmd_weights,
    "oracle": cmd_oracle,
    "bm": cmd_bm,
    "components": cmd_components,
}


def _csv_row(it):
    """A row's keys in insertion order (one tuple per key order, memoised)
    and its quoted cells in that order."""
    keys = tuple(it)
    layout = _CSV_KEYS.get(keys) or _memo_put(_CSV_KEYS, keys, keys)
    cells = []
    for v in it.values():
        if isinstance(v, (dict, list)):
            v = json.dumps(v, sort_keys=True, separators=(",", ":"))
        cells.append('"%s"' % str(v).replace('"', '""'))
    return layout, tuple(cells)


def _render_csv(report, chunks):
    """The header, the sorted union of the rows' keys, then each row's cells
    in header order, "" where a row lacks the key; each chunk of cells is
    replaced by its text before the next is read."""
    layouts = {keys for chunk in chunks for keys, _ in chunk}
    header = sorted({k for keys in layouts for k in keys})
    picks = {}   # a row's keys -> the index of each header key's cell, or None
    for n, chunk in enumerate(chunks):
        lines = []
        for keys, cells in chunk:
            pick = picks.get(keys)
            if pick is None:
                pick = picks[keys] = [keys.index(k) if k in keys else None for k in header]
            lines.append(",".join('""' if i is None else cells[i] for i in pick))
        chunks[n] = "\n".join(lines) + "\n"
    return ",".join(header) + "\n" + "".join(chunks)


def _render_text(report, chunks):
    ctx, s = report["context"], report["summary"]
    return "\n".join(["%s  p=%d f=%d e=%d" % (report["command"], ctx["p"], ctx["f"], ctx["e"]),
                      *chunks, "pass=%d fail=%d" % (s["pass"], s["fail"]), ""])


def _render_json(report, chunks):
    """_json(report, "") + "\n", with report's items given as chunks of rows
    already rendered at their indentation and joined; the whole text is one
    join of the chunks."""
    if not chunks:
        return _json(dict(report, items=[]), "") + "\n"
    fields = sorted(report)
    at = fields.index("items")
    field = lambda key: "\n  %s: %s" % (_json_str(key), _json(report[key], "  "))
    chunks[0] = "{%s\n  \"items\": [\n    %s" % ("".join(field(k) + "," for k in fields[:at]),
                                                 chunks[0])
    chunks[-1] += "\n  ]%s\n}\n" % "".join("," + field(k) for k in fields[at + 1:])
    return _JSON_ROW_SEP.join(chunks)


def _memo_put(memo, key, value):
    """Store value under key in a memo of at most _MEMO_CAP entries,
    emptying it first when it is full; returns value."""
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def _dict_layout(obj, pad):
    """The sorted keys of the dict obj at indentation pad, each with the text
    before its value ("{" or ",", a newline, the indent, the encoded key and
    ": "), and the text that closes the dict."""
    inner = pad + "  "
    fields = [(key, ("," if n else "{") + "\n" + inner + _json_str(key) + ": ")
              for n, key in enumerate(sorted(obj))]
    return fields, "\n" + pad + "}"


def _json(obj, pad):
    """json.dumps(obj, sort_keys=True, indent=2) of obj at indentation pad,
    with each container rendered as one join of its children.

    Renders str keys and str, int, bool, None, list, tuple and dict values;
    anything else raises TypeError.  A dict is rendered from the layout of
    its keys (_dict_layout), memoised per (keys in insertion order, pad), so
    rows with one key set sort and encode their keys once.  The text of a
    list whose items are all exactly int is memoised per (pad, *items); bools
    are excluded because True == 1 with the same hash.  Both memos hold at
    most _MEMO_CAP entries.
    """
    leaf = _JSON_LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        layout_key = (tuple(obj), pad)
        layout = _LAYOUTS.get(layout_key)
        if layout is None:
            layout = _memo_put(_LAYOUTS, layout_key, _dict_layout(obj, pad))
        fields, close = layout
        parts = []
        for key, head in fields:
            val = obj[key]
            leaf = _JSON_LEAVES.get(type(val))
            parts.append(head)
            parts.append(leaf(val) if leaf else _json(val, inner))
        parts.append(close)
        return "".join(parts)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        ints = all(type(x) is int for x in obj)
        if ints:
            text = _INT_LISTS.get((pad, *obj))
            if text is not None:
                return text
        parts = []
        for x in obj:
            leaf = _JSON_LEAVES.get(type(x))
            parts.append(leaf(x) if leaf else _json(x, inner))
        text = "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(parts), pad)
        return _memo_put(_INT_LISTS, (pad, *obj), text) if ints else text
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


_JSON_ROW_SEP = ",\n    "   # between two rendered JSON rows

# format -> (rendering of one row, join of a chunk of rendered rows, renderer
# of the report from its chunks); CSV keeps each row's keys and cells, because
# its header is the union of every row's keys
_FORMATS = {
    "json": (lambda it: _json(it, "    "), _JSON_ROW_SEP.join, _render_json),
    "text": (lambda it: "  [%s] %s" % ({True: "ok", False: "FAIL"}.get(it.get("ok"), "-"),
                                       it["key"]), "\n".join, _render_text),
    "csv": (_csv_row, lambda rows: rows, _render_csv),
}


def render(report, fmt):
    """The text of report in fmt, with report["items"] (an iterable of rows
    in strictly increasing key order) as its items, and report["summary"]
    set from those rows.

    The order is checked, not made: a key that is not greater than the one
    before it raises InternalError.  Each row is rendered as soon as it
    arrives and then dropped (CSV renders it to its quoted cells), and every
    _CHUNK_ROWS rendered rows are joined into one chunk, so only the chunks
    and the last key are held until the one join of the chunks.
    """
    render_row, join, render_report = _FORMATS[fmt]
    chunks, chunk, count, fails, last = [], [], 0, 0, None
    for it in report["items"]:
        key = it["key"]
        if count and not key > last:
            raise errors.InternalError("row key %r does not follow %r" % (key, last))
        last = key
        count += 1
        fails += it.get("ok") is False
        chunk.append(render_row(it))
        if len(chunk) == _CHUNK_ROWS:
            chunks.append(join(chunk))
            chunk = []
    if chunk:
        chunks.append(join(chunk))
    chunk = it = None   # the last rows go before the join
    report["summary"] = {"pass": count - fails, "fail": fails, "millis": 0}
    return render_report(report, chunks)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bktame",
        description="exact sweeps over tame types, shapes, weights, and cycles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        # each command takes only the options it reads
        cmd = sub.add_parser(name)
        cmd.add_argument("-p", type=int, required=True)
        cmd.add_argument("-f", type=int, required=True)
        cmd.add_argument("--format", choices=("json", "csv", "text"), default="json")
        cmd.add_argument("--out", default=None)
        # the rows of types, bm and components read only p and f; their
        # reports say e = 1
        if name in ("oracle", "ptau", "weights"):
            cmd.add_argument("-e", type=int, default=1)
        else:
            cmd.set_defaults(e=1)
        if name not in ("oracle", "bm"):
            cmd.add_argument("--type", default=None,
                             help="ps:<k0>,<k0p> | cusp:<k0> | scalar:<k0>")
            cmd.add_argument("--ordered", action="store_true",
                             help="list ordered pairs instead of canonical types")
        if name in ("oracle", "bm"):
            cmd.add_argument("--seed", type=int, default=0)
        if name == "oracle":
            cmd.add_argument("--exhaustive", action="store_true")
            cmd.add_argument("--samples", type=int, default=100)
            cmd.add_argument("--trunc", type=int, default=None,
                             help="truncation level of the pair sweep (stabilisation "
                                  "still checked); the kExt rows' Hom uses the default")
    return parser


def run(argv):
    """Parse, execute, and render; returns (report_text, exit_code)."""
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        ctx = LocalContext(args.p, args.f, args.e)
        report = {
            "command": args.command,
            "echo": {"argv": list(argv), "seed": getattr(args, "seed", 0)},
            "context": {"p": ctx.p, "f": ctx.f, "e": ctx.e},
            # a generator: its rows are computed while render consumes them
            "items": COMMANDS[args.command](ctx, args),
        }
        text = render(report, args.format)
    except errors.BKError as exc:
        return "error: %s\n" % exc, 2
    print("elapsed: %dms" % int(1000 * (time.time() - started)), file=sys.stderr)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                _write(handle, text)
        except OSError as exc:
            return "error: cannot write %s: %s\n" % (args.out, exc.strerror), 2
    return text, (0 if report["summary"]["fail"] == 0 else 1)


def _write(handle, text):
    """Write text to a text stream in slices: the stream encodes what it is
    given at once, so one write would hold a second, encoded report."""
    for start in range(0, len(text), _WRITE_SLICE):
        handle.write(text[start:start + _WRITE_SLICE])


def main(argv=None):
    text, code = run(sys.argv[1:] if argv is None else argv)
    _write(sys.stdout, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
