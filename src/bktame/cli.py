"""Batch front-end: enumerate types, shapes, and weights for a context,
run formula-vs-oracle sweeps, solve the cycle decompositions, and emit
machine-readable reports.

Reports are deterministic for a fixed (config, seed): items are sorted by
a canonical key, JSON is emitted with sorted keys, and the summary's
millis field is pinned to zero (wall-clock timing goes to stderr) so that
repeated runs are byte-identical.  All JSON numbers are exact integers.
"""

import argparse
import json
import sys
import time
from operator import itemgetter

from . import errors
from .brauer import jh_oracle, weights_character
from .gfarith import _digits
from .rankone import exhaustive_modules, hom_dim, random_module
from .rng import SplitMix64
from .shapes import (build_MN, ext_dim, family_dim, fill_shape_classes, kext_dim,
                     kext_dim_oracles, maximal_refined, oracle_dims, p_tau,
                     refined_shapes, shape_classes, shapes_for)
from .tametypes import (CUSPIDAL, PS, LocalContext, enumerate_types,
                        gamma_digits, make_type)
from .weights import (all_weights, c_sigma_cycle, char_TN, components_count,
                      dieudonne_pattern, divisor_support, jh_factors,
                      sigma_tau_J, solve_n_tau)

_WRITE_SLICE = 1 << 20   # characters per write of a report

_json_str = json.encoder.encode_basestring_ascii
_JSON_LEAVES = {str: _json_str, int: int.__repr__, type(None): lambda _: "null",
                bool: {True: "true", False: "false"}.__getitem__}
_MEMO_CAP = 1 << 12   # entries of each rendering memo
_LAYOUTS = {}     # (dict keys in insertion order, pad) -> _dict_layout
_INT_LISTS = {}   # (pad, *items) -> text of a list of exact ints


def _parse_type_selector(ctx, text):
    """Grammar: ps:<k0>,<k0p> | cusp:<k0> | scalar:<k0>."""
    try:
        head, _, rest = text.partition(":")
        if head == "ps":
            k0, k0p = (int(x) for x in rest.split(","))
            return make_type(ctx, PS, k0, k0p)
        if head == "scalar":
            k0 = int(rest)
            return make_type(ctx, PS, k0, k0)
        if head == "cusp":
            return make_type(ctx, CUSPIDAL, int(rest))
    except (ValueError, errors.BKError) as exc:
        raise errors.BadResidue("bad type selector %r: %s" % (text, exc))
    raise errors.BadResidue("bad type selector %r" % text)


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


def cmd_types(ctx, args):
    p = ctx.p
    for tau in _selected_types(ctx, args):
        gamma, fp, ekk = gamma_digits(tau), tau.fprime, tau.ekk
        kv, kpv = tau.kvec, tau.kpvec
        # gamma's defining identity: sum_j p^j gamma[i - j] = [k_i - k'_i]
        ok = all(sum(p ** j * gamma[(i - j) % fp] for j in range(fp)) == (kv[i] - kpv[i]) % ekk
                 for i in range(fp))
        yield {
            "key": tau.label(),
            "kind": tau.kind,
            "k0": tau.k0,
            "k0p": tau.k0p,
            "scalar": tau.is_scalar,
            "gamma": list(gamma),
            "ok": ok,
        }


def _shape_columns(tau):
    """Each J of tau with its key suffix, sorted J, refined-shape count,
    maximal y and family dimension.  These read only the kind, f', f, e and
    J, so every type of tau's kind and scalarity has the same columns."""
    columns = []
    for shape in shapes_for(tau):
        rs = maximal_refined(tau, shape)
        columns.append((shape.J, "|J=" + _shape_str(shape.J), sorted(shape.J),
                        len(refined_shapes(tau, shape)), list(rs.y), family_dim(tau, rs)))
    return columns


def cmd_ptau(ctx, args):
    types = _selected_types(ctx, args)
    # the class data before the rows, as in oracle's kExt sweep: built during
    # them, it raised the peak RSS of ptau -p 5 -f 3 by 4.6% (110.7 to 115.8 MB)
    fill_shape_classes(types)
    columns = {}   # (kind, scalar) -> _shape_columns of the group's first type
    for tau in types:
        group = (tau.kind, tau.is_scalar)
        if group not in columns:
            columns[group] = _shape_columns(tau)
        label, classes = tau.label(), shape_classes(tau)
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
    for tau in _selected_types(ctx, args):
        weights = []
        for shape in p_tau(tau):
            w = sigma_tau_J(tau, shape)
            weights.append(w)
            exp_formula = char_TN(tau, shape)
            _, n = build_MN(tau, maximal_refined(tau, shape))
            exp_alpha = n.galois_character.tame_exp
            yield {
                "key": "%s|J=%s" % (tau.label(), _shape_str(shape.J)),
                "type": tau.label(),
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
            "key": "%s|dimsum" % tau.label(),
            "type": tau.label(),
            "dim_total": total,
            "dim_expected": want,
            "ok": total == want and weights_character(weights) == jh_oracle(tau),
        }


def _module_json(m):
    p, fp = m.ctx.p, m.fprime
    return {"r": list(m.r), "a": [list(_digits(x, p, fp)) for x in m.a], "c": list(m.c)}


def _pair_items(kind, pairs, trunc):
    for idx, (m, n) in enumerate(pairs):
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
    rng = SplitMix64(args.seed)
    for kind in (PS, CUSPIDAL):
        if args.exhaustive:
            mods = exhaustive_modules(ctx, kind)
            pairs = ((m, n) for m in mods for n in mods)
        else:
            pairs = ((random_module(ctx, kind, rng), random_module(ctx, kind, rng))
                     for _ in range(args.samples))
        yield from _pair_items(kind, pairs, args.trunc)
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
    for tau in types:
        twist_a, prod_ne = twists[tau.kind]
        label = tau.label()
        for shape in shapes_for(tau):
            m, n = build_MN(tau, maximal_refined(tau, shape))
            oracles = kext_dim_oracles(m, n, twist_a)
            prefix = "kext|%s|J=%s|" % (label, _shape_str(shape.J))
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


def cmd_bm(ctx, args):
    unit_cycles = True
    for w in all_weights(ctx):
        n = solve_n_tau(ctx, w)
        cyc = c_sigma_cycle(n)
        unit = {w: 1}
        n_perm = solve_n_tau(ctx, w, permute_seed=args.seed or 1)
        cyc_perm = c_sigma_cycle(n_perm)
        unit_cycles &= cyc == unit
        yield {
            "key": "weight|t=%s|s=%s" % (list(w.t), list(w.s)),
            "weight": _weight_json(w),
            "n_tau": [{"type": t.label(), "coeff": v} for t, v in
                      sorted(n.items(), key=lambda kv: kv[0].label())],
            "unit_cycle": cyc == unit,
            "unit_cycle_permuted": cyc_perm == unit,
            "n_tau_permuted_differs": n_perm != n,
            "ok": cyc == unit and cyc_perm == unit,
        }
    # the orthogonality row: w is the cycle of w's decomposition for every w
    yield {"key": "orthogonality", "ok": unit_cycles}
    for tau in enumerate_types(ctx, canonical=True):
        z = jh_factors(tau)
        # Z(tau) has multiplicity one, so the character of its weights is its
        # character.  The weight rows check sum_tau n_tau Z(tau) = [w] and
        # characters are additive, so when both kinds of row pass,
        # sum_tau n_tau chi(sigma(tau)) = chi(w) holds for every weight with
        # no per-weight check.
        yield {
            "key": "ztau|%s" % tau.label(),
            "type": tau.label(),
            "cycle": _cycle_json(z),
            "ok": weights_character(z) == jh_oracle(tau),
        }


def cmd_components(ctx, args):
    for tau in _selected_types(ctx, args):
        if tau.is_scalar:
            yield {
                "key": "%s|count" % tau.label(),
                "type": tau.label(),
                "components": components_count(tau),
                "ok": components_count(tau) == 1,
            }
            continue
        supports = set()
        for shape in shapes_for(tau):
            pattern = dieudonne_pattern(tau, shape)
            support = divisor_support(tau, shape)
            supports.add(tuple(sorted(support)))
            yield {
                "key": "%s|J=%s" % (tau.label(), _shape_str(shape.J)),
                "type": tau.label(),
                "J": sorted(shape.J),
                "pattern": [list(entry) for entry in pattern],
                "divisor_support": sorted(support),
                "ok": True,
            }
        yield {
            "key": "%s|count" % tau.label(),
            "type": tau.label(),
            "components": len(supports),
            "ok": len(supports) == components_count(tau),
        }
        # Z(tau) must be the Jordan-Holder set of the type's reduction, by the
        # Brauer-character oracle, as in bm's ztau rows
        z = jh_factors(tau)
        yield {
            "key": "%s|cycle" % tau.label(),
            "type": tau.label(),
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


def _render_csv(report, rows):
    keys = sorted({k for it in rows for k in it})
    lines = [",".join(keys)]
    for it in rows:
        row = []
        for k in keys:
            v = it.get(k, "")
            if isinstance(v, (dict, list)):
                v = json.dumps(v, sort_keys=True, separators=(",", ":"))
            row.append('"%s"' % str(v).replace('"', '""'))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _render_text(report, rows):
    ctx, s = report["context"], report["summary"]
    return "\n".join(["%s  p=%d f=%d e=%d" % (report["command"], ctx["p"], ctx["f"], ctx["e"]),
                      *rows, "pass=%d fail=%d" % (s["pass"], s["fail"]), ""])


def _render_json(report, rows):
    """_json(report, "") + "\n", with report's items given as rows already
    rendered at their indentation; the whole text is one join of the rows."""
    if not rows:
        return _json(dict(report, items=[]), "") + "\n"
    fields = sorted(report)
    at = fields.index("items")
    field = lambda key: "\n  %s: %s" % (_json_str(key), _json(report[key], "  "))
    rows[0] = "{%s\n  \"items\": [\n    %s" % ("".join(field(k) + "," for k in fields[:at]),
                                               rows[0])
    rows[-1] += "\n  ]%s\n}\n" % "".join("," + field(k) for k in fields[at + 1:])
    return ",\n    ".join(rows)


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


# format -> (rendering of one row, renderer of the report from its sorted rows);
# CSV keeps its rows, because its header is the union of their keys
_FORMATS = {
    "json": (lambda it: _json(it, "    "), _render_json),
    "text": (lambda it: "  [%s] %s" % ({True: "ok", False: "FAIL"}.get(it.get("ok"), "-"),
                                       it["key"]), _render_text),
    "csv": (lambda it: it, _render_csv),
}


def render(report, fmt):
    """The text of report in fmt, with report["items"] (any iterable of rows)
    sorted by key, and report["summary"] set from those rows.

    Each row is rendered as soon as it arrives and then dropped (CSV keeps
    it), so only (key, rendered row) pairs are held until the one sort by key.
    """
    render_row, render_report = _FORMATS[fmt]
    pairs, fails = [], 0
    for it in report["items"]:
        fails += it.get("ok") is False
        pairs.append((it["key"], render_row(it)))
    pairs.sort(key=itemgetter(0))
    rows = [row for _, row in pairs]
    del pairs   # the keys go before the join
    report["summary"] = {"pass": len(rows) - fails, "fail": fails, "millis": 0}
    return render_report(report, rows)


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
