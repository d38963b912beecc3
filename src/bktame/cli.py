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
import os
import sys
import time

from . import errors
from .rankone import (RankOneBK, exhaustive_modules, galois_char, hom_dim,
                      random_module)
from .rng import SplitMix64
from .shapes import (_ext_beyond_hom, build_MN, family_dim, is_admissible,
                     kext_dim, kext_dim_oracle, maximal_refined, oracle_dims,
                     p_tau, refined_count, shapes_for)
from .tametypes import (CUSPIDAL, PS, LocalContext, enumerate_types,
                        gamma_digits, make_type)
from .weights import (Cycle, all_weights, c_sigma_cycle, char_TN,
                      components_count, dieudonne_pattern, divisor_support,
                      sigma_tau_J, solve_n_tau, z_tau_cycle)

OUTPUT_DIR_ENV = "BKTAME_OUTPUT_DIR"

_json_str = json.encoder.encode_basestring_ascii
_JSON_LEAVES = {str: _json_str, int: int.__repr__, type(None): lambda _: "null",
                bool: {True: "true", False: "false"}.__getitem__}


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


def _cycle_json(cycle):
    return [{"weight": _weight_json(w), "mult": m}
            for w, m in sorted(cycle.mult.items(), key=lambda kv: (kv[0].t, kv[0].s))]


def _make_report(command, ctx, items, echo):
    items = sorted(items, key=lambda it: it["key"])
    fails = sum(1 for it in items if it.get("ok") is False)
    return {
        "command": command,
        "echo": echo,
        "context": {"p": ctx.p, "f": ctx.f, "e": ctx.e},
        "items": items,
        "summary": {"pass": len(items) - fails, "fail": fails, "millis": 0},
    }


def cmd_types(ctx, args):
    items = []
    for tau in _selected_types(ctx, args):
        items.append({
            "key": tau.label(),
            "kind": tau.kind,
            "k0": tau.k0,
            "k0p": tau.k0p,
            "scalar": tau.is_scalar,
            "gamma": list(gamma_digits(tau)),
            "ok": True,
        })
    return items


def _shape_columns(tau):
    """Each shape of tau with its key suffix, sorted J, refined-shape count,
    maximal y and family dimension.  These read only the kind, f', f, e and
    J, so every type of tau's kind and scalarity has the same columns."""
    columns = []
    for shape in shapes_for(tau):
        rs = maximal_refined(tau, shape)
        columns.append((shape, "|J=" + _shape_str(shape.J), sorted(shape.J),
                        refined_count(tau, shape), list(rs.y), family_dim(tau, rs)))
    return columns


def cmd_ptau(ctx, args):
    columns = {}   # (kind, scalar) -> _shape_columns of the group's first type
    items = []
    for tau in _selected_types(ctx, args):
        group = (tau.kind, tau.is_scalar)
        if group not in columns:
            columns[group] = _shape_columns(tau)
        label, gamma = tau.label(), gamma_digits(tau)
        # admissibility reads only p, J and the shape's transitions besides gamma
        for shape, suffix, J, count, y, dim in columns[group]:
            items.append({
                "key": label + suffix,
                "type": label,
                "J": J,
                "in_ptau": is_admissible(shape, gamma),
                "refined_count": count,
                "maximal_y": y,
                "family_dim": dim,
                "ok": True,
            })
    return items


def cmd_weights(ctx, args):
    items = []
    for tau in _selected_types(ctx, args):
        total = 0
        for shape in p_tau(tau):
            w = sigma_tau_J(tau, shape)
            total += w.dim
            exp_formula = char_TN(tau, shape)
            _, n = build_MN(tau, maximal_refined(tau, shape))
            exp_alpha = galois_char(n).tame_exp
            items.append({
                "key": "%s|J=%s" % (tau.label(), _shape_str(shape.J)),
                "type": tau.label(),
                "J": sorted(shape.J),
                "weight": _weight_json(w),
                "dim": w.dim,
                "char_exponent": exp_formula,
                "char_exponent_alpha_route": exp_alpha,
                "ok": exp_formula == exp_alpha,
            })
        q = ctx.q
        want = 1 if tau.is_scalar else (q + 1 if tau.kind == PS else q - 1)
        items.append({
            "key": "%s|dimsum" % tau.label(),
            "type": tau.label(),
            "dim_total": total,
            "dim_expected": want,
            "ok": total == want,
        })
    return items


def _module_json(m):
    return {"r": list(m.r), "a": [list(x.coeffs) for x in m.a], "c": list(m.c)}


def _pair_items(kind, pairs, trunc):
    items = []
    for idx, (m, n) in enumerate(pairs):
        hv = hom_dim(m, n)
        ev = hv + _ext_beyond_hom(m, n)
        ov, oh = oracle_dims(m, n, trunc)
        items.append({
            "key": "%s|pair%06d" % (kind, idx),
            "kind": kind,
            "M": _module_json(m),
            "N": _module_json(n),
            "ext": ev, "ext_oracle": ov,
            "hom": hv, "hom_oracle": oh,
            "ok": ev == ov and hv == oh,
        })
    return items


def cmd_oracle(ctx, args):
    if args.samples < 0:
        raise errors.RangeError("--samples must be at least 0, got %d" % args.samples)
    items = []
    rng = SplitMix64(args.seed)
    for kind in (PS, CUSPIDAL):
        if args.exhaustive:
            mods = exhaustive_modules(ctx, kind)
            pairs = ((m, n) for m in mods for n in mods)
        else:
            pairs = ((random_module(ctx, kind, rng), random_module(ctx, kind, rng))
                     for _ in range(args.samples))
        items.extend(_pair_items(kind, pairs, args.trunc))
    # kExt sweep over every maximal refined shape, both product choices
    for tau in enumerate_types(ctx, canonical=True):
        if tau.is_scalar:
            continue
        field = ctx.coefficient_field(tau.kind)
        gen = field.multiplicative_generator()
        errors.check(gen and gen.owner == field, "twist coefficient is not a unit")
        for shape in shapes_for(tau):
            m, n = build_MN(tau, maximal_refined(tau, shape))
            # n with every coefficient gen: its r and c are already validated
            n_twist = RankOneBK(ctx, tau.kind, n.r, (gen,) * tau.fprime, n.c)
            for tag, prod_b, nn in (("eq", field.one(), n), ("ne", gen, n_twist)):
                kv = kext_dim(tau, shape, field.one(), prod_b)
                ko = kext_dim_oracle(m, nn)
                items.append({
                    "key": "kext|%s|J=%s|%s" % (tau.label(), _shape_str(shape.J), tag),
                    "type": tau.label(),
                    "J": sorted(shape.J),
                    "products": tag,
                    "kext": kv, "kext_oracle": ko,
                    "ok": kv == ko,
                })
    return items


def cmd_bm(ctx, args):
    weight_rows = []
    for w in all_weights(ctx):
        n = solve_n_tau(ctx, w)
        cyc = c_sigma_cycle(n)
        unit = Cycle.unit(w)
        n_perm = solve_n_tau(ctx, w, permute_seed=args.seed or 1)
        cyc_perm = c_sigma_cycle(n_perm)
        weight_rows.append({
            "key": "weight|t=%s|s=%s" % (list(w.t), list(w.s)),
            "weight": _weight_json(w),
            "n_tau": [{"type": t.label(), "coeff": v} for t, v in
                      sorted(n.items(), key=lambda kv: kv[0].label())],
            "unit_cycle": cyc == unit,
            "unit_cycle_permuted": cyc_perm == unit,
            "n_tau_permuted_differs": n_perm != n,
            "ok": cyc == unit and cyc_perm == unit,
        })
    # the orthogonality row w is the cycle of w's decomposition
    items = [{"key": "orthogonality",
              "ok": all(row["unit_cycle"] for row in weight_rows)}]
    items.extend(weight_rows)
    for tau in enumerate_types(ctx, canonical=True):
        cyc = z_tau_cycle(tau)
        items.append({
            "key": "ztau|%s" % tau.label(),
            "type": tau.label(),
            "cycle": _cycle_json(cyc),
            "ok": cyc.is_reduced_effective,
        })
    return items


def cmd_components(ctx, args):
    items = []
    for tau in _selected_types(ctx, args):
        if tau.is_scalar:
            items.append({
                "key": "%s|count" % tau.label(),
                "type": tau.label(),
                "components": components_count(tau),
                "ok": components_count(tau) == 1,
            })
            continue
        supports = set()
        for shape in shapes_for(tau):
            pattern = dieudonne_pattern(tau, shape)
            support = divisor_support(tau, shape)
            supports.add(tuple(sorted(support)))
            items.append({
                "key": "%s|J=%s" % (tau.label(), _shape_str(shape.J)),
                "type": tau.label(),
                "J": sorted(shape.J),
                "pattern": [list(entry) for entry in pattern.entries],
                "divisor_support": sorted(support),
                "ok": True,
            })
        items.append({
            "key": "%s|count" % tau.label(),
            "type": tau.label(),
            "components": len(supports),
            "ok": len(supports) == components_count(tau),
        })
        items.append({
            "key": "%s|cycle" % tau.label(),
            "type": tau.label(),
            "cycle": _cycle_json(z_tau_cycle(tau)),
            "ok": True,
        })
    return items


COMMANDS = {
    "types": cmd_types,
    "ptau": cmd_ptau,
    "weights": cmd_weights,
    "oracle": cmd_oracle,
    "bm": cmd_bm,
    "components": cmd_components,
}


def _render_csv(report):
    keys = sorted({k for it in report["items"] for k in it})
    lines = [",".join(keys)]
    for it in report["items"]:
        row = []
        for k in keys:
            v = it.get(k, "")
            if isinstance(v, (dict, list)):
                v = json.dumps(v, sort_keys=True, separators=(",", ":"))
            row.append('"%s"' % str(v).replace('"', '""'))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _render_text(report):
    lines = ["%s  p=%d f=%d e=%d" % (report["command"], report["context"]["p"],
                                     report["context"]["f"], report["context"]["e"])]
    for it in report["items"]:
        status = {True: "ok", False: "FAIL"}.get(it.get("ok"), "-")
        lines.append("  [%s] %s" % (status, it["key"]))
    s = report["summary"]
    lines.append("pass=%d fail=%d" % (s["pass"], s["fail"]))
    return "\n".join(lines) + "\n"


def _json(obj, pad):
    """json.dumps(obj, sort_keys=True, indent=2) of obj at indentation pad,
    with each container rendered as one join of its children.

    Renders str keys and str, int, bool, None, list, tuple and dict values;
    anything else raises TypeError.
    """
    leaf = _JSON_LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            val = obj[key]
            leaf = _JSON_LEAVES.get(type(val))
            parts.append(_json_str(key) + ": " + (leaf(val) if leaf else _json(val, inner)))
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(parts), pad)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            parts = map(int.__repr__, obj)
        else:
            parts = [_json(x, inner) for x in obj]
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(parts), pad)
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def render(report, fmt):
    if fmt == "json":
        return _json(report, "") + "\n"
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bktame",
        description="exact sweeps over tame types, shapes, weights, and cycles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("-p", type=int, required=True)
        cmd.add_argument("-f", type=int, required=True)
        cmd.add_argument("-e", type=int, default=1)
        cmd.add_argument("--type", default=None,
                         help="ps:<k0>,<k0p> | cusp:<k0> | scalar:<k0>")
        cmd.add_argument("--ordered", action="store_true",
                         help="list ordered pairs instead of canonical types")
        cmd.add_argument("--exhaustive", action="store_true")
        cmd.add_argument("--samples", type=int, default=100)
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--format", choices=("json", "csv", "text"), default="json")
        cmd.add_argument("--out", default=None)
        cmd.add_argument("--trunc", type=int, default=None,
                         help="oracle truncation override (stabilisation still checked)")
    return parser


def run(argv):
    """Parse, execute, and render; returns (report_text, exit_code)."""
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        ctx = LocalContext(args.p, args.f, args.e)
        items = COMMANDS[args.command](ctx, args)
    except errors.BKError as exc:
        return "error: %s\n" % exc, 2
    report = _make_report(args.command, ctx, items,
                          {"argv": list(argv), "seed": args.seed})
    text = render(report, args.format)
    print("elapsed: %dms" % int(1000 * (time.time() - started)), file=sys.stderr)
    if args.out:
        path = args.out
        outdir = os.environ.get(OUTPUT_DIR_ENV)
        if outdir and not os.path.isabs(path):
            path = os.path.join(outdir, path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text, (0 if report["summary"]["fail"] == 0 else 1)


def main(argv=None):
    text, code = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
