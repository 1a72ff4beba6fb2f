"""Command line interface.

One command per invocation; every command is a pure function of its input
file and flags, so outputs are byte-identical across runs.  A command
returns (exit code, JSON payload, text) and writes nothing; `main` is the one
writer: it prints the payload under --json and the text otherwise, or one
error line.  Exit codes: 0 success, 1 semantic failure, 2 parse or usage
error.  `--seed` is accepted and ignored (all computations are deterministic).
"""

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import dsl
from .cdga import SullivanPresentation, cohomology, cohomology_algebra, validate
from .constructions import (arrangement_complex, config_space_model, free_loop_model,
                            mapping_space_pi)
from .errors import ParseError, RhtError, UnsupportedInputError, UsageError
from .homotopy_lie import (NILPOTENCY_STEPS, bch_product, hurewicz_matrix,
                           lcs_filtrations, lie_table, nilpotency_class)
from .invariants import (DegreeSequence, cat_bounds, elliptic_degrees_check,
                         loop_homology_dims, massey_triple, tc_cup_length,
                         toomer_invariant, trichotomy_report)
from .minimal_model import LambdaExtension, minimal_model, pushout_extension, require_minimal


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError("%s: byte %d is not UTF-8" % (path, exc.start)) from None
    return dsl.parse(text)


def cmd_validate(args):
    doc = _load(args.file)
    lines = []
    failed = False
    for kind, name in doc.order:
        if kind == "cdga":
            violations = doc.violations(name)
        elif kind == "morphism":     # the parser refuses a morphism that is not a chain map
            violations = []
        elif kind == "arrangement":
            violations = validate(arrangement_complex(doc.arrangements[name])).violations
        else:
            lines.append("pd %s: verified at parse time" % name)
            continue
        lines.append("%s %s: %s" % (kind, name, "INVALID" if violations else "valid"))
        lines += ["  - %s" % v for v in violations]
        failed = failed or bool(violations)
    return (1 if failed else 0), None, "\n".join(lines) + "\n"


def cmd_cohomology(args):
    doc = _load(args.file)
    p = doc.presentation(args.name)
    rep = cohomology(p, 0, args.max)
    payload = dsl.cohomology_json(rep)
    chi, exact = rep.euler_characteristic()
    payload["euler_characteristic"] = {"value": chi, "exact": exact}
    text_lines = ["H(%s) in degrees 0..%d%s:" % (
        args.name, args.max,
        "" if rep.certified_above() else " (window; H beyond %d unverified)" % args.max)]
    for k in range(0, args.max + 1):
        text_lines.append("  H^%d: dim %d" % (k, rep.dim(k)))
    text_lines.append("euler characteristic (window): %d%s"
                      % (chi, " (exact)" if exact else ""))
    return 0, payload, "\n".join(text_lines) + "\n"


def cmd_minimal_model(args):
    doc = _load(args.file)
    p = doc.presentation(args.name)
    target = p
    if args.of_cohomology is not None:
        target = cohomology_algebra(p, args.of_cohomology)
    result = minimal_model(target, args.max)
    payload = dsl.minimal_model_json(result)
    text = dsl.serialize_presentation(result.model) + "\n"
    text += "certified_degree: %d\n" % result.certified_degree
    text += "ranks: %s\n" % json.dumps({str(k): v for k, v in sorted(result.ranks().items())},
                                       sort_keys=True)
    return 0, payload, text


def cmd_homotopy(args):
    doc = _load(args.file)
    p = doc.presentation(args.name)
    out = {}
    lines = []
    if args.ranks is not None:
        require_minimal(p, "--ranks")
        ranks = p.ctx.ranks(range(2, args.ranks + 1))
        out["ranks"] = {str(k): v for k, v in ranks.items()}
        lines.append("ranks (dim V^k of the given minimal presentation):")
        for k in sorted(ranks):
            lines.append("  k=%d: %d" % (k, ranks[k]))
    if args.brackets is not None:
        t = lie_table(p, args.brackets, name="L(%s.d1)" % p.name)
        out["lie_table"] = dsl.lie_table_json(t)
        lines.append("Lie table to degree %d:" % args.brackets)
        for key, val in sorted(out["lie_table"]["brackets"].items()):
            lines.append("  %s = %s" % (key, json.dumps(val, sort_keys=True)))
    if args.filtration is not None:
        rep = lcs_filtrations(p, args.filtration)
        out["filtration"] = {
            "k": rep.k, "v_dims": rep.v_dims, "lcs_dims": rep.l_dims,
            "nil_v": str(rep.nil_v), "nil_l": str(rep.nil_l),
        }
        lines.append("filtration at k=%d: V-dims %s, LCS dims %s, nil V = %s, nil L = %s"
                     % (rep.k, rep.v_dims, rep.l_dims, rep.nil_v, rep.nil_l))
    if args.hurewicz is not None:
        require_minimal(p, "--hurewicz")
        h = hurewicz_matrix(p, args.hurewicz)
        out["hurewicz"] = {"k": h.k, "h_dim": h.h_dim, "v_dim": h.v_dim, "rank": h.rank}
        lines.append("hurewicz at k=%d: H-dim %d, V-dim %d, rank %d"
                     % (h.k, h.h_dim, h.v_dim, h.rank))
    payload = {"schema": dsl.SCHEMA, "kind": "homotopy", "name": args.name}
    payload.update(out)
    return 0, payload, "\n".join(lines) + "\n"


_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?$")


def _parse_vector(text, dim):
    """Exactly `dim` comma-separated rationals p or p/q as a sparse vector, else None."""
    parts = [part.strip() for part in text.split(",")] if text.strip() else []
    if len(parts) != dim or not all(_RATIONAL.match(part) for part in parts):
        return None
    return {i: q for i, q in enumerate(map(Fraction, parts)) if q != 0}


def cmd_bch(args):
    doc = _load(args.file)
    p = doc.presentation(args.name)
    t = lie_table(p, 0)
    vectors = []
    for text in (args.a, args.b):
        vec = _parse_vector(text, t.dim(0))
        if vec is None:
            raise UsageError("%r is not %d comma-separated rationals (dim L_0 = %d)"
                             % (text, t.dim(0), t.dim(0)))
        vectors.append(vec)
    nil = nilpotency_class(t)
    if args.cls is not None and not nil <= args.cls <= NILPOTENCY_STEPS:
        raise UsageError("--class must lie in %d..%d (the nilpotency class of L_0 is %d), "
                         "got %d" % (nil, NILPOTENCY_STEPS, nil, args.cls))
    # Brackets longer than the class vanish, so every valid --class gives this.
    z = bch_product(t, vectors[0], vectors[1], nil_class=nil)
    labels = t.basis.get(0, [])
    payload = {"schema": dsl.SCHEMA, "kind": "bch",
               "result": {labels[i]: dsl.format_coefficient(c) for i, c in sorted(z.items())}}
    terms = ["%s*%s" % (dsl.format_coefficient(c), labels[i]) for i, c in sorted(z.items())]
    return 0, payload, "a*b = %s\n" % (" + ".join(terms) if terms else "0")


def cmd_invariants(args):
    doc = _load(args.file)
    p = doc.presentation(args.name)
    n = args.max
    payload = {"schema": dsl.SCHEMA, "kind": "invariants", "name": args.name,
               "certified_degree": n}
    lines = []
    # One Toomer report (one window) serves --toomer, --cat, --tc, --of-cohomology.
    c = cat_bounds(p, n=n) if args.cat else None
    t = c.toomer if c else toomer_invariant(p, n=n) if args.toomer else None
    if args.toomer:
        payload["toomer"] = {"value": t.value, "exact": t.exact, "window": t.window}
        lines.append("toomer e = %s%s" % (t.value, " (exact)" if t.exact else " (window)"))
    if args.cat:
        payload["cat"] = {"e": c.e, "upper": c.upper, "certified": c.certified,
                          "pd": c.pd, "cat_exact": c.cat_exact}
        lines.append("cat bounds: [%s, %s]%s" % (
            c.e, c.upper, (", cat = %d (PD)" % c.cat_exact) if c.cat_exact is not None else ""))
    if args.massey:
        res = massey_triple(p, *(dsl.parse_element(text, p.ctx, n) for text in args.massey))
        payload["massey"] = {
            "defined": res.defined,
            "nontrivial": res.nontrivial,
            "representative": str(res.representative)
            if res.defined and res.representative is not None else None,
            "indeterminacy_dim": len(res.indeterminacy) if res.defined else None,
            "reason": res.reason,
        }
        if res.defined:
            lines.append("massey: %s, representative %s, indeterminacy dim %d"
                         % ("nontrivial" if res.nontrivial else "trivial",
                            res.representative, len(res.indeterminacy)))
        else:
            lines.append("massey: undefined (%s)" % res.reason)
    if args.tc or args.trichotomy and args.of_cohomology:     # one algebra serves both
        H = c.algebra if c else t.cohomology.algebra() if t else cohomology_algebra(p, n)
    if args.tc:
        value = tc_cup_length(H)
        payload["tc_cup_length"] = {"value": value,
                                    "window_certified": H.window_certified}
        lines.append("TC cup length c_H = %d%s" % (
            value, "" if H.window_certified else " (cohomology windowed at %d)" % n))
    if args.loop_betti is not None:
        require_minimal(p, "--loop-betti")
        if 1 in p.ctx.degrees:
            raise UnsupportedInputError("--loop-betti needs a simply connected model (V^1 = 0)")
        dims = loop_homology_dims({k - 1: r for k, r in p.ctx.ranks().items()}, args.loop_betti)
        payload["loop_betti"] = {str(k): v for k, v in dims.items()}
        lines.append("loop homology dims: %s" % json.dumps(
            {str(k): v for k, v in dims.items()}, sort_keys=True))
    if args.trichotomy:
        result = minimal_model(H if args.of_cohomology else p, n)
        rep = trichotomy_report(result, n)
        payload["trichotomy"] = {
            "tag": rep.tag, "chi_pi": rep.chi_pi,
            "alpha_estimate": "%.6f" % rep.alpha_estimate,
            "refined_alpha": {"r": rep.refined_alpha[0],
                              "estimate": "%.6f" % rep.refined_alpha[1]},
            "ranks": {str(k): v for k, v in sorted(rep.ranks.items())},
            "notes": rep.notes,
        }
        lines.append("trichotomy: %s (chi_pi=%d, alpha~%.4f)"
                     % (rep.tag, rep.chi_pi, rep.alpha_estimate))
    if args.plot:
        # --trichotomy without --of-cohomology has already modelled p
        if args.of_cohomology or not args.trichotomy:
            result = minimal_model(p, n)
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write("degree,rank\n")
            for k, v in sorted(result.ranks().items()):
                fh.write("%d,%d\n" % (k, v))
        lines.append("rank table written to %s" % args.plot)
    return 0, payload, "\n".join(lines) + "\n"


def cmd_elliptic_check(args):
    try:
        evens, odds = ([int(x) for x in text.split(",") if x.strip()]
                       for text in (args.evens, args.odds))
    except ValueError as exc:
        raise UsageError("--evens and --odds take comma-separated integers (%s)" % exc) from None
    ok, witness = elliptic_degrees_check(DegreeSequence(evens, odds))
    payload = {"schema": dsl.SCHEMA, "kind": "elliptic_check", "realizable": ok,
               "witness": witness}
    return 0, payload, "realizable: %s%s\n" % (ok, "" if ok else
                                                " (failing subsequence %s)" % witness)


def cmd_loopspace(args):
    doc = _load(args.file)
    p = doc.presentation(args.name)
    lp = free_loop_model(p)
    rep = cohomology(lp, 0, args.max)
    payload = {"schema": dsl.SCHEMA, "kind": "loopspace",
               "model": dsl.presentation_json(lp),
               "certified_degree": args.max,
               "betti": {str(k): rep.dim(k) for k in range(args.max + 1)}}
    text = dsl.serialize_presentation(lp) + "\n"
    text += "betti: %s\n" % json.dumps({str(k): rep.dim(k)
                                        for k in range(args.max + 1)}, sort_keys=True)
    return 0, payload, text


def cmd_fibration(args):
    if args.action != "pullback":
        raise RhtError("unknown fibration action %r" % args.action)
    doc = _load(args.file)
    total = doc.presentation(args.total)
    base_gens = [g.strip() for g in args.base.split(",") if g.strip()]
    ext = LambdaExtension(total, base_gens)
    phi = doc.morphism(args.along)
    out = pushout_extension(phi, ext)
    payload = {"schema": dsl.SCHEMA, "kind": "fibration_pullback",
               "total": dsl.presentation_json(out.total),
               "base": out.base_names, "fiber": out.fiber_names}
    return 0, payload, dsl.serialize_presentation(out.total) + "\n"


def cmd_config_space(args):
    doc = _load(args.file)
    if args.pd not in doc.pd_algebras:
        raise RhtError("no pd declaration named %r" % args.pd)
    pd = doc.pd_algebras[args.pd]
    model = config_space_model(pd, args.k)
    algebra = model if args.k == 1 else model.quotient       # F(A,1) = A
    validate(algebra).raise_if_invalid()
    window = args.max if args.max is not None else 2 * pd.m * args.k
    h = cohomology(algebra, 0, window)
    chi, exact = h.euler_characteristic()
    payload = {"schema": dsl.SCHEMA, "kind": "config_space", "k": args.k,
               "certified_degree": window,
               "euler_characteristic": {"value": chi, "exact": exact},
               "betti": {str(k): h.dim(k) for k in range(window + 1)}}
    if args.k == 1:
        return 0, payload, "F(A,1) = A itself\n"
    text = "F(%s,%d): valid (ideal differential-stable)\n" % (args.pd, args.k)
    text += "euler characteristic: %d%s\n" % (chi, " (exact)" if exact else " (window)")
    text += "betti: %s\n" % json.dumps({str(k): h.dim(k) for k in range(window + 1)},
                                       sort_keys=True)
    return 0, payload, text


def cmd_arrangement(args):
    doc = _load(args.file)
    if args.name not in doc.arrangements:
        raise RhtError("no arrangement named %r" % args.name)
    arr = doc.arrangements[args.name]
    D = arrangement_complex(arr)
    validate(D).raise_if_invalid()
    hi = max(D.max_degree(), 0) if args.max is None else args.max
    rep = cohomology(D, 0, hi)
    payload = {"schema": dsl.SCHEMA, "kind": "arrangement",
               "name": args.name, "certified_degree": hi, "certified_above": True,
               "betti": {str(k): rep.dim(k) for k in range(rep.lo, hi + 1)}}
    poincare = " + ".join("%d*t^%d" % (rep.dim(k), k)
                          for k in range(max(rep.lo, 0), hi + 1) if rep.dim(k))
    text = "subset complex of %s: %d subsets\n" % (args.name, 2 ** len(arr))
    text += "betti: %s\n" % json.dumps({str(k): rep.dim(k)
                                        for k in range(rep.lo, hi + 1)}, sort_keys=True)
    text += "poincare polynomial: %s\n" % (poincare or "0")
    return 0, payload, text


def cmd_catalog(args):
    obj = dsl.parse_catalog(args.spec)
    if isinstance(obj, SullivanPresentation):
        payload = dsl.presentation_json(obj)
        text = dsl.serialize_presentation(obj) + "\n"
    else:
        payload = dsl.finite_cdga_json(obj)
        text = dsl.to_json_text(payload)
    return 0, payload, text


def cmd_mapping_space(args):
    doc = _load(args.file)
    phi = doc.morphism(args.morphism)
    rep = mapping_space_pi(phi, args.n)
    payload = {"schema": dsl.SCHEMA, "kind": "mapping_space", "n": args.n,
               "dim": rep.dim,
               "contributing": [list(t) for t in rep.contributing]}
    return 0, payload, "dim pi_%d (x) Q of the mapping space: %d\n" % (args.n, rep.dim)


@functools.cache
def build_parser():
    """The argument parser, built once per process (parsing does not change it)."""
    ap = argparse.ArgumentParser(prog="rht",
                                 description="Sullivan-model computer algebra")
    seed_help = "accepted and ignored; all computations are deterministic"
    ap.add_argument("--seed", type=int, default=None, help=seed_help)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate every object in a file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("cohomology", help="exact Betti numbers over a window")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--max", type=int, default=12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("minimal-model", help="minimal Sullivan model")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--max", type=int, default=8)
    p.add_argument("--of-cohomology", type=int, default=None,
                   help="first replace the input by (H, 0) computed to this degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_minimal_model)

    p = sub.add_parser("homotopy", help="ranks, brackets, filtrations, hurewicz")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--ranks", type=int, default=None)
    p.add_argument("--brackets", type=int, default=None)
    p.add_argument("--filtration", type=int, default=None)
    p.add_argument("--hurewicz", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_homotopy)

    p = sub.add_parser("bch", help="Baker-Campbell-Hausdorff product in pi_1")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--class", dest="cls", type=int, default=None)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bch)

    p = sub.add_parser("invariants", help="toomer, cat, massey, tc, loop-betti, trichotomy")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--max", type=int, default=12)
    p.add_argument("--toomer", action="store_true")
    p.add_argument("--cat", action="store_true")
    p.add_argument("--massey", nargs=3, default=None)
    p.add_argument("--tc", action="store_true")
    p.add_argument("--loop-betti", type=int, default=None)
    p.add_argument("--trichotomy", action="store_true")
    p.add_argument("--of-cohomology", action="store_true")
    p.add_argument("--plot", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("elliptic-check", help="degree-sequence realization test")
    p.add_argument("--evens", default="")
    p.add_argument("--odds", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_elliptic_check)

    p = sub.add_parser("loopspace", help="free loop space model and Betti numbers")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--max", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_loopspace)

    p = sub.add_parser("fibration", help="pullback of a Lambda-extension")
    p.add_argument("action", choices=["pullback"])
    p.add_argument("file")
    p.add_argument("--total", required=True)
    p.add_argument("--base", required=True, help="comma-separated base generators")
    p.add_argument("--along", required=True, help="morphism name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fibration)

    p = sub.add_parser("config-space", help="Lambrechts-Stanley F(A,k)")
    p.add_argument("file")
    p.add_argument("--pd", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_config_space)

    p = sub.add_parser("arrangement", help="subset complex of an arrangement")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--max", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_arrangement)

    p = sub.add_parser("catalog", help="emit a catalog model")
    p.add_argument("spec", help="e.g. sphere(3) or product(sphere(2),sphere(3))")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("mapping-space", help="homology of the derivation complex")
    p.add_argument("file")
    p.add_argument("--morphism", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_mapping_space)

    # Also accept --seed after the subcommand; SUPPRESS keeps a value given
    # before it.
    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help=seed_help)
    return ap


NON_NEGATIVE = ("max", "of_cohomology", "ranks", "brackets",     # degree bounds: < 0 exits 2
                "filtration", "hurewicz", "loop_betti")


def main(argv=None):
    """Run one command: the only code in `rht` that writes stdout or stderr."""
    args = build_parser().parse_args(argv)
    try:
        for dest in NON_NEGATIVE:
            value = getattr(args, dest, None)
            if value is not None and value < 0:
                raise UsageError("--%s must be >= 0, got %d" % (dest.replace("_", "-"), value))
        code, payload, text = args.fn(args)
        sys.stdout.write(dsl.to_json_text(payload) if getattr(args, "json", False) else text)
        return code
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (RhtError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
