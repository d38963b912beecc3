"""Closed-form extension dimensions against their brute-force oracles,
including the exceptional kernel-Ext branch and the dimension bound for
irreducible enrichments."""

from bktame import (CUSPIDAL, PS, LocalContext, build_MN, ext_dim, hom_dim,
                    irred_bound, kext_dim, kext_dim_oracle, make_type,
                    maximal_refined, oracle_dims, validate)

ctx = LocalContext(3, 1, 1)
tau = make_type(ctx, PS, 1, 0)
m, n = build_MN(tau, maximal_refined(tau, {0}))
ext_o, hom_o = oracle_dims(m, n)
print("principal-series maximal pair of shape {0}:")
print("  ext formula %d vs oracle %d" % (ext_dim(m, n), ext_o))
print("  hom formula %d vs oracle %d" % (hom_dim(m, n), hom_o))

# Twisting one unramified coefficient kills the Hom contribution.  A
# coefficient is its index in the module's own field, here GF(3).
n_twist = validate(ctx, PS, n.r, (2,), n.c)
print("  after twisting N: ext %d vs oracle %d"
      % (ext_dim(m, n_twist), oracle_dims(m, n_twist)[0]))

# The kernel-Ext count for cuspidal types, with its exceptional branch:
# at equal unramified products and e = 1 an all-transition shape drops
# from f to f - 1.  The brute-force principal-part solver agrees.
tau_c = make_type(ctx, CUSPIDAL, 1)
m0, n0 = build_MN(tau_c, maximal_refined(tau_c, {0}))
F = ctx.coefficient_field(CUSPIDAL)
gen = F.multiplicative_generator()
n0g = validate(ctx, CUSPIDAL, n0.r, (gen, gen), n0.c)
print("\ncuspidal shape {0} (inadmissible, all transitions):")
print("  equal products:    kext %d vs oracle %d"
      % (kext_dim(tau_c, {0}, 1, 1), kext_dim_oracle(m0, n0)))
print("  distinct products: kext %d vs oracle %d"
      % (kext_dim(tau_c, {0}, 1, gen), kext_dim_oracle(m0, n0g)))

# The same pair admits a nonzero map to the conjugate twist, so the
# irreducible-locus dimension bound applies.
res = irred_bound(m0, n0)
print("\nirreducible-locus bound: exponent gaps x=%s, D=%d <= cap=%d"
      % (res["x"], res["D"], res["cap"]))
