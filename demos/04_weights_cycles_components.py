"""Serre weights of a type, descent characters, vanishing patterns and
component labels, and the integer cycle decomposition of every weight."""

from bktame import (CUSPIDAL, PS, LocalContext, all_weights, c_sigma_cycle,
                    char_TN, components_count, dieudonne_pattern,
                    divisor_support, jh_factors, make_type, p_tau,
                    sigma_tau_J, solve_n_tau, verify_orthogonality)

ctx = LocalContext(3, 1, 1)
tau = make_type(ctx, PS, 1, 0)

print("weights of ps:1,0 (dimensions sum to q + 1 = 4):")
for shape in p_tau(tau):
    w = sigma_tau_J(tau, shape)
    print("  J=%s -> %s, dim %d, descent exponent %d"
          % (sorted(shape.J), w.label(), w.dim, char_TN(tau, shape)))

tau_c = make_type(ctx, CUSPIDAL, 1)
print("\ncuspidal cusp:1 weight set (dimension q - 1 = 2):",
      [w.label() for w in jh_factors(tau_c)])

print("\nvanishing pattern and divisor supports of cusp:1:")
for J in ({0}, {1}):
    pat = dieudonne_pattern(tau_c, J)
    print("  J=%s: %s, divisor support %s"
          % (sorted(J), [tag for tag, _, _ in pat],
             sorted(divisor_support(tau_c, J))))
print("component labels:", components_count(tau_c))

print("\ninteger decomposition of every non-Steinberg weight:")
for w in all_weights(ctx):
    n = solve_n_tau(ctx, w)
    terms = " ".join("%+d[%s]" % (v, t.label()) for t, v in n.items())
    unit = c_sigma_cycle(n) == {w: 1}
    print("  %s = %s  (unit cycle: %s)" % (w.label(), terms, unit))
print("orthogonality of the full system:", verify_orthogonality(ctx))
print("type cycle of ps:1,0 (multiplicity one):",
      sorted(w.label() for w in jh_factors(tau)))
