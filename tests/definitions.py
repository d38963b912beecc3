"""Definitional predicates that tests compare the program against; they
share no code with src/."""


def admissible_by_definition(J, gamma, p):
    """Whether the shape J (indices mod f' = len(gamma)) lies in P_tau for
    the digits gamma: leaving J at i needs gamma_i != p-1; entering J at i
    needs gamma_i != 0."""
    fp = len(gamma)
    for i in range(fp):
        prev_in, cur_in = (i - 1) % fp in J, i in J
        if prev_in and not cur_in and gamma[i] == p - 1:
            return False
        if cur_in and not prev_in and gamma[i] == 0:
            return False
    return True


def gamma_by_definition(k0, k0p, p, fp):
    """The digits gamma with sum_j p^j gamma[i-j] = [k_i - k'_i] mod
    p^{f'} - 1, k_i = p^i k0.  At i = 0 this reads [k0 - k0p] =
    sum_j p^j gamma[-j], so gamma[-j] is the j-th base-p digit of
    [k0 - k0p]; the other indices follow by multiplying by p."""
    diff = (k0 - k0p) % (p ** fp - 1)
    digits = [diff // p ** j % p for j in range(fp)]
    return tuple(digits[-i % fp] for i in range(fp))


def gamma_star_by_definition(J, gamma, p):
    """gamma with the digit at i complemented to p-1-gamma_i where i-1 lies in J."""
    fp = len(gamma)
    return tuple(p - 1 - g if (i - 1) % fp in J else g for i, g in enumerate(gamma))


def twist_by_definition(J, gamma, p):
    """The twist sum T: over i with i-1 in J, (gamma_i + [i not in J]) times
    p^{f'-i}, mod p^{f'} - 1."""
    fp = len(gamma)
    return sum((gamma[i] + (i not in J)) * p ** ((fp - i) % fp)
               for i in range(fp) if (i - 1) % fp in J) % (p ** fp - 1)


def kext_count_by_definition(J, gamma_star, f):
    """The transitions (i-1, i), i = 0..f-1 (exactly one of i-1, i in J),
    whose twisted digit vanishes."""
    fp = len(gamma_star)
    return sum(1 for i in range(f)
               if ((i - 1) % fp in J) != (i in J) and gamma_star[i] == 0)
