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
