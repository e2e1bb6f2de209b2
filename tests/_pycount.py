"""Reference scan for the counting kernel: tests every subset of {0..n-1}.

A constraint (pair_mask, result_mask) means: any subset containing all of
pair_mask must also intersect result_mask. This is the plain 2^n loop the
bit-parallel kernel in subsemi.kernel is tested against.
"""


def count_closed(n, constraints):
    """Number of subsets of {0..n-1} closed under every constraint."""
    if not constraints:
        return 1 << n
    cons = list(constraints)
    count = 0
    for s in range(1 << n):
        for pm, rb in cons:
            if s & pm == pm and not s & rb:
                break
        else:
            count += 1
    return count


def enumerate_closed(n, constraints):
    """Ascending list of all closed subsets as bitmasks."""
    cons = list(constraints)
    out = []
    for s in range(1 << n):
        for pm, rb in cons:
            if s & pm == pm and not s & rb:
                break
        else:
            out.append(s)
    return out
