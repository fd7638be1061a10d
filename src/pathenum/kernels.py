"""Kernels for dense integer coefficient vectors.

A coefficient vector is a list of arbitrary-precision ints, index i holding
the coefficient of the i-th power.  Normal form: no trailing zeros, the zero
polynomial is the empty list.  OmegaPoly arithmetic in pathenum.algebra is
built on these functions.  A sum of products is one call to vdot, which
accumulates every product into one list and normalizes once, instead of a
vmul and a vadd, each with its own result list, per term.  vmul is a vdot
of one pair, except that a product with a monomial is a shift and a scale.
"""


def vnorm(c):
    """Strip trailing zeros of a list or a tuple: one new copy, of the input's type."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return c[:n]


def vadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    res = list(a)
    for i in range(len(b)):
        res[i] += b[i]
    return vnorm(res)


def vsub(a, b):
    res = list(a)
    if len(b) > len(res):
        res.extend([0] * (len(b) - len(res)))
    for i in range(len(b)):
        res[i] -= b[i]
    return vnorm(res)


def vneg(a):
    return [-x for x in a]


def vmul(a, b):
    """Full convolution product of two normalized vectors: one vdot.

    A product with a monomial c x^e (such as the weight w) is a shift and a
    scale, done in one pass.
    """
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if not any(a[:-1]):
        c = a[-1]
        return [0] * (len(a) - 1) + [c * y for y in b]
    return vdot(((a, b),))


def vdot(pairs):
    """Sum of the products a*b over an iterable of pairs of normalized vectors.

    Every product is added into one accumulator list, zero coefficients of
    the shorter factor are skipped (and +-1 ones add or subtract without a
    multiplication), and the total is normalized once.
    """
    acc = []
    for a, b in pairs:
        if not a or not b:
            continue
        if len(a) > len(b):
            a, b = b, a
        n = len(a) + len(b) - 1
        if len(acc) < n:
            acc.extend([0] * (n - len(acc)))
        for i, x in enumerate(a):
            if x == 1:
                for j, y in enumerate(b, i):
                    acc[j] += y
            elif x == -1:
                for j, y in enumerate(b, i):
                    acc[j] -= y
            elif x:
                for j, y in enumerate(b, i):
                    acc[j] += x * y
    while acc and not acc[-1]:
        acc.pop()
    return acc


def vscale(a, k):
    if not k:
        return []
    return [k * x for x in a]


def veval(a, x):
    """Horner evaluation at an integer point."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def vdivexact(a, b):
    """Quotient a // b when b divides a exactly over the integers.

    Returns the quotient vector, or None when the division leaves any
    remainder (including a non-integral intermediate quotient term).
    """
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    if len(a) < len(b):
        return None
    rem = list(a)
    nb = len(b)
    lead = b[nb - 1]
    q = [0] * (len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        top = rem[k + nb - 1]
        if not top:
            continue
        qk, r = divmod(top, lead)
        if r:
            return None
        q[k] = qk
        for i in range(nb):
            rem[k + i] -= qk * b[i]
    for x in rem:
        if x:
            return None
    return q


def vdivexact_int(a, k):
    """Divide every coefficient by the integer k; None if any is not divisible."""
    if k == 0:
        raise ZeroDivisionError("division by zero")
    out = []
    for x in a:
        q, r = divmod(x, k)
        if r:
            return None
        out.append(q)
    return out
