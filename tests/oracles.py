"""Independent routes that the tests check the program against.

Addition in the packed-index groups, done the way the field once did it
for k > 1: split each index into its list of base-p digits, add or negate
digit by digit mod p, and pack the list again.  None of this shares code
with ``quasilee.fields.index_add``/``index_neg``, which the program uses
for every addition, so a test that compares the two does not check the
kernel against itself.
"""


def _digit_list(a: int, p: int, m: int) -> list:
    out = []
    for _ in range(m):
        out.append(a % p)
        a //= p
    return out


def _packed(digits, p: int) -> int:
    a = 0
    for c in reversed(digits):
        a = a * p + c
    return a


def field_add(ctx, a: int, b: int) -> int:
    """a + b in F_q, q = p**k, one coefficient at a time."""
    p, k = ctx.p, ctx.k
    return _packed([(x + y) % p for x, y in zip(_digit_list(a, p, k),
                                                _digit_list(b, p, k))], p)


def field_neg(ctx, a: int) -> int:
    """-a in F_q, one coefficient at a time."""
    return _packed([-x % ctx.p for x in _digit_list(a, ctx.p, ctx.k)], ctx.p)


def pair_add(ctx, z1: int, z2: int) -> int:
    """z1 + z2 in F_q x F_q, the pair (x, y) stored as x + q*y: the x and
    the y parts added apart by ``field_add``."""
    q = ctx.q
    return field_add(ctx, z1 % q, z2 % q) + q * field_add(ctx, z1 // q, z2 // q)


def pair_neg(ctx, z: int) -> int:
    """-z in F_q x F_q, both parts negated by ``field_neg``."""
    q = ctx.q
    return field_neg(ctx, z % q) + q * field_neg(ctx, z // q)
