"""Generated by tools/gen_compiled_symbols.py; do not edit.

COMPILED[name, dim] = (source of the evaluator, (rank, source) of the
separation or None, x_independent, tw_independent) of each registry symbol
and family, rendered with sympy from registry._SYMBOL_TABLE and
registry._FAMILY_TABLE (a family's parameters p0, p1, .. left free).
"""

COMPILED = {
    ('identity', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return 1\n',
        (1,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [1, 1]\n'),
        True, True),
    ('identity', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return 1\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [1, 1]\n'),
        True, True),
    ('identity', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return 1\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [1, 1]\n'),
        True, True),
    ('xi', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return xi1\n',
        (1,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [1, xi1]\n'),
        True, True),
    ('xi', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return xi1\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [1, xi1]\n'),
        True, True),
    ('xi', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return xi1\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [1, xi1]\n'),
        True, True),
    ('laplacian', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return xi1**2\n',
        (1,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [1, xi1**2]\n'),
        True, True),
    ('laplacian', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return xi1**2 + xi2**2\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [1, xi1**2 + xi2**2]\n'),
        True, True),
    ('laplacian', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return xi1**2 + xi2**2 + xi3**2\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [1, xi1**2 + xi2**2 + xi3**2]\n'),
        True, True),
    ('bessel1', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return sqrt(xi1**2 + 1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [1, sqrt(xi1**2 + 1)]\n'),
        True, True),
    ('bessel1', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return sqrt(xi1**2 + xi2**2 + 1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [1, sqrt(xi1**2 + xi2**2 + 1)]\n'),
        True, True),
    ('bessel1', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return sqrt(xi1**2 + xi2**2 + xi3**2 + 1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [1, sqrt(xi1**2 + xi2**2 + xi3**2 + 1)]\n'),
        True, True),
    ('elliptic-1', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return xi1**2 + 1\n',
        (1,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [1, xi1**2 + 1]\n'),
        True, True),
    ('elliptic-1', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return xi1**2 + xi2**2 + 1\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [1, xi1**2 + xi2**2 + 1]\n'),
        True, True),
    ('elliptic-1', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return xi1**2 + xi2**2 + xi3**2 + 1\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [1, xi1**2 + xi2**2 + xi3**2 + 1]\n'),
        True, True),
    ('sgn-smoothed', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return xi1/sqrt(xi1**2 + 1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [1, xi1/sqrt(xi1**2 + 1)]\n'),
        True, True),
    ('sgn-smoothed', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return xi1/sqrt(xi1**2 + xi2**2 + 1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [1, xi1/sqrt(xi1**2 + xi2**2 + 1)]\n'),
        True, True),
    ('sgn-smoothed', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return xi1/sqrt(xi1**2 + xi2**2 + xi3**2 + 1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [1, xi1/sqrt(xi1**2 + xi2**2 + xi3**2 + 1)]\n'),
        True, True),
    ('mod-x', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return (1/2)*sin(x1) + 1\n',
        (1,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [(1/2)*sin(x1) + 1, 1]\n'),
        False, True),
    ('mod-x', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return (1/2)*sin(x1) + 1\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [(1/2)*sin(x1) + 1, 1]\n'),
        False, True),
    ('mod-x', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return (1/2)*sin(x1) + 1\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [(1/2)*sin(x1) + 1, 1]\n'),
        False, True),
    ('mixed-0', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return xi1**2*cos(x1)/(xi1**2 + 1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [cos(x1), xi1**2/(xi1**2 + 1)]\n'),
        False, True),
    ('mixed-0', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return (xi1**2 + xi2**2)*cos(x1)/(xi1**2 + xi2**2 + 1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [cos(x1), xi1**2/(xi1**2 + xi2**2 + 1) + xi2**2/(xi1**2 + xi2**2 + 1)]\n'),
        False, True),
    ('mixed-0', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return (xi1**2 + xi2**2 + xi3**2)*cos(x1)/(xi1**2 + xi2**2 + xi3**2 + 1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [cos(x1), xi1**2/(xi1**2 + xi2**2 + xi3**2 + 1) + xi2**2/(xi1**2 + xi2**2 + xi3**2 + 1) + xi3**2/(xi1**2 + xi2**2 + xi3**2 + 1)]\n'),
        False, True),
    ('drift-wave', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return xi1*sin(x1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [sin(x1), xi1]\n'),
        False, True),
    ('drift-wave', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return xi1*sin(x1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [sin(x1), xi1]\n'),
        False, True),
    ('drift-wave', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return xi1*sin(x1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [sin(x1), xi1]\n'),
        False, True),
    ('garding-stochastic', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return xi1**2*((1/10)*sin(w) + sin(x1) + 2)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [(1/10)*sin(w) + sin(x1) + 2, xi1**2]\n'),
        False, False),
    ('garding-stochastic', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return (xi1**2 + xi2**2)*((1/10)*sin(w) + sin(x1) + 2)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [(1/10)*sin(w) + sin(x1) + 2, xi1**2 + xi2**2]\n'),
        False, False),
    ('garding-stochastic', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return (xi1**2 + xi2**2 + xi3**2)*((1/10)*sin(w) + sin(x1) + 2)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [(1/10)*sin(w) + sin(x1) + 2, xi1**2 + xi2**2 + xi3**2]\n'),
        False, False),
    ('parametrix-demo', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return (xi1**2 + 1)*(sin(x1)**2 + 1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [sin(x1)**2 + 1, xi1**2 + 1]\n'),
        False, True),
    ('parametrix-demo', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return (sin(x1)**2 + 1)*(xi1**2 + xi2**2 + 1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [sin(x1)**2 + 1, xi1**2 + xi2**2 + 1]\n'),
        False, True),
    ('parametrix-demo', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return (sin(x1)**2 + 1)*(xi1**2 + xi2**2 + xi3**2 + 1)\n',
        (1,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [sin(x1)**2 + 1, xi1**2 + xi2**2 + xi3**2 + 1]\n'),
        False, True),
    ('trig-order-1', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return p0 + p1*sin(x1) + p2*cos(x1) + xi1*(p3 + p4*cos(x1))\n',
        (2,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [p0 + p1*sin(x1) + p2*cos(x1), p3 + p4*cos(x1), 1, xi1]\n'),
        False, True),
    ('trig-order-1', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return p0 + p1*sin(x1) + p2*cos(x1) + xi1*(p3 + p4*cos(x1))\n',
        (2,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [p0 + p1*sin(x1) + p2*cos(x1), p3 + p4*cos(x1), 1, xi1]\n'),
        False, True),
    ('trig-order-1', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return p0 + p1*sin(x1) + p2*cos(x1) + xi1*(p3 + p4*cos(x1))\n',
        (2,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [p0 + p1*sin(x1) + p2*cos(x1), p3 + p4*cos(x1), 1, xi1]\n'),
        False, True),
    ('trig-poly-3', 1): (
        'def _lambdifygenerated(t, w, x1, xi1):\n'
        '    return p0 + p1*sin(x1) + p10*xi1**3*sin(x1) + p11*xi1**3*cos(x1) + p2*cos(x1) + p3*xi1 + p4*xi1*sin(x1) + p5*xi1*cos(x1) + p6*xi1**2 + p7*xi1**2*sin(x1) + p8*xi1**2*cos(x1) + p9*xi1**3\n',
        (4,
         'def _lambdifygenerated(t, w, x1, xi1):\n'
         '    return [p0 + p1*sin(x1) + p2*cos(x1), p3 + p4*sin(x1) + p5*cos(x1), p6 + p7*sin(x1) + p8*cos(x1), p10*sin(x1) + p11*cos(x1) + p9, 1, xi1, xi1**2, xi1**3]\n'),
        False, True),
    ('trig-poly-3', 2): (
        'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
        '    return p0 + p1*sin(x1) + p10*xi1**3*sin(x1) + p11*xi1**3*cos(x1) + p2*cos(x1) + p3*xi1 + p4*xi1*sin(x1) + p5*xi1*cos(x1) + p6*xi1**2 + p7*xi1**2*sin(x1) + p8*xi1**2*cos(x1) + p9*xi1**3\n',
        (4,
         'def _lambdifygenerated(t, w, x1, x2, xi1, xi2):\n'
         '    return [p0 + p1*sin(x1) + p2*cos(x1), p3 + p4*sin(x1) + p5*cos(x1), p6 + p7*sin(x1) + p8*cos(x1), p10*sin(x1) + p11*cos(x1) + p9, 1, xi1, xi1**2, xi1**3]\n'),
        False, True),
    ('trig-poly-3', 3): (
        'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
        '    return p0 + p1*sin(x1) + p10*xi1**3*sin(x1) + p11*xi1**3*cos(x1) + p2*cos(x1) + p3*xi1 + p4*xi1*sin(x1) + p5*xi1*cos(x1) + p6*xi1**2 + p7*xi1**2*sin(x1) + p8*xi1**2*cos(x1) + p9*xi1**3\n',
        (4,
         'def _lambdifygenerated(t, w, x1, x2, x3, xi1, xi2, xi3):\n'
         '    return [p0 + p1*sin(x1) + p2*cos(x1), p3 + p4*sin(x1) + p5*cos(x1), p6 + p7*sin(x1) + p8*cos(x1), p10*sin(x1) + p11*cos(x1) + p9, 1, xi1, xi1**2, xi1**3]\n'),
        False, True),
}
