"""Render src/spdo/_compiled_symbols.py from the symbol registry.

Usage (from anywhere; it imports spdo from the src/ next to this file):

    python3 tools/gen_compiled_symbols.py

For each registry symbol and each dimension 1..3 the module holds the
lambdify source of the symbol's evaluator, its separation (rank and source,
or None) and its x_independent and tw_independent flags, all rendered with
sympy from registry._SYMBOL_TABLE.  registry.make_symbol builds a registry
symbol from them without importing sympy.  Run this after changing a
registry builder or upgrading sympy; tests/test_registry.py fails while the
checked-in module differs from a fresh rendering.
"""

from __future__ import annotations

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
TARGET = SRC / "spdo" / "_compiled_symbols.py"
DIMS = (1, 2, 3)

HEADER = '''"""Generated by tools/gen_compiled_symbols.py; do not edit.

COMPILED[name, dim] = (lambdify source of the evaluator, (rank, source) of
the separation or None, x_independent, tw_independent) of each registry
symbol, rendered with sympy from registry._SYMBOL_TABLE.
"""

COMPILED = {
'''


def _text(source: str, indent: str) -> str:
    """source as adjacent string literals, one line each."""
    return "\n".join(indent + repr(line)
                     for line in source.splitlines(keepends=True))


def render() -> str:
    sys.path.insert(0, str(SRC))
    from spdo.registry import _SYMBOL_TABLE, _expr
    from spdo.symbols import _source, symbol_from_expr

    out = [HEADER]
    for name, (order, _, _) in _SYMBOL_TABLE.items():
        for dim in DIMS:
            a = symbol_from_expr(_expr(name, dim), dim, order=order)
            sep = a._separation()
            out.append(f"    {(name, dim)!r}: (\n"
                       f"{_text(_source(a.expr, dim, a._vars), ' ' * 8)},\n")
            if sep is None:
                out.append("        None,\n")
            else:
                out.append(f"        ({sep[0]},\n{_text(sep[1], ' ' * 9)}),\n")
            out.append(f"        {a.x_independent}, {a.tw_independent}),\n")
    out.append("}\n")
    return "".join(out)


if __name__ == "__main__":
    TARGET.write_text(render())
    print(f"wrote {TARGET}")
