"""Render src/spdo/_compiled_symbols.py from the symbol registry.

Usage (from anywhere; it imports spdo from the src/ next to this file):

    python3 tools/gen_compiled_symbols.py

For each registry symbol and each dimension 1..3 the module holds the
source of the symbol's evaluator, its separation (rank and source, or None)
and its x_independent and tw_independent flags, all rendered with sympy
(symbols._source) from registry._SYMBOL_TABLE.  registry.make_symbol
builds a registry symbol from them without importing sympy.  The families
of registry._FAMILY_TABLE are rendered the same way, with their parameters
p0, p1, .. left as free names, which registry.family_symbol binds to drawn
values.  Run this after changing a registry builder or upgrading sympy;
tests/test_registry.py fails while the checked-in module differs from a
fresh rendering.
"""

from __future__ import annotations

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
TARGET = SRC / "spdo" / "_compiled_symbols.py"
DIMS = (1, 2, 3)

HEADER = '''"""Generated by tools/gen_compiled_symbols.py; do not edit.

COMPILED[name, dim] = (source of the evaluator, (rank, source) of the
separation or None, x_independent, tw_independent) of each registry symbol
and family, rendered with sympy from registry._SYMBOL_TABLE and
registry._FAMILY_TABLE (a family's parameters p0, p1, .. left free).
"""

COMPILED = {
'''


def _text(source: str, indent: str) -> str:
    """source as adjacent string literals, one line each."""
    return "\n".join(indent + repr(line)
                     for line in source.splitlines(keepends=True))


def render() -> str:
    sys.path.insert(0, str(SRC))
    from spdo.registry import _FAMILY_TABLE, _SYMBOL_TABLE, _expr
    from spdo.symbols import _source, sp, symbol_from_expr

    entries = [(name, order, None)
               for name, (order, _, _) in _SYMBOL_TABLE.items()]
    entries += [(name, order, sp.symbols(f"p0:{count}"))
                for name, (order, count, _) in _FAMILY_TABLE.items()]
    out = [HEADER]
    for name, order, params in entries:
        for dim in DIMS:
            a = symbol_from_expr(_expr(name, dim, params), dim, order=order)
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
