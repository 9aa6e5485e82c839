"""Parser and pretty-printer for bracket expressions over a model's
defining fields.

Grammar:  expr := "[" expr "," expr "]" | "ad^" INT "(" expr ")" "(" expr ")"
                 | "(" term ("+" term)* ")" | atom
          term := expr | INT "*" "(" expr ")"
Atoms name the drift ("X0"), a noise field by index ("X1", "X2", ...),
or, for the spectral Burgers models, a coordinate field by wavevector:
X(1,0), Y(1,0) for the incompressible real/imaginary directions and
Xt(1,0), Yt(1,0) for the compressible ones.  The closure writes every
derivation it reports in this language, so `parse_bracket` re-derives it.
"""

from __future__ import annotations

import re

from .models import ModelSpec
from .polyfield import PolyVectorField, lie_bracket


class BracketParseError(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(\[|\]|,|\(|\)|\+|\*|ad\^\d+|Xt|Yt|X\d+|X|Y|-?\d+)"
)
_INT = re.compile(r"-?\d+")
# Brackets of nonconstant fields grow without bound, in degree and in
# coefficient length: the products of operand sizes that one expression may
# spend on brackets, about a second of exact arithmetic on the small builtins
_BRACKET_WORK = 100_000


def _size(V: PolyVectorField) -> int:
    """Terms of V, each weighted by its coefficient's length in 64-bit words."""
    return sum(1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 64
               for p in V.components for c in p.terms.values())


def _tokenize(expr: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if not m:
            if expr[pos:].strip():
                raise BracketParseError(f"unexpected input at {expr[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], model: ModelSpec):
        self.tokens = tokens
        self.pos = 0
        self.model = model
        self.work = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise BracketParseError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> PolyVectorField:
        out = self.expr()
        if self.peek() is not None:
            raise BracketParseError(f"trailing tokens: {self.tokens[self.pos:]}")
        return out

    def expr(self) -> PolyVectorField:
        tok = self.peek()
        if tok == "[":
            self.take("[")
            a = self.expr()
            self.take(",")
            b = self.expr()
            self.take("]")
            return self.bracket(a, b)
        if tok and tok.startswith("ad^"):
            m = int(self.take()[3:])
            a, out = self.group(), self.group()
            while m and not out.is_zero():  # a zero iterate stays zero
                out, m = self.bracket(a, out), m - 1
            return out
        if tok == "(":
            self.take("(")
            out = self.term()
            while self.peek() == "+":
                self.take("+")
                out = out + self.term()
            self.take(")")
            return out
        return self.atom()

    def bracket(self, a: PolyVectorField, b: PolyVectorField) -> PolyVectorField:
        self.work += _size(a) * _size(b)
        if self.work > _BRACKET_WORK:
            raise BracketParseError(f"expression too large (bracket budget {_BRACKET_WORK})")
        return lie_bracket(a, b)

    def term(self) -> PolyVectorField:
        if not _INT.fullmatch(self.peek() or ""):
            return self.expr()
        c = self.integer()
        self.take("*")
        return self.group().scale(c)

    def group(self) -> PolyVectorField:
        self.take("(")
        out = self.expr()
        self.take(")")
        return out

    def atom(self) -> PolyVectorField:
        tok = self.take()
        if re.fullmatch(r"X\d+", tok):
            idx = int(tok[1:])
            if idx == 0:
                return self.model.drift
            if idx > self.model.r:
                raise BracketParseError(
                    f"{tok}: model has only {self.model.r} noise fields"
                )
            return PolyVectorField.from_constant(self.model.noise[idx - 1])
        if tok in ("X", "Y", "Xt", "Yt"):
            layout = self.model.layout
            if layout is None:
                raise BracketParseError(
                    f"{tok}(k1,k2) fields need --builtin burgers; model JSON has no layout"
                )
            self.take("(")
            k1 = self.integer()
            self.take(",")
            k2 = self.integer()
            self.take(")")
            if (k1, k2) not in layout.modes:
                raise BracketParseError(f"{tok}({k1},{k2}): mode outside the truncation")
            part = {"X": "re_w", "Y": "im_w", "Xt": "re_q", "Yt": "im_q"}[tok]
            return PolyVectorField.from_constant(layout.unit((k1, k2), part))
        raise BracketParseError(f"unknown atom {tok!r}")

    def integer(self) -> int:
        tok = self.take()
        if not _INT.fullmatch(tok):
            raise BracketParseError(f"expected an integer, got {tok!r}")
        return int(tok)


def parse_bracket(expr: str, model: ModelSpec) -> PolyVectorField:
    return _Parser(_tokenize(expr), model).parse()


def pretty_field(V: PolyVectorField, model: ModelSpec) -> str:
    """Render a field; constants in spectral models print as linear
    combinations of the named coordinate fields."""
    layout = model.layout
    if layout is not None and V.is_constant():
        value = V.constant_value()
        parts = []
        names = {"re_w": "X", "im_w": "Y", "re_q": "Xt", "im_q": "Yt"}
        for k in layout.modes:
            for part, sym in names.items():
                c = value[layout.coord(k, part)]
                if c != 0:
                    coeff = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                    parts.append(f"{coeff}{sym}({k[0]},{k[1]})")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"
    if V.is_constant():
        return "(" + ", ".join(str(c) for c in V.constant_value()) + ")"
    return "(" + ", ".join(repr(p) for p in V.components) + ")"
