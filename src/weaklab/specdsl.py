"""Task-definition language: declare a bit-string space, predicates as
propositional formulas over its bits, optionally an explicit statement
universe, and named tasks.

Format (UTF-8, '#' starts a line comment):

    width 3;
    pred p := b0 & !b1;          # b0 is the leftmost bit
    statement m1 = {p, q};       # explicit universe (optional)
    task alpha {
      situations { {p}, 01- }    # names, inline sets, or bit patterns
      decisions { m1 }
    }

Connectives ! & | with precedence ! > & > |; unicode aliases are accepted.
Digits are ASCII only, in widths, bit indices, patterns and names.
Bit patterns have one character per position ('0', '1' or '-'); each fixed
position is resolved to the predicate whose truth table is exactly that bit
literal.  The printer emits a canonical form; parse(print(doc)) is
structurally the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .errors import WeaklabError
from .lattice import (
    DEFAULT_LANGUAGE_CAP,
    Language,
    Predicate,
    StateSpace,
    Statement,
    Vocabulary,
)
from .tasks import VTask, make_task

MAX_WIDTH = 16


class SpecError(WeaklabError):
    """Parse or compile failure, with 1-based location."""

    def __init__(self, message: str, line: int, col: int, category: str = "syntax"):
        super().__init__(f"{line}:{col}: {category}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.category = category


class CompileError(SpecError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(message, line, col, category="compile")


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class BitRef:
    index: int
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Not:
    arg: "Expr"
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class And:
    lhs: "Expr"
    rhs: "Expr"
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Or:
    lhs: "Expr"
    rhs: "Expr"
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


Expr = BitRef | Not | And | Or


@dataclass(frozen=True)
class NameElem:
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SetElem:
    members: tuple[str, ...]  # canonical: predicate definition order
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class PatternElem:
    text: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


Elem = NameElem | SetElem | PatternElem


@dataclass(frozen=True)
class PredDef:
    name: str
    expr: Expr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class StatementDef:
    name: str
    members: tuple[str, ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class TaskDef:
    name: str
    situations: tuple[Elem, ...]
    decisions: tuple[Elem, ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SpecDocument:
    width: int
    preds: tuple[PredDef, ...]
    statements: tuple[StatementDef, ...]
    tasks: tuple[TaskDef, ...]

    @property
    def explicit(self) -> bool:
        return bool(self.statements)


# ---------------------------------------------------------------------------
# lexer


_PUNCT = {";", "=", "{", "}", "(", ")", ",", "!", "&", "|"}
_ALIASES = {"¬": "!", "∧": "&", "∨": "|"}


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'name' | 'int' | 'pattern' | punctuation | ':=' | 'eof'
    text: str
    line: int
    col: int


# ASCII only: str.isdigit() also accepts digits such as '²' that int() rejects
_DIGITS = frozenset("0123456789")


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in _ALIASES:
            toks.append(_Tok(_ALIASES[ch], _ALIASES[ch], line, col))
            i += 1
            col += 1
            continue
        if ch == ":":
            if i + 1 < n and text[i + 1] == "=":
                toks.append(_Tok(":=", ":=", line, col))
                i += 2
                col += 2
                continue
            raise SpecError("expected ':='", line, col, "lexical")
        if ch in _PUNCT:
            toks.append(_Tok(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS or ch == "-":
            j = i
            while j < n and (text[j] in _DIGITS or text[j] == "-"):
                j += 1
            run = text[i:j]
            if "-" in run:
                if set(run) <= {"0", "1", "-"}:
                    toks.append(_Tok("pattern", run, line, col))
                else:
                    raise SpecError(
                        f"malformed bit pattern {run!r}", line, col, "lexical"
                    )
            else:
                toks.append(_Tok("int", run, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalpha() or text[j] in _DIGITS or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise SpecError(f"unexpected character {ch!r}", start_line, start_col, "lexical")
    toks.append(_Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# parser


_KEYWORDS = {"width", "pred", "statement", "task", "situations", "decisions"}


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise SpecError(
                f"expected {what or kind}, found {t.text!r}" if t.text else
                f"expected {what or kind}, found end of input",
                t.line,
                t.col,
            )
        return self.next()

    def parse_document(self) -> SpecDocument:
        width: int | None = None
        width_tok: _Tok | None = None
        preds: list[PredDef] = []
        statements: list[StatementDef] = []
        tasks: list[TaskDef] = []
        names: dict[str, str] = {}  # name -> 'pred' | 'statement' | 'task'

        def need_width(tok: _Tok) -> int:
            if width is None:
                raise SpecError(
                    "width must be declared before this", tok.line, tok.col
                )
            return width

        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "name":
                raise SpecError(f"expected declaration, found {t.text!r}", t.line, t.col)
            if t.text == "width":
                self.next()
                if width is not None:
                    raise SpecError("duplicate width declaration", t.line, t.col)
                num = self.expect("int", "width value")
                width = int(num.text)
                width_tok = num
                if not 1 <= width <= MAX_WIDTH:
                    raise SpecError(
                        f"width must be between 1 and {MAX_WIDTH}",
                        num.line,
                        num.col,
                        "width-violation",
                    )
                self.expect(";")
            elif t.text == "pred":
                self.next()
                name = self._decl_name(names, "pred")
                self.expect(":=")
                expr = self._expr(need_width(t), {p.name for p in preds})
                self.expect(";")
                preds.append(PredDef(name.text, expr, (name.line, name.col)))
                names[name.text] = "pred"
            elif t.text == "statement":
                self.next()
                need_width(t)
                name = self._decl_name(names, "statement")
                self.expect("=")
                members = self._name_set({p.name for p in preds})
                self.expect(";")
                statements.append(
                    StatementDef(
                        name.text,
                        _canonical_members(members, preds),
                        (name.line, name.col),
                    )
                )
                names[name.text] = "statement"
            elif t.text == "task":
                self.next()
                need_width(t)
                name = self._decl_name(names, "task")
                self.expect("{")
                kw = self.expect("name", "'situations'")
                if kw.text != "situations":
                    raise SpecError("expected 'situations'", kw.line, kw.col)
                situations = self._elems(width, preds, names)
                kw = self.expect("name", "'decisions'")
                if kw.text != "decisions":
                    raise SpecError("expected 'decisions'", kw.line, kw.col)
                decisions = self._elems(width, preds, names)
                self.expect("}")
                tasks.append(
                    TaskDef(name.text, situations, decisions, (name.line, name.col))
                )
                names[name.text] = "task"
            else:
                raise SpecError(
                    f"unknown declaration {t.text!r}", t.line, t.col
                )
        if width is None:
            t = self.peek()
            raise SpecError("missing width declaration", t.line, t.col)
        return SpecDocument(width, tuple(preds), tuple(statements), tuple(tasks))

    def _decl_name(self, names: dict[str, str], kind: str) -> _Tok:
        t = self.expect("name", f"{kind} name")
        if t.text in _KEYWORDS:
            raise SpecError(f"{t.text!r} is a keyword", t.line, t.col)
        if _bit_index(t.text) is not None:
            raise SpecError(
                f"{t.text!r} is reserved for bit references", t.line, t.col
            )
        if t.text in names:
            raise SpecError(
                f"duplicate name {t.text!r} (already a {names[t.text]})",
                t.line,
                t.col,
            )
        return t

    # expression parsing, precedence ! > & > |

    def _expr(self, width: int, defined: set[str]) -> Expr:
        return self._or(width, defined)

    def _or(self, width: int, defined: set[str]) -> Expr:
        e = self._and(width, defined)
        while self.peek().kind == "|":
            t = self.next()
            e = Or(e, self._and(width, defined), (t.line, t.col))
        return e

    def _and(self, width: int, defined: set[str]) -> Expr:
        e = self._not(width, defined)
        while self.peek().kind == "&":
            t = self.next()
            e = And(e, self._not(width, defined), (t.line, t.col))
        return e

    def _not(self, width: int, defined: set[str]) -> Expr:
        t = self.peek()
        if t.kind == "!":
            self.next()
            return Not(self._not(width, defined), (t.line, t.col))
        return self._atom(width, defined)

    def _atom(self, width: int, defined: set[str]) -> Expr:
        t = self.peek()
        if t.kind == "(":
            self.next()
            e = self._expr(width, defined)
            self.expect(")")
            return e
        if t.kind == "name":
            idx = _bit_index(t.text)
            if idx is None:
                raise SpecError(
                    f"undefined name {t.text!r} in formula (only bit references "
                    "b0..b{width-1} are allowed)",
                    t.line,
                    t.col,
                    "undefined-name",
                )
            if idx >= width:
                raise SpecError(
                    f"bit {t.text} out of range for width {width}",
                    t.line,
                    t.col,
                    "width-violation",
                )
            self.next()
            return BitRef(idx, (t.line, t.col))
        raise SpecError(f"expected formula atom, found {t.text!r}", t.line, t.col)

    def _name_set(self, defined: set[str]) -> list[_Tok]:
        self.expect("{")
        out: list[_Tok] = []
        if self.peek().kind == "}":
            self.next()
            return out
        while True:
            t = self.expect("name", "predicate name")
            if t.text not in defined:
                raise SpecError(
                    f"undefined predicate {t.text!r}", t.line, t.col, "undefined-name"
                )
            out.append(t)
            if self.peek().kind == ",":
                self.next()
                continue
            self.expect("}")
            return out

    def _elems(
        self, width: int, preds: list[PredDef], names: dict[str, str]
    ) -> tuple[Elem, ...]:
        self.expect("{")
        out: list[Elem] = []
        defined = {p.name for p in preds}
        while self.peek().kind != "}":
            t = self.peek()
            if t.kind == "{":
                members = self._name_set(defined)
                out.append(
                    SetElem(_canonical_members(members, preds), (t.line, t.col))
                )
            elif t.kind in ("pattern", "int"):
                self.next()
                if not set(t.text) <= {"0", "1", "-"}:
                    raise SpecError(
                        f"malformed bit pattern {t.text!r}", t.line, t.col
                    )
                if len(t.text) != width:
                    raise SpecError(
                        f"pattern {t.text!r} has {len(t.text)} positions, "
                        f"width is {width}",
                        t.line,
                        t.col,
                        "width-violation",
                    )
                out.append(PatternElem(t.text, (t.line, t.col)))
            elif t.kind == "name":
                self.next()
                if names.get(t.text) != "statement":
                    raise SpecError(
                        f"{t.text!r} is not a declared statement",
                        t.line,
                        t.col,
                        "undefined-name",
                    )
                out.append(NameElem(t.text, (t.line, t.col)))
            else:
                raise SpecError(
                    f"expected statement name, inline set or bit pattern, "
                    f"found {t.text!r}",
                    t.line,
                    t.col,
                )
            if self.peek().kind == ",":
                self.next()
        self.expect("}")
        if not out:
            t = self.peek()
            raise SpecError("empty element list", t.line, t.col)
        return tuple(out)


def _bit_index(name: str) -> int | None:
    if len(name) >= 2 and name[0] == "b" and all(c in _DIGITS for c in name[1:]):
        return int(name[1:])
    return None


def _canonical_members(toks: list[_Tok], preds: list[PredDef]) -> tuple[str, ...]:
    order = {p.name: i for i, p in enumerate(preds)}
    seen = set()
    members = []
    for t in toks:
        if t.text in seen:
            raise SpecError(f"duplicate member {t.text!r}", t.line, t.col)
        seen.add(t.text)
        members.append(t.text)
    return tuple(sorted(members, key=order.__getitem__))


def parse(text: str) -> SpecDocument:
    """Parse and validate; the first error is raised with its location."""
    return _Parser(_lex(text)).parse_document()


# ---------------------------------------------------------------------------
# printer


_PREC = {Or: 1, And: 2, Not: 3, BitRef: 4}


def _print_expr(e: Expr, parent_prec: int = 0, right: bool = False) -> str:
    prec = _PREC[type(e)]
    if isinstance(e, BitRef):
        s = f"b{e.index}"
    elif isinstance(e, Not):
        s = "!" + _print_expr(e.arg, prec)
    else:
        op = " & " if isinstance(e, And) else " | "
        s = _print_expr(e.lhs, prec) + op + _print_expr(e.rhs, prec, right=True)
    if prec < parent_prec or (right and prec == parent_prec):
        return "(" + s + ")"
    return s


def print_document(doc: SpecDocument) -> str:
    """Canonical text; byte-stable and reparseable to an equal document."""
    lines = [f"width {doc.width};"]
    if doc.preds:
        lines.append("")
        for p in doc.preds:
            lines.append(f"pred {p.name} := {_print_expr(p.expr)};")
    if doc.statements:
        lines.append("")
        for s in doc.statements:
            lines.append(f"statement {s.name} = {{{', '.join(s.members)}}};")
    for t in doc.tasks:
        lines.append("")
        lines.append(f"task {t.name} {{")
        lines.append(f"  situations {{ {_print_elems(t.situations)} }}")
        lines.append(f"  decisions {{ {_print_elems(t.decisions)} }}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _print_elems(elems: tuple[Elem, ...]) -> str:
    parts = []
    for e in elems:
        if isinstance(e, NameElem):
            parts.append(e.name)
        elif isinstance(e, SetElem):
            parts.append("{" + ", ".join(e.members) + "}")
        else:
            parts.append(e.text)
    return ", ".join(parts)


# ---------------------------------------------------------------------------
# compiler


@dataclass
class CompiledSpec:
    doc: SpecDocument
    language: Language
    tasks: dict[str, VTask]


def _eval_mask(e: Expr, width: int) -> int:
    """Truth table of a formula as a state bitmask (bit s = state s).

    Bit position i (leftmost 0) of state s has value (s >> (width-1-i)) & 1.
    """
    full = (1 << (1 << width)) - 1
    if isinstance(e, BitRef):
        j = width - 1 - e.index
        mask = 0
        for s in range(1 << width):
            if s >> j & 1:
                mask |= 1 << s
        return mask
    if isinstance(e, Not):
        return full & ~_eval_mask(e.arg, width)
    if isinstance(e, And):
        return _eval_mask(e.lhs, width) & _eval_mask(e.rhs, width)
    return _eval_mask(e.lhs, width) | _eval_mask(e.rhs, width)


def evaluate(e: Expr, width: int, state: int) -> bool:
    """Pointwise evaluation; the independent route against _eval_mask."""
    if isinstance(e, BitRef):
        return bool(state >> (width - 1 - e.index) & 1)
    if isinstance(e, Not):
        return not evaluate(e.arg, width, state)
    if isinstance(e, And):
        return evaluate(e.lhs, width, state) and evaluate(e.rhs, width, state)
    return evaluate(e.lhs, width, state) or evaluate(e.rhs, width, state)


def compile_document(
    doc: SpecDocument, cap: int = DEFAULT_LANGUAGE_CAP
) -> CompiledSpec:
    """Build the language and the named tasks of a parsed document."""
    width = doc.width
    space = StateSpace.bits(width)
    n_states = 1 << width
    preds = [Predicate(p.name, _eval_mask(p.expr, width)) for p in doc.preds]
    vocab = Vocabulary(tuple(preds))
    index = {p.name: i for i, p in enumerate(doc.preds)}

    def to_statement(names: tuple[str, ...]) -> Statement:
        return Statement.of(index[n] for n in names)

    if doc.explicit:
        by_name: dict[str, Statement] = {}
        bodies: dict[tuple[int, ...], str] = {}
        listed = []
        for sd in doc.statements:
            s = to_statement(sd.members)
            bits = (1 << n_states) - 1
            for i in s.members:
                bits &= preds[i].truth
            if not bits:
                raise CompileError(
                    f"statement {sd.name!r} = "
                    f"{{{', '.join(sd.members)}}} is unsatisfiable",
                    *sd.pos,
                )
            if s.members in bodies:
                raise CompileError(
                    f"statement {sd.name!r} duplicates {bodies[s.members]!r}",
                    *sd.pos,
                )
            bodies[s.members] = sd.name
            by_name[sd.name] = s
            listed.append(s)
        language = Language.explicit(space, vocab, listed)
    else:
        by_name = {}
        language = Language.derive(space, vocab, cap)

    def resolve(elem: Elem) -> Statement:
        if isinstance(elem, NameElem):
            return by_name[elem.name]
        if isinstance(elem, SetElem):
            return to_statement(elem.members)
        return _pattern_statement(elem, doc, preds, n_states)

    tasks: dict[str, VTask] = {}
    for td in doc.tasks:
        situations = [resolve(e) for e in td.situations]
        decisions = [resolve(e) for e in td.decisions]
        try:
            tasks[td.name] = make_task(language, situations, decisions)
        except WeaklabError as exc:
            raise CompileError(
                f"task {td.name!r}: {exc}", *td.pos
            ) from exc
    return CompiledSpec(doc, language, tasks)


def _pattern_statement(
    elem: PatternElem,
    doc: SpecDocument,
    preds: list[Predicate],
    n_states: int,
) -> Statement:
    width = doc.width
    members = []
    for i, ch in enumerate(elem.text):
        if ch == "-":
            continue
        j = width - 1 - i
        want = 0
        for s in range(1 << width):
            if (s >> j & 1) == (1 if ch == "1" else 0):
                want |= 1 << s
        for k, p in enumerate(preds):
            if p.truth == want:
                members.append(k)
                break
        else:
            raise CompileError(
                f"pattern {elem.text!r}: no predicate matches position {i} "
                f"value {ch!r} (define one whose truth table is exactly that "
                "bit literal)",
                *elem.pos,
            )
    return Statement.of(members)


def compile_text(text: str, cap: int = DEFAULT_LANGUAGE_CAP) -> CompiledSpec:
    return compile_document(parse(text), cap)
