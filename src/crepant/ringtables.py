"""Emitters and the JSON reader of the product tables of `crepant.tables`.

A table is written as JSON (`table_to_json`, which `table_from_json` reads
back), as text or as LaTeX.  The tables and their builders are those of
`tables`, bound here too, so `ringtables.cr_table is tables.cr_table`.

`table_from_json` parses each distinct coordinate document (a Cyclotomic's
{"conductor", "coeffs"}) once per call: a document whose conductor is an
int and whose coordinates are all strings is parsed by `Cyclotomic.from_json`
when first met, and every later document with the same conductor and
strings shares that immutable value.  The parse depends on those values
alone, so every value, and every byte written back, is the one a fresh parse
gives.  The sharing is keyed by the int conductor itself: a conductor of
`true` or `1.0`, equal to 1 in Python, never matches a shared parse and
reaches the parser, which refuses it, as does any other document that is not
of that form.  Nothing is kept from one call to the next.
"""

from __future__ import annotations

from functools import partial

from .coeffring import BaseScalar, json_int
from .corrections import CorrectionFunction
from .exactnum import Cyclotomic
from .tables import KIND_QUANTUM, KINDS, ExcClass, ProductTable, QCoeff
# the builders, bound here too: a table and its emitters read from one module
from .tables import cr_table, cup_table, qc_eval, qc_table  # noqa: F401


def table_to_json(table: ProductTable):
    coeff = BaseScalar.to_json
    if table.kind == KIND_QUANTUM:
        coeff = partial(QCoeff.to_json, mult=BaseScalar.K(table.n).to_json())
    doc = {"n": table.n, "kind": table.kind,
           "entries": [{"i": i, "j": j,
                        **table.entry(i, j).to_json(coeff)}
                       for i, j in table.pairs()]}
    if table.q is not None:
        doc["q"] = [x.to_json() for x in table.q]
    return doc


def table_from_json(doc) -> ProductTable:
    """The table `table_to_json` wrote as `doc`.

    Refuses, with a ValueError that names the field, a value that would be
    read as an equal one but written back as other JSON (an "n", "rank",
    "i", "j", exponent, "mu" or "nu" that is not an int, a conductor that
    is not an int), an unknown "kind", a coefficient whose "rank" is not
    the table's "n", an entry without n basis coefficients, and entries
    that are not each pair i <= j exactly once.  Each distinct coordinate
    document is parsed once per call (see the module docstring).
    """
    n = json_int(doc, "n")
    if n < 1:
        raise ValueError('"n" must be >= 1')
    kind = doc["kind"]
    if kind not in KINDS:
        raise ValueError(f'"kind" must be one of {", ".join(KINDS)}, not '
                         f"{kind!r}")
    read = _coordinate_reader()

    def scalar(data):
        if json_int(data, "rank") != n:
            raise ValueError(f'a coefficient\'s "rank" must be the table\'s '
                             f'"n", {n}')
        return BaseScalar.from_json(data, read=read)

    coeff = scalar
    if kind == KIND_QUANTUM:
        kappa = BaseScalar.K(n)
        coeff = partial(_qcoeff_from_json, kappa=kappa,
                        kappa_json=kappa.to_json(), scalar=scalar, read=read)
    entries = {}
    for e in doc["entries"]:
        key = json_int(e, "i"), json_int(e, "j")
        if not 1 <= key[0] <= key[1] <= n or key in entries:
            raise ValueError(f'entry "i", "j" = {key} is out of range or '
                             "repeated")
        entries[key] = _entry_from_json(e, n, scalar, coeff)
    if len(entries) != n * (n + 1) // 2:
        raise ValueError(f'"entries" must hold every pair i <= j <= {n}')
    q = [read(x) for x in doc["q"]] if "q" in doc else None
    return ProductTable(n, kind, entries, q=q)


def _entry_from_json(data, n: int, scalar, coeff) -> ExcClass:
    """The ExcClass `data`: `scalar` parses the s part and `coeff` one basis
    coefficient; refuses an "e" that is not a list of n coefficients."""
    e = data["e"]
    if type(e) is not list or len(e) != n:
        raise ValueError(f'an entry\'s "e" must list {n} coefficients')
    return ExcClass(n, scalar(data["s"]), tuple(coeff(c) for c in e))


def _qcoeff_from_json(data, kappa: BaseScalar, kappa_json, scalar,
                      read) -> QCoeff:
    """The QCoeff `data`.  Refuses a "mult" that is not K = `kappa`.  A
    "mult" that is JSON-equal to `kappa_json`, K's JSON, which a table's
    reader computes once, is K and is not parsed.  `scalar` parses a
    BaseScalar and `read` a Cyclotomic."""
    cup = scalar(data["cup"])
    mult = data["mult"]
    if not _is_kappa_json(mult, kappa_json) and scalar(mult) != kappa:
        raise ValueError("a quantum coefficient's \"mult\" must be K")
    return QCoeff(cup, CorrectionFunction.from_json(data["corr"], cup.n,
                                                    read))


def _is_kappa_json(mult, kappa_json) -> bool:
    """mult is `kappa_json`, K's JSON, as JSON values: equal, and of the
    same types all the way down.  Of K's leaves only the ints ("rank", each
    "conductor" and the exponents) can equal a value of another type (true,
    1.0), so once == holds only their types are checked."""
    if mult != kappa_json or type(mult["rank"]) is not int:
        return False
    for term in mult["terms"]:
        for key, v in term.items():
            if type(v["conductor"] if key == "coeff" else v) is not int:
                return False
    return True


def _coordinate_reader():
    """`Cyclotomic.from_json` that parses each distinct coordinate document
    once: a dict with an int conductor and a list of strings is looked up by
    those values, and anything else is parsed every time."""
    parsed = {}

    def read(data):
        if type(data) is dict:
            conductor, coeffs = data.get("conductor"), data.get("coeffs")
            if (type(conductor) is int and type(coeffs) is list
                    and all(type(c) is str for c in coeffs)):
                key = (conductor, *coeffs)
                value = parsed.get(key)
                if value is None:
                    value = parsed[key] = Cyclotomic.from_json(data)
                return value
        return Cyclotomic.from_json(data)

    return read


def _format_class(entry, gen: str) -> str:
    parts = []
    if not entry.s.is_zero():
        s = str(entry.s)
        parts.append(f"{s}*S" if s != "1" else "S")
    for l, coeff in enumerate(entry.e, start=1):
        text = str(coeff)
        if text == "0":
            continue
        parts.append(f"[{text}]*{gen}{l}")
    return " + ".join(parts) if parts else "0"


def table_to_text(table: ProductTable) -> str:
    gen = table.generator_name()
    op = {"chen_ruan": ".", "cup": ".", "quantum": "*",
          "quantum_at": "*"}[table.kind]
    lines = []
    for i, j in table.pairs():
        lines.append(f"{gen}{i} {op} {gen}{j} = "
                     f"{_format_class(table.entry(i, j), gen)}")
    return "\n".join(lines)


def _ltx_coordinate(text: str) -> str:
    """A coordinate string "p" or "p/q" as LaTeX."""
    num, _, den = text.partition("/")
    if not den:
        return num
    sign = "-" if num.startswith("-") else ""
    return f"{sign}\\frac{{{num.lstrip('-')}}}{{{den}}}"


def _ltx_cyclotomic(c: Cyclotomic) -> str:
    parts = []
    for k, coeff in enumerate(c.coordinate_strings()):
        if coeff == "0":
            continue
        sym = "" if k == 0 else f"\\zeta_{{{c.conductor}}}" + \
            (f"^{{{k}}}" if k > 1 else "")
        if not sym:
            parts.append(_ltx_coordinate(coeff))
        elif coeff == "1":
            parts.append(sym)
        elif coeff == "-1":
            parts.append(f"-{sym}")
        else:
            parts.append(f"{_ltx_coordinate(coeff)}{sym}")
    return _join_signed(parts)


def _join_signed(parts) -> str:
    text = ""
    for p in parts:
        if not text:
            text = p
        elif p.startswith("-"):
            text += " - " + p[1:]
        else:
            text += " + " + p
    return text or "0"


def _ltx_wrap(c: Cyclotomic) -> str:
    text = _ltx_cyclotomic(c)
    return f"\\left({text}\\right)" if (" + " in text or " - " in text) \
        else text


def _ltx_base(sc: BaseScalar) -> str:
    if sc.is_zero():
        return "0"
    gens = ("K",) if sc.n == 1 else ("L", "M")
    parts = []
    for mono, coeff in sc._sorted_terms():
        body = "".join(g + (f"^{{{e}}}" if e > 1 else "")
                       for g, e in zip(gens, mono) if e)
        cs = _ltx_wrap(coeff)
        if body and cs == "1":
            parts.append(body)
        elif body and cs == "-1":
            parts.append(f"-{body}")
        else:
            parts.append(f"{cs}{body}")
    return _join_signed(parts)


def _ltx_corr(corr: CorrectionFunction) -> str:
    parts = []
    for idx, w in sorted(corr.terms.items()):
        sym = f"\\delta_{{{idx.mu}{idx.nu}}}"
        parts.append(sym if w == 1 else f"-{sym}" if w == -1 else f"{w}{sym}")
    return _join_signed(parts)


def _ltx_entry_coeff(coeff, kappa: str) -> str:
    """`kappa` is K's LaTeX, bracketed when it is a sum."""
    if isinstance(coeff, BaseScalar):
        return _ltx_base(coeff)
    if coeff.corr.is_zero():
        return _ltx_base(coeff.cup)
    head = f"\\left({_ltx_corr(coeff.corr)}\\right){kappa}"
    if coeff.cup.is_zero():
        return head
    return f"{_ltx_base(coeff.cup)} + {head}"


def table_to_latex(table: ProductTable) -> str:
    """LaTeX lines in the layout of the worked A_2 displays."""
    gen = table.generator_name()
    op = {"chen_ruan": "\\cup_{\\rm CR}", "cup": "\\cup",
          "quantum": "\\ast_{\\rho}", "quantum_at": "\\ast_{\\rho}"}
    kappa = _ltx_base(BaseScalar.K(table.n))
    if " + " in kappa or " - " in kappa:
        kappa = f"\\left({kappa}\\right)"
    lines = ["\\begin{align*}"]
    for i, j in table.pairs():
        entry = table.entry(i, j)
        parts = []
        if not entry.s.is_zero():
            parts.append(f"{_ltx_base(entry.s)}\\,[S]")
        for l, coeff in enumerate(entry.e, start=1):
            text = _ltx_entry_coeff(coeff, kappa)
            if text == "0":
                continue
            parts.append(f"\\left[{text}\\right]{gen}_{{{l}}}")
        rhs = _join_signed(parts)
        lines.append(f"{gen}_{{{i}}} {op[table.kind]} {gen}_{{{j}}} "
                     f"&= {rhs}\\\\")
    lines.append("\\end{align*}")
    return "\n".join(lines)
