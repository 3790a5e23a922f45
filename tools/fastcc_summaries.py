"""fastcc_summaries: bottom-up interprocedural call summaries.

Shared by fastcc-dataflow and fastcc-units.  Both tools are
intraprocedural at heart — they re-derive everything inside one function
body — and would otherwise learn about callees only from declared contract
macros.  This module adds the missing interprocedural layer: a bottom-up
fixpoint over the (bare-name) call graph that derives, for every function
*definition* in the analyzed set,

  * which parameters are (transitively) consumed — passed bare into a
    FASTCC_CONSUMES position of some callee,
  * which parameters are (transitively) PFC-discharged — passed bare into
    on_packet_departed()/consume() or into a callee that discharges them,
  * how many definitions share each bare name (fastcc-units trusts
    interprocedural dimensions only for unambiguous names).

Soundness posture: the derived table is deliberately *under*-approximate.
Effects only propagate through arguments that are syntactically bare
(`f(x)`, `f(std::move(x))`) and only for callee names that resolve
unambiguously — exactly one definition in the analyzed set, no declared
parameter contract of their own (declarations stay the single source of
truth), and not on the common-method denylist (`push_back`, `clear`, ...,
names that collide with standard-library containers and would otherwise
smear one class's behavior onto every other receiver).  An effect this
module fails to derive falls back to the tools' existing behavior; an
effect it does derive is backed by an actual call chain in the tree.

The module has no imports from the analyzer scripts; callers inject the
lexer and function extractor (fastcc-lint's `lex`, fastcc-dataflow's
`extract_functions`) so there is exactly one C++ front end in the tool
suite.  Zero dependencies beyond CPython.
"""

from __future__ import annotations

# Method names shared with standard-library containers (or otherwise so
# generic that one bare name aliases many unrelated definitions).  Calls to
# these never contribute derived effects.
CALL_DENYLIST = frozenset({
    "push_back", "pop_back", "push_front", "pop_front", "push", "pop",
    "emplace", "emplace_back", "insert", "erase", "clear", "resize",
    "reserve", "assign", "swap", "reset", "release", "get", "at", "after",
    "size", "empty", "begin", "end", "cbegin", "cend", "front", "back",
    "count", "find", "min", "max", "abs", "move", "forward", "make_unique",
    "make_shared", "make_pair", "run", "now", "id", "of", "str", "data",
    "value", "first", "second", "top", "contains", "append", "c_str",
})

# Statement/expression keywords that look like calls to the token scanner.
_CALL_HEAD_SKIP = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "assert", "catch", "new", "delete",
    "throw", "case", "defined", "alignas", "noexcept", "explicit",
    "operator", "requires", "static_cast", "const_cast",
    "reinterpret_cast", "dynamic_cast",
})


class Summary:
    """Everything derived for one bare function name."""

    __slots__ = ("name", "defs", "param_lists", "calls",
                 "consumes_params", "discharge_params")

    def __init__(self, name):
        self.name = name
        self.defs = []           # [(path, line)] per definition
        self.param_lists = []    # [param-name list] per definition
        self.calls = []          # [(callee, (bare-arg-or-None, ...))]
        self.consumes_params = set()
        self.discharge_params = set()

    @property
    def unambiguous(self):
        return len(self.defs) == 1

    def param_index(self):
        """name -> index for the single definition (unambiguous only)."""
        if not self.unambiguous or not self.param_lists:
            return {}
        return {p: i for i, p in enumerate(self.param_lists[0])
                if p is not None}


def _match(toks, i, open_t, close_t):
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == open_t:
            depth += 1
        elif toks[j].text == close_t:
            depth -= 1
            if depth == 0:
                return j
    return len(toks)


def _split_top(toks, start, end):
    """Splits toks[start:end] on top-level commas."""
    parts, cur, depth = [], [], 0
    for t in toks[start:end]:
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        if depth == 0 and t.text == ",":
            parts.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        parts.append(cur)
    return parts


def _bare_name(arg):
    """The identifier if the argument is exactly `v` or `std::move(v)`
    (parens tolerated), else None."""
    toks = list(arg)
    while len(toks) >= 3 and toks[0].text == "(" and toks[-1].text == ")":
        toks = toks[1:-1]
    if (len(toks) >= 4 and toks[0].text == "std" and toks[1].text == "::"
            and toks[2].text == "move"):
        toks = toks[3:]
        while len(toks) >= 3 and toks[0].text == "(" and toks[-1].text == ")":
            toks = toks[1:-1]
    if len(toks) == 1 and toks[0].kind == "id":
        return toks[0].text
    return None


def _param_names(param_toks):
    """Declaration-order parameter names; None for unnamed/untyped slots."""
    names = []
    for run in _split_top(param_toks, 0, len(param_toks)):
        ids = [t.text for t in run if t.kind == "id"]
        names.append(ids[-1] if len(ids) >= 2 else None)
    return names


def _collect_calls(body_toks):
    """Yields (callee, (bare-arg-name-or-None, ...)) for every call-shaped
    `name(...)` in the body, including nested calls."""
    n = len(body_toks)
    for i, t in enumerate(body_toks):
        if t.kind != "id" or t.text in _CALL_HEAD_SKIP:
            continue
        if i + 1 >= n or body_toks[i + 1].text != "(":
            continue
        close = _match(body_toks, i + 1, "(", ")")
        args = _split_top(body_toks, i + 2, close)
        yield t.text, tuple(_bare_name(a) for a in args)


def build_summaries(files, *, lex, extract_functions, contracts_table=None,
                    discharge_names=frozenset(),
                    call_denylist=CALL_DENYLIST):
    """Builds the bare-name -> Summary table over `files`.

    `lex` and `extract_functions` are the host tool's front end (injected
    to avoid a second parser); `contracts_table` is fastcc-dataflow's
    Contracts.table used both as effect seeds and as the "already declared,
    do not re-derive" mask; `discharge_names` seeds the PFC-discharge
    derivation (fastcc-dataflow's DISCHARGE_NAMES).
    """
    contracts_table = contracts_table or {}
    sums: dict[str, Summary] = {}

    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                tokens, _ = lex(f.read())
        except OSError:
            continue
        for (name, line, param_toks, body_toks) in extract_functions(tokens):
            s = sums.setdefault(name, Summary(name))
            s.defs.append((path, line))
            s.param_lists.append(_param_names(param_toks))
            s.calls.extend(_collect_calls(body_toks))

    def declared_consumes(name):
        entry = contracts_table.get(name)
        if not entry:
            return None
        return {idx for idx, k in entry.get("params", {}).items()
                if k == "consumes"}

    def derivable(s):
        # Derived effects only for unambiguous definitions with no declared
        # parameter contract of their own and a non-generic name.
        if not s.unambiguous or s.name in call_denylist:
            return False
        entry = contracts_table.get(s.name)
        return not (entry and entry.get("params"))

    # Bottom-up fixpoint: effects only accumulate, so iterate to stability.
    for _ in range(max(4, len(sums))):
        changed = False
        for s in sums.values():
            if not derivable(s):
                continue
            pidx = s.param_index()
            if not pidx:
                continue
            for callee, args in s.calls:
                if callee in discharge_names:
                    for a in args:
                        if a in pidx and pidx[a] not in s.discharge_params:
                            s.discharge_params.add(pidx[a])
                            changed = True
                    continue
                cons = declared_consumes(callee)
                disch = set()
                if cons is None:
                    cs = sums.get(callee)
                    if cs is not None and derivable(cs):
                        cons, disch = cs.consumes_params, cs.discharge_params
                    else:
                        cons = set()
                for idx, a in enumerate(args):
                    if a not in pidx:
                        continue
                    if idx in cons and pidx[a] not in s.consumes_params:
                        s.consumes_params.add(pidx[a])
                        changed = True
                    if idx in disch and pidx[a] not in s.discharge_params:
                        s.discharge_params.add(pidx[a])
                        changed = True
        if not changed:
            break
    return sums


def derived_effects(sums, callee, call_denylist=CALL_DENYLIST):
    """(consumes_param_indexes, discharge_param_indexes) usable by a caller
    when `callee` has no declared contract, or (set(), set()) when the name
    is ambiguous/unknown/denylisted."""
    s = sums.get(callee) if sums else None
    if s is None or not s.unambiguous or callee in call_denylist:
        return set(), set()
    return set(s.consumes_params), set(s.discharge_params)


def digest(sums):
    """Deterministic digest of the derived table, for cache keying."""
    items = []
    for name in sorted(sums):
        s = sums[name]
        items.append((name, len(s.defs),
                      sorted(s.consumes_params), sorted(s.discharge_params)))
    return repr(items)
