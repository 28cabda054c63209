"""The library of named Mackey functors.

Names follow the conventions used throughout the computation:

* ``Z``, ``Z*`` are the constant functor and its dual.
* ``Z(i,j)`` looks like ``Z*`` between the subgroups of order 2^i and 2^j
  and like ``Z`` outside that band; ``B(i,j)`` is the cokernel of the
  canonical inclusion ``Z(i,j) -> Z``.
* ``F``, ``F*`` are the constant mod-2 functor and its dual; ``g`` is F2
  concentrated at the top level; ``f`` (over C2) is F2 at the bottom.
* ``m``, ``m*``, ``w``, ``w*``, ``mg``, ``mg*`` are the Klein-four F2
  functors with one-sided maps; ``mgw`` is the quaternion functor gluing
  ``mg`` to ``w`` through sign copies of Z/4 at the index-2 levels.
* ``phi(X)``, ``phi_Z(X)`` and ``phi_LDR(X)`` are geometric inflations:
  over C4 of a C2 functor along C4 -> C4/C2, over Q8 of a K4 functor along
  Q8 -> Q8/Z, and over K4 the direct sum of the inflations of a C2 functor
  along K4 -> K4/N for N = L, D, R.
* Over Q8, a bare ``m``, ``m*``, ``w``, ``w*``, ``mg``, ``mg*``,
  ``phi_LDR(F)``, ``phi_LDR(F*)`` or ``phi_LDR(f)`` means ``phi_Z`` of that
  K4 name.  The list is explicit, since vanishing at K4's bottom level is
  not the rule: ``w`` and ``w*`` do not vanish there, and ``B(2,0)`` does
  but is no alias, as the banded ``B(2,0)`` read on Q8's lattice would be
  nonzero at Z, where ``phi_Z(B(2,0))`` is zero (so too ``Z``, ``F`` and
  ``Z(2,1)`` name functors over Q8 itself).

A name is a sum, split at each ``+`` outside parentheses, of terms ``X``
or ``X^k`` (k >= 1); ``""`` and ``"0"`` are zero.  Each group's base table
holds only the functors that no other name defines; ``X*`` is
``box_dual(X)``, ``g`` is built the same way over every group, and the
inflations evaluate their argument, a sum too, over the smaller group.

Every catalog entry passes the axiom check, and every one is cohomological
but ``phi_Z(X)`` where 2 does not kill X's bottom level (``phi_Z(Z)``,
``phi_Z(Z*)``, ``phi_Z(Z(2,1))``); the test suite enforces both.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping

from .exactalg import AbHom, FgAbelian, identity, mat
from .functors import BadExpression, MackeyFunctor, UnknownName, box_dual
from .functors import covering_pairs, zero_functor
from .grouplat import group
from .inflation import phi_inflate


def _banded_z(group_name: str, hi: int, lo: int) -> MackeyFunctor:
    """Form of Z with the dual pattern between orders 2^hi and 2^lo."""
    g = group(group_name)
    z = FgAbelian((0,))
    levels = {s.name: z for s in g.subgroups()}
    res = {}
    tr = {}
    for low, high in covering_pairs(g):
        in_band = (
            g.subgroup(low).order >= 2 ** lo and g.subgroup(high).order <= 2 ** hi
        )
        r, t = (2, 1) if in_band else (1, 2)
        res[(low, high)] = AbHom(z, z, ((r,),))
        tr[(low, high)] = AbHom(z, z, ((t,),))
    return MackeyFunctor(group_name, levels, res, tr)


def _banded_quotient(group_name: str, hi: int, lo: int) -> MackeyFunctor:
    """Cokernel of Z(hi,lo) -> Z: cyclic of order 2^(band steps) levelwise."""
    g = group(group_name)
    factor = {}
    for s in g.subgroups():
        e = s.order.bit_length() - 1  # orders are powers of 2
        factor[s.name] = 2 ** max(0, min(e, hi) - lo)
    levels = {
        nm: FgAbelian(() if f == 1 else (f,)) for nm, f in factor.items()
    }
    res = {}
    tr = {}
    for low, high in covering_pairs(g):
        a, b = levels[low], levels[high]
        res[(low, high)] = AbHom(b, a, _scalar_block(b, a, 1))
        tr[(low, high)] = AbHom(a, b, _scalar_block(a, b, 2))
    return MackeyFunctor(group_name, levels, res, tr)


def _scalar_block(dom: FgAbelian, cod: FgAbelian, c: int):
    if dom.ngens == 0 or cod.ngens == 0:
        return tuple(tuple() for _ in range(cod.ngens))
    return ((c,),)


def _f2(n: int = 1) -> FgAbelian:
    return FgAbelian((2,) * n)


def _mod2_functor(
    group_name: str,
    levels: dict[str, int],
    res: dict[tuple[str, str], list[list[int]]],
) -> MackeyFunctor:
    """Assemble an F2-level functor; unspecified restrictions and every
    transfer are zero."""
    g = group(group_name)
    lv = {s.name: _f2(levels.get(s.name, 0)) for s in g.subgroups()}
    rmaps, tmaps = {}, {}
    for low, high in covering_pairs(g):
        rm = res.get((low, high))
        rmaps[(low, high)] = (
            AbHom.zero(lv[high], lv[low]) if rm is None
            else AbHom(lv[high], lv[low], mat(rm)))
        tmaps[(low, high)] = AbHom.zero(lv[low], lv[high])
    return MackeyFunctor(group_name, lv, rmaps, tmaps)


def _constant(group_name: str, modulus: int = 0) -> MackeyFunctor:
    """Constant functor at Z (modulus 0) or Z/modulus."""
    g = group(group_name)
    lvl = FgAbelian((modulus,))
    levels = {s.name: lvl for s in g.subgroups()}
    res = {}
    tr = {}
    for low, high in covering_pairs(g):
        index = g.subgroup(high).order // g.subgroup(low).order
        res[(low, high)] = AbHom(lvl, lvl, ((1,),))
        tr[(low, high)] = AbHom(lvl, lvl, ((index,),))
    return MackeyFunctor(group_name, levels, res, tr)


def _top_only(group_name: str) -> MackeyFunctor:
    return _mod2_functor(group_name, {group(group_name).top().name: 1}, {})


def _mgw() -> MackeyFunctor:
    """The quaternion functor with F2^2 on top, sign Z/4 at L, D, R, Z/2
    at the center.  The index-2 levels carry the sign action of the
    order-two Weyl quotient."""
    g = group("Q8")
    f22 = _f2(2)
    z4 = FgAbelian((4,))
    z2 = _f2(1)
    zero = FgAbelian(())
    levels = {"Q8": f22, "L": z4, "D": z4, "R": z4, "Z": z2, "e": zero}
    res = {
        ("L", "Q8"): AbHom(f22, z4, mat([[2, 0]])),
        ("D", "Q8"): AbHom(f22, z4, mat([[2, 2]])),
        ("R", "Q8"): AbHom(f22, z4, mat([[0, 2]])),
        ("Z", "L"): AbHom(z4, z2, mat([[1]])),
        ("Z", "D"): AbHom(z4, z2, mat([[1]])),
        ("Z", "R"): AbHom(z4, z2, mat([[1]])),
        ("e", "Z"): AbHom.zero(z2, zero),
    }
    tr = {
        ("L", "Q8"): AbHom(z4, f22, mat([[0], [1]])),
        ("D", "Q8"): AbHom(z4, f22, mat([[1], [1]])),
        ("R", "Q8"): AbHom(z4, f22, mat([[1], [0]])),
        ("Z", "L"): AbHom(z2, z4, mat([[2]])),
        ("Z", "D"): AbHom(z2, z4, mat([[2]])),
        ("Z", "R"): AbHom(z2, z4, mat([[2]])),
        ("e", "Z"): AbHom.zero(zero, z2),
    }
    weyl = {}
    for nm in ("L", "D", "R"):
        sub = g.subgroup(nm)
        for e in g.elements:
            if e not in sub.elements:
                weyl[(nm, e)] = AbHom(z4, z4, ((-1,),))
    return MackeyFunctor("Q8", levels, res, tr, weyl)


# ---------------------------------------------------------------------------
# names as terms

_MIDS = ("L", "D", "R")

# the functors of each group that no other name defines
_BASE = {
    "T": ("Z", "F"),
    "C2": ("Z", "F", "f", "B(1,0)"),
    "C4": ("Z", "Z(2,1)", "B(2,0)"),
    "K4": ("Z", "F", "Z(2,1)", "B(2,0)", "m", "w", "mg"),
    "Q8": ("Z", "F", "Z(3,2)", "Z(3,1)", "Z(2,1)", "Z(1,0)", "Z(2,0)",
           "B(3,0)", "mgw"),
}

_MOD2 = {
    "f": lambda: _mod2_functor("C2", {"e": 1}, {}),
    "m": lambda: _mod2_functor(
        "K4", dict.fromkeys(("K4",) + _MIDS, 1), {(s, "K4"): [[1]] for s in _MIDS}
    ),
    "w": lambda: _mod2_functor(
        "K4", dict.fromkeys(_MIDS + ("e",), 1), {("e", s): [[1]] for s in _MIDS}
    ),
    "mg": lambda: _mod2_functor("K4", {"K4": 2, "L": 1, "D": 1, "R": 1}, {
        ("L", "K4"): [[1, 0]], ("D", "K4"): [[1, 1]], ("R", "K4"): [[0, 1]]}),
    "mgw": _mgw,
}

# geometric inflation operators: (group, operator) -> (the group of the
# argument, the kernels whose inflations are summed)
_INFLATIONS = {
    ("C4", "phi"): ("C2", ("C2",)),
    ("K4", "phi_LDR"): ("C2", _MIDS),
    ("Q8", "phi_Z"): ("K4", ("Z",)),
}

# over Q8 each of these bare names means phi_Z of the K4 name (the module
# docstring says why the list is explicit)
_Q8_FROM_K4 = ("m", "m*", "w", "w*", "mg", "mg*",
               "phi_LDR(F)", "phi_LDR(F*)", "phi_LDR(f)")

# every catalog entry, in table order
_NAMES = {
    "T": ("Z", "F", "Z*", "g"),
    "C2": ("Z", "F", "g", "f", "B(1,0)", "Z*", "F*"),
    "C4": ("Z", "Z(2,1)", "B(2,0)", "g", "phi(F)", "phi(F*)", "phi(f)", "Z*"),
    "K4": ("Z", "F", "Z(2,1)", "B(2,0)", "g", "m", "w", "mg", "phi_LDR(F)",
           "phi_LDR(f)", "Z*", "F*", "m*", "w*", "mg*", "phi_LDR(F*)"),
}
_NAMES["Q8"] = (
    _BASE["Q8"] + ("Z*", "F*")
    + tuple(f"phi_Z({nm})" for nm in _NAMES["K4"]) + ("g",) + _Q8_FROM_K4
)

_BAND = re.compile(r"([ZB])\((\d),(\d)\)")
_OPERATOR = re.compile(r"(phi\w*)\((.+)\)")
_POWER = re.compile(r"(.+)\^([^()]*)")


def _base(group_name: str, name: str) -> MackeyFunctor:
    band = _BAND.fullmatch(name)
    if band:
        build = _banded_z if band[1] == "Z" else _banded_quotient
        return build(group_name, int(band[2]), int(band[3]))
    if name in ("Z", "F"):
        return _constant(group_name, 0 if name == "Z" else 2)
    return _MOD2[name]()


def _terms(text: str) -> list[str]:
    """text cut at every + outside parentheses."""
    depth = accumulate((c == "(") - (c == ")") for c in text)
    cuts = [i for i, (c, d) in enumerate(zip(text, depth)) if c == "+" and not d]
    return [text[i + 1:j] for i, j in zip([-1] + cuts, cuts + [len(text)])]


@lru_cache(maxsize=None)
def _named(group_name: str, text: str) -> MackeyFunctor:
    """The functor a canonical text names over a canonical group, carrying
    the text as its name; raises BadExpression or UnknownName."""
    terms = _terms(text)
    if "" in terms:
        raise BadExpression(f"{text!r}: an empty term")
    if len(terms) > 1:
        f = reduce(MackeyFunctor.direct_sum, (_named(group_name, t) for t in terms))
    elif power := _POWER.fullmatch(text):
        if not (power[2].isdecimal() and int(power[2]) >= 1):
            raise BadExpression(f"{text!r}: a power must be an integer >= 1")
        f = reduce(MackeyFunctor.direct_sum, [_named(group_name, power[1])] * int(power[2]))
    elif text == "0":
        f = zero_functor(group_name)
    elif group_name == "Q8" and text in _Q8_FROM_K4:
        f = _named("Q8", f"phi_Z({text})")
    elif text in _BASE[group_name]:
        f = _base(group_name, text)
    elif text == "g":
        f = _top_only(group_name)
    elif text.endswith("*"):
        f = box_dual(_named(group_name, text[:-1]))
    elif (op := _OPERATOR.fullmatch(text)) and (group_name, op[1]) in _INFLATIONS:
        source, kernels = _INFLATIONS[group_name, op[1]]
        inner = _named(source, op[2])
        g = group(group_name)
        f = reduce(MackeyFunctor.direct_sum, (
            phi_inflate(g.quotient(g.subgroup(k)), inner) for k in kernels))
    else:
        raise UnknownName(text)
    return f.with_name(text)


def catalog(group_name: str) -> Mapping[str, MackeyFunctor]:
    """The group's named functors, as a read-only table, built once per
    group however its name is spelled.  These are the names recognition
    searches; named() also evaluates every other name."""
    return _catalog(group(group_name).name)


@lru_cache(maxsize=None)
def _catalog(name: str) -> Mapping[str, MackeyFunctor]:
    return MappingProxyType({nm: _named(name, nm) for nm in _NAMES[name]})


def canonical_name(raw: str) -> str:
    """Normalize user spellings of names; the empty sum is "0"."""
    s = raw.strip().replace(" ", "").replace("⊕", "+")
    s = s.replace("φ", "phi").replace("Ψ", "psi").replace("∗", "*")
    s = re.sub(r"phi\^?\*", "phi", s)
    return re.sub(r"(?:^|(?<=[+(]))(phi_(?:Z|LDR))([^(+)]+)", r"\1(\2)", s) or "0"


def named(group_name: str, name: str) -> MackeyFunctor:
    """The functor a name denotes, evaluated once per group and canonical
    name; raises BadExpression or UnknownName."""
    try:
        return _named(group(group_name).name, canonical_name(name))
    except UnknownName:
        raise UnknownName(
            f"no Mackey functor named {name!r} over {group_name}") from None


def names(group_name: str) -> list[str]:
    return sorted(catalog(group_name))


def _scalar_morphism(src, tgt, scalars) -> "MackeyMorphism":
    from .functors import MackeyMorphism

    comps = {}
    for nm, c in scalars.items():
        a, b = src.levels[nm], tgt.levels[nm]
        if a.ngens == 0 or b.ngens == 0:
            comps[nm] = AbHom.zero(a, b)
        else:
            comps[nm] = AbHom(a, b, ((c,),))
    return MackeyMorphism(src, tgt, comps)


def seven_sequences():
    """The seven short exact sequences tying the quaternion library
    together, as (inclusion, projection) pairs of morphisms.

    The inclusion of each form of Z into the constant functor multiplies
    each level by the index accumulated across its dual-pattern band; the
    last sequence glues the two-generator top functor to the sign circles.
    """
    from .functors import MackeyMorphism

    q8 = lambda nm: named("Q8", nm)
    seqs = []
    data = [
        ("Z(3,2)", "Z", "g",
         {"Q8": 2, "L": 1, "D": 1, "R": 1, "Z": 1, "e": 1},
         {"Q8": 1, "L": 0, "D": 0, "R": 0, "Z": 0, "e": 0}),
        ("Z(3,1)", "Z", "phi_Z(B(2,0))",
         {"Q8": 4, "L": 2, "D": 2, "R": 2, "Z": 1, "e": 1},
         {"Q8": 1, "L": 1, "D": 1, "R": 1, "Z": 0, "e": 0}),
        ("Z(3,1)", "Z(3,2)", "m*",
         {"Q8": 2, "L": 2, "D": 2, "R": 2, "Z": 1, "e": 1},
         {"Q8": 1, "L": 1, "D": 1, "R": 1, "Z": 0, "e": 0}),
        ("Z(2,1)", "Z", "m",
         {"Q8": 2, "L": 2, "D": 2, "R": 2, "Z": 1, "e": 1},
         {"Q8": 1, "L": 1, "D": 1, "R": 1, "Z": 0, "e": 0}),
        ("Z(1,0)", "Z", "phi_Z(F)",
         {"Q8": 2, "L": 2, "D": 2, "R": 2, "Z": 2, "e": 1},
         {"Q8": 1, "L": 1, "D": 1, "R": 1, "Z": 1, "e": 0}),
        ("Z*", "Z", "B(3,0)",
         {"Q8": 8, "L": 4, "D": 4, "R": 4, "Z": 2, "e": 1},
         {"Q8": 1, "L": 1, "D": 1, "R": 1, "Z": 1, "e": 0}),
    ]
    for a, b, c, inc, proj in data:
        seqs.append((
            _scalar_morphism(q8(a), q8(b), inc),
            _scalar_morphism(q8(b), q8(c), proj),
        ))
    mg, mgw, w = q8("mg"), q8("mgw"), q8("w")
    incl = {
        "Q8": AbHom(mg.levels["Q8"], mgw.levels["Q8"], identity(2)),
        "L": AbHom(mg.levels["L"], mgw.levels["L"], ((2,),)),
        "D": AbHom(mg.levels["D"], mgw.levels["D"], ((2,),)),
        "R": AbHom(mg.levels["R"], mgw.levels["R"], ((2,),)),
        "Z": AbHom.zero(mg.levels["Z"], mgw.levels["Z"]),
        "e": AbHom.zero(mg.levels["e"], mgw.levels["e"]),
    }
    proj = {
        "Q8": AbHom.zero(mgw.levels["Q8"], w.levels["Q8"]),
        "L": AbHom(mgw.levels["L"], w.levels["L"], ((1,),)),
        "D": AbHom(mgw.levels["D"], w.levels["D"], ((1,),)),
        "R": AbHom(mgw.levels["R"], w.levels["R"], ((1,),)),
        "Z": AbHom(mgw.levels["Z"], w.levels["Z"], ((1,),)),
        "e": AbHom.zero(mgw.levels["e"], w.levels["e"]),
    }
    seqs.append((
        MackeyMorphism(mg, mgw, incl),
        MackeyMorphism(mgw, w, proj),
    ))
    return seqs
