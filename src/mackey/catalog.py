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
* ``phi_Z(X)`` and ``phi_LDR(X)`` are geometric inflations.  Over Q8, a
  bare Klein-four name such as ``mg`` abbreviates its inflation along
  Q8 -> K4, which is unambiguous because those functors vanish at the
  bottom level.

Every catalog entry passes the full axiom check, cohomological condition
included; the test suite enforces this.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .exactalg import AbHom, FgAbelian, identity, mat
from .functors import MackeyFunctor, box_dual, covering_pairs, UnknownName
from .grouplat import canonical_group_name, group


def _log2(n: int) -> int:
    e = 0
    while n > 1:
        n //= 2
        e += 1
    return e


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
    return MackeyFunctor(group_name, levels, res, tr, {}, True)


def _banded_quotient(group_name: str, hi: int, lo: int) -> MackeyFunctor:
    """Cokernel of Z(hi,lo) -> Z: cyclic of order 2^(band steps) levelwise."""
    g = group(group_name)
    factor = {}
    for s in g.subgroups():
        e = _log2(s.order)
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
    return MackeyFunctor(group_name, levels, res, tr, {}, True)


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
    tr: dict[tuple[str, str], list[list[int]]],
) -> MackeyFunctor:
    """Assemble an F2-level functor; unspecified maps are zero."""
    g = group(group_name)
    lv = {s.name: _f2(levels.get(s.name, 0)) for s in g.subgroups()}
    rmaps = {}
    tmaps = {}
    for low, high in covering_pairs(g):
        rm = res.get((low, high))
        tm = tr.get((low, high))
        rmaps[(low, high)] = (
            AbHom(lv[high], lv[low], mat(rm))
            if rm is not None
            else AbHom.zero(lv[high], lv[low])
        )
        tmaps[(low, high)] = (
            AbHom(lv[low], lv[high], mat(tm))
            if tm is not None
            else AbHom.zero(lv[low], lv[high])
        )
    return MackeyFunctor(group_name, lv, rmaps, tmaps, {}, True)


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
    return MackeyFunctor(group_name, levels, res, tr, {}, True)


def _top_only(group_name: str) -> MackeyFunctor:
    return _mod2_functor(group_name, {group(group_name).top().name: 1}, {}, {})


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
    return MackeyFunctor("Q8", levels, res, tr, weyl, True)


# ---------------------------------------------------------------------------
# per-group tables


def _c2_catalog() -> dict[str, MackeyFunctor]:
    out = {
        "Z": _constant("C2"),
        "F": _constant("C2", 2),
        "g": _top_only("C2"),
        "f": _mod2_functor("C2", {"e": 1}, {}, {}),
        "B(1,0)": _banded_quotient("C2", 1, 0),
    }
    out["Z*"] = box_dual(out["Z"])
    out["F*"] = box_dual(out["F"])
    return out


def _c4_catalog() -> dict[str, MackeyFunctor]:
    from .inflation import phi_inflate

    qm = group("C4").quotient(group("C4").subgroup("C2"))
    c2 = _c2_catalog()
    out = {
        "Z": _constant("C4"),
        "Z(2,1)": _banded_z("C4", 2, 1),
        "B(2,0)": _banded_quotient("C4", 2, 0),
        "g": _top_only("C4"),
        "phi(F)": phi_inflate(qm, c2["F"]),
        "phi(F*)": phi_inflate(qm, c2["F*"]),
        "phi(f)": phi_inflate(qm, c2["f"]),
    }
    out["Z*"] = box_dual(out["Z"])
    return out


def _k4_catalog() -> dict[str, MackeyFunctor]:
    mids = ("L", "D", "R")
    out = {
        "Z": _constant("K4"),
        "F": _constant("K4", 2),
        "Z(2,1)": _banded_z("K4", 2, 1),
        "B(2,0)": _banded_quotient("K4", 2, 0),
        "g": _top_only("K4"),
        "m": _mod2_functor(
            "K4",
            {"K4": 1, "L": 1, "D": 1, "R": 1},
            {(s, "K4"): [[1]] for s in mids},
            {},
        ),
        "w": _mod2_functor(
            "K4",
            {"L": 1, "D": 1, "R": 1, "e": 1},
            {("e", s): [[1]] for s in mids},
            {},
        ),
        "mg": _mod2_functor(
            "K4",
            {"K4": 2, "L": 1, "D": 1, "R": 1},
            {
                ("L", "K4"): [[1, 0]],
                ("D", "K4"): [[1, 1]],
                ("R", "K4"): [[0, 1]],
            },
            {},
        ),
        "phi_LDR(F)": _mod2_functor(
            "K4",
            {"K4": 3, "L": 1, "D": 1, "R": 1},
            {
                ("L", "K4"): [[1, 0, 0]],
                ("D", "K4"): [[0, 1, 0]],
                ("R", "K4"): [[0, 0, 1]],
            },
            {},
        ),
        "phi_LDR(f)": _mod2_functor(
            "K4", {"L": 1, "D": 1, "R": 1}, {}, {}
        ),
    }
    out["Z*"] = box_dual(out["Z"])
    out["F*"] = box_dual(out["F"])
    out["m*"] = box_dual(out["m"])
    out["w*"] = box_dual(out["w"])
    out["mg*"] = box_dual(out["mg"])
    out["phi_LDR(F*)"] = box_dual(out["phi_LDR(F)"])
    return out


def _q8_catalog() -> dict[str, MackeyFunctor]:
    from .inflation import phi_inflate

    qm = group("Q8").quotient(group("Q8").subgroup("Z"))
    k4 = _k4_catalog()
    out = {
        "Z": _constant("Q8"),
        "F": _constant("Q8", 2),
        "Z(3,2)": _banded_z("Q8", 3, 2),
        "Z(3,1)": _banded_z("Q8", 3, 1),
        "Z(2,1)": _banded_z("Q8", 2, 1),
        "Z(1,0)": _banded_z("Q8", 1, 0),
        "Z(2,0)": _banded_z("Q8", 2, 0),
        "B(3,0)": _banded_quotient("Q8", 3, 0),
        "mgw": _mgw(),
    }
    out["Z*"] = box_dual(out["Z"])
    out["F*"] = box_dual(out["F"])
    # inflations of the Klein-four library; torsion names keep their bare
    # names, the rest are explicitly tagged
    for nm, f in k4.items():
        out[f"phi_Z({nm})"] = phi_inflate(qm, f)
    for nm in ("g", "m", "m*", "w", "w*", "mg", "mg*",
               "phi_LDR(F)", "phi_LDR(F*)", "phi_LDR(f)"):
        out[nm] = out[f"phi_Z({nm})"]
    return out


def _t_catalog() -> dict[str, MackeyFunctor]:
    out = {"Z": _constant("T"), "F": _constant("T", 2)}
    out["Z*"] = out["Z"]
    out["g"] = out["F"]
    return out


def catalog(group_name: str) -> Mapping[str, MackeyFunctor]:
    """The group's named functors, as a read-only table, built once per
    group however its name is spelled."""
    return _catalog(canonical_group_name(group_name))


@lru_cache(maxsize=None)
def _catalog(name: str) -> Mapping[str, MackeyFunctor]:
    builders = {
        "T": _t_catalog,
        "C2": _c2_catalog,
        "C4": _c4_catalog,
        "K4": _k4_catalog,
        "Q8": _q8_catalog,
    }
    table = builders[name]()
    return MappingProxyType({nm: f.with_name(nm) for nm, f in table.items()})


def canonical_name(raw: str) -> str:
    """Normalize user spellings of catalog names."""
    s = raw.strip().replace(" ", "")
    s = s.replace("φ", "phi").replace("Ψ", "psi").replace("∗", "*")
    s = s.replace("phi*_Z", "phi_Z").replace("phi^*_Z", "phi_Z")
    s = s.replace("phi*_LDR", "phi_LDR").replace("phi^*_LDR", "phi_LDR")
    s = s.replace("phi*", "phi")
    if s.startswith("phi_Z") and not s.startswith("phi_Z("):
        s = "phi_Z(" + s[len("phi_Z"):] + ")"
    if s.startswith("phi_LDR") and not s.startswith("phi_LDR("):
        s = "phi_LDR(" + s[len("phi_LDR"):] + ")"
    return s


def named(group_name: str, name: str) -> MackeyFunctor:
    """Look up a catalog entry; raises UnknownName for anything else."""
    table = catalog(group_name)
    key = canonical_name(name)
    if key not in table:
        raise UnknownName(f"no Mackey functor named {name!r} over {group_name}")
    return table[key]


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
