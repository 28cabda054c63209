"""Slice data for integer suspensions of the Eilenberg-Mac Lane spectrum
of the constant functor, over C4 and Q8.

The slices themselves are transcribed data, not derived: the quaternion
lists come from the recursive towers (whose layers were cross-checked cell
by cell against the spectral-sequence charts), together with the inflated
part above twice the suspension degree, where everything is pulled back
from the Klein four-group along the central quotient.  The engine then
verifies each layer's homotopy; nothing here is discovered at runtime.

Conventions: a slice is recorded as (t, shift, rep, coeff) standing for
the t-slice  Sigma^{shift + rep} H(coeff).  Suspensions of g-powers use
the integer form (g is concentrated at the top level, so regular and
trivial suspensions of it agree); towers record the printed forms, which
can differ from the list's by standard equivalences, and the tests check
the two agree degreewise on homotopy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .grouplat import canonical_group_name
from .repcw import VirtualRep, parse_rep


class Unsupported(Exception):
    pass


class BadBookkeeping(ValueError):
    """A slice whose dimension breaks the bookkeeping rule it must obey."""


@dataclass(frozen=True)
class SliceDescriptor:
    group_name: str
    t: int
    shift: int
    rep: str  # canonical rep string, "" for no sphere factor
    coeff: str

    def rep_obj(self) -> VirtualRep:
        text = self.rep if self.rep else "0"
        return parse_rep(self.group_name, text)

    def suspension(self) -> str:
        """Full suspension string including the integer shift."""
        parts = []
        if self.shift:
            parts.append(str(self.shift))
        if self.rep:
            parts.append(self.rep)
        return "+".join(parts) if parts else "0"

    @property
    def dim(self) -> int:
        return self.rep_obj().dim + self.shift

    def expression(self) -> str:
        return f"S^{{{self.suspension()}}} H({self.coeff})"

    def check_bookkeeping(self) -> None:
        """Bottom slices carry the underlying class, so their dimension is
        the suspension dimension; all other layers have trivial underlying
        spectrum and even slice dimension."""
        from .functors import expression_functor

        f = expression_functor(self.group_name, self.coeff)
        if not f.levels["e"].is_trivial:
            if self.t != self.dim:
                raise BadBookkeeping(f"{self}: a bottom slice has t = dim = {self.dim}")
        elif self.t % 2:
            raise BadBookkeeping(f"{self}: a slice with trivial underlying level has even t")


@dataclass
class SliceTower:
    group_name: str
    n: int
    layers: list[tuple[SliceDescriptor, str]]  # (slice, stage label)


def _sd(group, t, shift, rep, coeff) -> SliceDescriptor:
    return SliceDescriptor(group, t, shift, rep, coeff)


def _shift_rho(items: list[SliceDescriptor]) -> list[SliceDescriptor]:
    """Suspend a family of quaternion slices by one regular representation."""
    out = []
    for d in items:
        rep = parse_rep("Q8", d.rep if d.rep else "0")
        mults = rep.mult_dict()
        for irr in ("1", "sigmaL", "sigmaD", "sigmaR"):
            mults[irr] = mults.get(irr, 0) + 1
        mults["H"] = mults.get("H", 0) + 1
        out.append(
            SliceDescriptor(
                d.group_name, d.t + 8, d.shift, _rep_str(mults, rep.shift), d.coeff
            )
        )
    return out


def _rep_str(mults: dict[str, int], shift: int = 0) -> str:
    """Render multiplicities back into the rep grammar, preferring the
    regular-representation bundles rhoQ and rhoK."""
    m = {k: v for k, v in mults.items() if v}
    triv = m.pop("1", 0) + shift
    h = m.pop("H", 0)
    sl = m.pop("sigmaL", 0)
    sd = m.pop("sigmaD", 0)
    sr = m.pop("sigmaR", 0)
    parts: list[str] = []
    q = min(h, sl, sd, sr, triv) if min(h, sl, sd, sr, triv) > 0 else 0
    if q:
        h, sl, sd, sr, triv = h - q, sl - q, sd - q, sr - q, triv - q
    k = min(sl, sd, sr, triv) if min(sl, sd, sr, triv) > 0 else 0
    if k:
        sl, sd, sr, triv = sl - k, sd - k, sr - k, triv - k
        parts.append("rhoK" if k == 1 else f"{k}rhoK")
    if q:
        parts.append("rhoQ" if q == 1 else f"{q}rhoQ")
    if triv:
        parts.insert(0, str(triv))
    for nm, v in (("sigmaL", sl), ("sigmaD", sd), ("sigmaR", sr), ("H", h)):
        if v:
            parts.append(nm if v == 1 else f"{v}{nm}")
    for nm, v in sorted(m.items()):
        parts.append(nm if v == 1 else f"{v}{nm}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# quaternion lower towers


@lru_cache(maxsize=None)
def _tower_r2(j: int) -> tuple[SliceDescriptor, ...]:
    """Slices of S^{2 + j rhoK} smashed with the integral Eilenberg-Mac Lane
    spectrum (j >= 1)."""
    if j == 1:
        return (_sd("Q8", 6, 2, "rhoK", "Z"),)
    if j == 2:
        return (
            _sd("Q8", 14, -1, "2rhoQ", "w*"),
            _sd("Q8", 12, 1, "rhoQ", "m"),
            _sd("Q8", 10, 2, "rhoQ", "Z(1,0)"),
        )
    top = (
        _sd("Q8", 8 * j - 2, -1, f"{j}rhoQ", "w*"),
        _sd("Q8", 8 * j - 4, 1, _mult_rho(j - 1), "m"),
        _sd("Q8", 8 * j - 6, 1, _mult_rho(j - 1), "phi_Z(F)"),
    )
    return top + tuple(_shift_rho(list(_tower_r2(j - 2))))


@lru_cache(maxsize=None)
def _tower_r3(j: int) -> tuple[SliceDescriptor, ...]:
    if j == 0:
        return (_sd("Q8", 3, 3, "", "Z"),)
    if j == 1:
        return (
            _sd("Q8", 8, 0, "rhoQ", "mgw"),
            _sd("Q8", 7, -1, "rhoQ", "Z*"),
        )
    top = (
        _sd("Q8", 8 * j, 0, _mult_rho(j), "mgw"),
        _sd("Q8", 8 * j - 4, 2, _mult_rho(j - 1), "phi_Z(F)"),
    )
    return top + tuple(_shift_rho(list(_tower_r3(j - 2))))


@lru_cache(maxsize=None)
def _tower_r4(j: int) -> tuple[SliceDescriptor, ...]:
    if j == 0:
        return (_sd("Q8", 4, 4, "", "Z"),)
    if j == 1:
        return (
            _sd("Q8", 12, 1, "rhoQ", "mg"),
            _sd("Q8", 10, 1, "rhoQ", "w"),
            _sd("Q8", 8, 0, "rhoQ", "Z*"),
        )
    top = (
        _sd("Q8", 8 * j + 4, 1, _mult_rho(j), "mg"),
        _sd("Q8", 8 * j + 2, 1, _mult_rho(j), "w"),
        _sd("Q8", 8 * j - 2, 3, _mult_rho(j - 1), "phi_Z(F)"),
    )
    return top + tuple(_shift_rho(list(_tower_r4(j - 2))))


@lru_cache(maxsize=None)
def _tower_r1(m: int) -> tuple[SliceDescriptor, ...]:
    """Slices of S^{1 + m rhoK} with integral coefficients (m >= 1)."""
    if m == 1:
        return (_sd("Q8", 5, 1, "rhoK", "Z"),)
    if m == 2:
        return (
            _sd("Q8", 12, 2, "rhoQ", "phi_Z(F)"),
            _sd("Q8", 9, 1, "rhoQ", "Z*"),
        )
    top = (
        _sd("Q8", 8 * (m - 1) + 4, 2, _mult_rho(m - 1), "phi_Z(F)"),
        _sd("Q8", 8 * (m - 1), 0, _mult_rho(m - 1), "B(3,0)"),
    )
    return top + tuple(_shift_rho(list(_tower_r1(m - 2))))


@lru_cache(maxsize=None)
def _tower_r5(j: int) -> tuple[SliceDescriptor, ...]:
    return (
        _sd("Q8", 8 * (j + 1), 0, _mult_rho(j + 1), "phi_Z(B(2,0))"),
    ) + _tower_r1(j + 1)


def _mult_rho(k: int) -> str:
    return "rhoQ" if k == 1 else f"{k}rhoQ"


# ---------------------------------------------------------------------------
# the slice lists


def slice_list(group_name: str, n: int) -> list[SliceDescriptor]:
    """All slices of the n-fold suspension, sorted by slice dimension."""
    gname = canonical_group_name(group_name)
    if n < 0:
        raise ValueError("only nonnegative suspensions carry slice data")
    if gname == "Q8":
        out = _slice_list_q8(n)
    elif gname == "C4":
        out = _slice_list_c4(n)
    else:
        raise Unsupported(f"no slice tables over {group_name}")
    out = sorted(out, key=lambda d: d.t)
    for d in out:
        d.check_bookkeeping()
    return out


def _slice_list_q8(n: int) -> list[SliceDescriptor]:
    if n <= 4:
        return [_sd("Q8", n, n, "", "Z")]
    j, r = divmod(n - 2, 4)
    r += 2  # n = 4j + r with r in {2,3,4,5}
    lower: list[SliceDescriptor] = []
    if r == 2:
        lower = list(_tower_r2(j)) + [_sd("Q8", 8 * j + 4, 1, _mult_rho(j), "m")]
    elif r == 3:
        lower = list(_tower_r3(j))
    elif r == 4:
        lower = list(_tower_r4(j))
    else:
        lower = list(_tower_r5(j))
    upper: list[SliceDescriptor] = []
    # suspended powers of g at the very top of the tower
    lo = 4 * n - 8
    hi = 8 * n - 32
    t = ((lo + 7) // 8) * 8
    while t <= hi:
        k = t // 8
        e = n - k - 3
        if e >= 1:
            upper.append(_sd("Q8", t, k, "", "g" if e == 1 else f"g^{e}"))
        t += 8
    if n % 2 == 0:
        t = ((2 * n + 4 + 7) // 8) * 8
        while t <= 4 * n - 16:
            k = t // 8
            e = (4 * k - n) // 2
            if e >= 1:
                upper.append(
                    _sd("Q8", t, 0, _mult_rho(k), "g" if e == 1 else f"g^{e}")
                )
            t += 8
        t = 2 * n + 4 + (12 - (2 * n + 4)) % 8
        while t <= 4 * n - 12:
            if t % 8 == 4:
                k = (t - 12) // 8
                upper.append(_sd("Q8", t, 3, _mult_rho(k), "phi_LDR(F)"))
            t += 8
    else:
        t = ((2 * n + 4 + 7) // 8) * 8
        while t <= 4 * n - 12:
            k = t // 8
            e = (4 * k - n - 3) // 2
            coeff = "phi_LDR(F*)" if e == 0 else f"g^{e}+phi_LDR(F*)" if e > 1 else "g+phi_LDR(F*)"
            upper.append(_sd("Q8", t, 0, _mult_rho(k), coeff))
            t += 8
        if n % 4 == 3:
            k = (n + 1) // 4
            upper.append(_sd("Q8", 2 * n + 2, 0, _mult_rho(k), "mg*"))
    return lower + upper


def _slice_list_c4(n: int) -> list[SliceDescriptor]:
    if n <= 4:
        return [_sd("C4", n, n, "", "Z")]
    out: list[SliceDescriptor] = []
    if n % 2 == 1:
        bottoms = {
            1: ((n - 5) // 4, "4+sigma"),
            3: ((n - 3) // 4, "3"),
            5: ((n - 5) // 4, "3+2sigma"),
            7: ((n - 3) // 4, "2+sigma"),
        }
        k, extra = bottoms[n % 8]
        out.append(_c4_bottom(n, k, extra))
        for t in range(n + 1, 2 * (n - 3) + 1):
            if t % 4:
                continue
            k = t // 4
            coeff = "B(2,0)" if k % 2 == 0 else "phi(f)"
            out.append(_sd("C4", t, 0, f"{k}rho" if k > 1 else "rho", coeff))
        for t in range(2 * (n - 1), 4 * (n - 3) + 1):
            if t % 4 or (t // 4) % 2:
                continue
            out.append(_sd("C4", t, t // 4, "", "g"))
    else:
        bottoms = {
            0: ((n - 4) // 4, "3+sigma"),
            2: ((n - 6) // 4, "3+3sigma"),
            4: ((n - 4) // 4, "4"),
            6: ((n - 6) // 4, "4+2sigma"),
        }
        k, extra = bottoms[n % 8]
        out.append(_c4_bottom(n, k, extra))
        for t in range(n + 2, 4 * n - 12 + 1):
            if t % 4 == 0 and (t // 4) % 2 == 1:
                out.append(_sd("C4", t, t // 4, "", "g"))
        for t in range(n + 2, 2 * n - 6 + 1):
            if t % 8 == 2:
                k = (t - 2) // 8
                out.append(
                    _sd("C4", t, 1, f"{2 * k}rho" if k else "", "phi(F)")
                )
            elif t % 8 == 6:
                k = (t - 6) // 8
                out.append(
                    _sd("C4", t, 3, f"{2 * k}rho" if k else "", "phi(F)")
                )
    return out


def _c4_bottom(n: int, k: int, extra: str) -> SliceDescriptor:
    rep_parts = []
    if k:
        rep_parts.append(f"{k}rho" if k > 1 else "rho")
    shift = 0
    extra_rep = []
    for token in extra.split("+"):
        if token.isdigit():
            shift = int(token)
        else:
            extra_rep.append(token)
    rep = "+".join(rep_parts + extra_rep)
    return _sd("C4", n, shift, rep, "Z")


# ---------------------------------------------------------------------------
# towers


def slice_tower(group_name: str, n: int) -> SliceTower:
    """Displayed slice towers for the quaternion suspensions n = 5..8."""
    if canonical_group_name(group_name) != "Q8" or n not in (5, 6, 7, 8):
        raise Unsupported("towers are recorded for Q8 and n in 5..8")
    Z = "Z"
    if n == 5:
        layers = [
            (_sd("Q8", 8, 0, "rhoQ", "phi_Z(B(2,0))"),
             "S^{5} H(Z) = S^{1+rhoK} H(Z(3,1))"),
            (_sd("Q8", 5, 1, "rhoK", Z), "bottom"),
        ]
    elif n == 6:
        layers = [
            (_sd("Q8", 16, 2, "", "g"), "S^{6} H(Z)"),
            (_sd("Q8", 12, 1, "rhoQ", "m"), "S^{2+rhoK} H(Z(2,1))"),
            (_sd("Q8", 6, 2, "rhoK", Z), "bottom"),
        ]
    elif n == 7:
        layers = [
            (_sd("Q8", 24, 3, "", "g"), "S^{7} H(Z)"),
            (_sd("Q8", 16, 2, "rhoQ", "m"), "S^{3+rhoK} H(Z(2,1))"),
            (_sd("Q8", 8, 0, "rhoQ", "mgw"), "S^{3+rhoK} H(Z)"),
            (_sd("Q8", 7, -1, "rhoQ", "Z*"), "bottom"),
        ]
    else:
        layers = [
            (_sd("Q8", 32, 4, "", "g"),
             "S^{8} H(Z) = S^{4+rhoK} H(Z(3,1))"),
            (_sd("Q8", 24, 3, "", "g^2"), "S^{4+rhoK} H(Z(2,1))"),
            (_sd("Q8", 20, 3, "rhoQ", "phi_LDR(F)"),
             "fiber of the map onto the three-level mod-2 functor"),
            (_sd("Q8", 12, 1, "rhoQ", "mg"),
             "S^{4+rhoK} H(Z) = S^{2rhoK} H(Z(3,1))"),
            (_sd("Q8", 10, 1, "rhoQ", "w"), "S^{2rhoK} H(Z(3,2))"),
            (_sd("Q8", 8, 0, "rhoQ", "Z*"), "bottom"),
        ]
    return SliceTower("Q8", n, layers)


def r_tower(r: int, j: int) -> SliceTower:
    """The recursive towers for S^{r + j rhoK} with integral coefficients."""
    if r not in (2, 3, 4, 5) or j < 0:
        raise Unsupported("towers exist for r in 2..5")
    builders = {2: _tower_r2, 3: _tower_r3, 4: _tower_r4, 5: _tower_r5}
    if r == 2 and j < 1:
        raise Unsupported("the r=2 family starts at j=1")
    layers = [(d, "") for d in builders[r](j)]
    n = r + 4 * j
    return SliceTower("Q8", n, layers)


# ---------------------------------------------------------------------------
# E2 pages


def e2_page(group_name: str, n: int):
    """Entries of the slice spectral sequence page for the n-fold
    suspension: pi_k of each slice at chart position (k, t - k)."""
    from .bredon import suspension_engine, identify
    from .chart import ChartPage, golden_differentials
    from .functors import expression_functor

    gname = canonical_group_name(group_name)
    entries: dict[tuple[int, int], list[str]] = {}
    for d in slice_list(gname, n):
        coeff = expression_functor(gname, d.coeff)
        eng = suspension_engine(gname, d.rep if d.rep else "0", coeff)
        for k in range(min(d.shift, 0), d.dim + 1):
            f = eng.functor(k - d.shift)
            if f.is_trivial():
                continue
            nm = identify(f) or "UNRECOGNIZED"
            cell = entries.setdefault((k, d.t - k), [])
            # charts draw summands as separate classes, base part first
            if "+" in nm:
                base, _, gpart = nm.rpartition("+")
                cell.extend([base, gpart])
            else:
                cell.append(nm)
    diffs = golden_differentials(gname, n)
    return ChartPage(gname, n, entries, diffs)
