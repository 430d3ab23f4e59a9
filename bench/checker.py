"""Output checker for the benchmark, written from the definitions alone.

Nothing here imports ``sievecodec``: the forbidden-value predicates, the
decoder, the membership test and the fixed-point search are re-derived from
the definitions, so a fault in the library cannot hide behind the same fault
in its checker.

An operator is given by its text (``sumfree``, ``coprime``, ``fs`` or
``normk:<k>``).  ``forbids(op, base, v)`` says whether v lies in J(base):

* ``sumfree``: v = a + b for some a, b in base (a == b allowed),
* ``coprime``: gcd(v, a) > 1 for some a in base,
* ``fs``: v is the sum of a nonempty subset of base,
* ``normk:k``: some integer vector y on base + {v} with y_v != 0,
  sum(y * x) == 0 and sum(y ** 2) < k exists; found by a bounded search.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from math import gcd, isqrt


def parse_op(text: str) -> tuple[str, int | None]:
    name, _, param = text.partition(":")
    if name == "normk":
        return name, int(param)
    if name in ("sumfree", "coprime", "fs") and not param:
        return name, None
    raise ValueError(f"unknown operator {text!r}")


def _reach(desc: list[int], index: dict[int, int], target: int, budget: int, start: int) -> bool:
    """Is ``target`` a sum of y_b * b over desc[start:] with sum(y_b**2) <= budget?

    ``desc`` is strictly decreasing and ``index`` maps each element to its
    position in it.  Each later term contributes at most its squared
    coefficient times the element, which bounds the reachable magnitude.
    """
    if target == 0:
        return True
    if budget == 0:
        return False
    magnitude = abs(target)
    for j in range(1, isqrt(budget) + 1):
        if magnitude % j == 0 and index.get(magnitude // j, -1) >= start:
            return True
    if budget < 2:  # no room for two terms
        return False
    for i in range(start, len(desc)):
        b = desc[i]
        if magnitude > budget * b:
            return False
        j = 1
        while j * j < budget:  # leave room for at least one more term
            if _reach(desc, index, target - j * b, budget - j * j, i + 1):
                return True
            if _reach(desc, index, target + j * b, budget - j * j, i + 1):
                return True
            j += 1
    return False


def has_relation(base, value: int, k: int) -> bool:
    """A relation on base + {value} of norm < k with a nonzero value coefficient."""
    desc = sorted(set(base) - {value}, reverse=True)
    index = {b: i for i, b in enumerate(desc)}
    y = 1
    while y * y < k:  # by symmetry the value's coefficient is positive
        if _reach(desc, index, y * value, k - 1 - y * y, 0):
            return True
        y += 1
    return False


def _subset_sum(desc: list[int], suffix: list[int], target: int, start: int) -> bool:
    if target == 0:
        return True
    if start == len(desc) or suffix[start] < target:
        return False
    b = desc[start]
    if b <= target and _subset_sum(desc, suffix, target - b, start + 1):
        return True
    return _subset_sum(desc, suffix, target, start + 1)


def forbids(op: tuple[str, int | None], base, value: int) -> bool:
    """Is ``value`` in J(base)?  ``base`` is any iterable of positive integers."""
    kind, k = op
    members = sorted(set(base))
    if not members:
        return False
    if kind == "sumfree":
        present = set(members)
        return any(value - a in present for a in members if 2 * a <= value)
    if kind == "coprime":
        return any(gcd(value, a) > 1 for a in members)
    if kind == "fs":
        desc = [b for b in reversed(members) if b <= value]
        suffix = [0] * (len(desc) + 1)
        for i in range(len(desc) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + desc[i]
        return _subset_sum(desc, suffix, value, 0)
    return has_relation(members, value, k)


def below(sorted_elements, value: int):
    return sorted_elements[: bisect_left(sorted_elements, value)]


def is_member(op, elements) -> bool:
    """No element lies in J of its strict predecessors."""
    ordered = sorted(elements)
    return not any(forbids(op, ordered[:i], a) for i, a in enumerate(ordered))


def stars(op, elements, horizon: int) -> list[int]:
    """Positions the decoder marks '*': non-members forbidden by members below."""
    ordered = sorted(elements)
    present = set(ordered)
    return [
        p for p in range(1, horizon + 1)
        if p not in present and forbids(op, below(ordered, p), p)
    ]


def encode(op, word: str) -> list[int]:
    """Accepted elements of the greedy encoder on ``word``."""
    accepted: list[int] = []
    candidate = 0
    for bit in word:
        candidate += 1
        while forbids(op, accepted, candidate):
            candidate += 1
        if bit == "1":
            accepted.append(candidate)
    return accepted


# --- record parsing -----------------------------------------------------------

def parse_prefix(text: str) -> tuple[tuple[int, ...], int]:
    left, sep, right = text.partition("@")
    if not sep:
        raise ValueError(f"prefix {text!r} has no horizon")
    elements = tuple(int(p) for p in left.split(",") if p.strip())
    return elements, int(right)


def records(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key:
            out[key] = value
    return out


_TERM = re.compile(r"(-?)\s*(\d+)\*(\d+)")


def parse_witness(text: str) -> tuple[dict[int, int], int]:
    """``"1*6 - 2*3 + 1*1 = 0 (norm 6)"`` -> ({6: 1, 3: -2, 1: 1}, 6)."""
    body, _, tail = text.partition("=")
    norm = int(re.search(r"norm (\d+)", tail).group(1))
    coeffs: dict[int, int] = {}
    for sign, coeff, element in _TERM.findall(body.replace("+ ", "").replace("- ", "-")):
        coeffs[int(element)] = -int(coeff) if sign else int(coeff)
    return coeffs, norm


# --- codec jobs ----------------------------------------------------------------

def _factors(n: int, spf: list[int]) -> set[int]:
    out = set()
    while n > 1:
        out.add(spf[n])
        n //= spf[n]
    return out


def forbidden_flags(op, accepted, horizon: int) -> list[bool] | None:
    """``flags[v]``: is v in J of the accepted elements below v, for every v
    in [1, horizon]?  Only for ``sumfree``, ``coprime`` and ``fs``; None for
    ``normk``, whose search is too slow to run at every position.
    """
    kind, _ = op
    if kind == "normk":
        return None
    elements = sorted(a for a in accepted if a <= horizon)
    flags = [False] * (horizon + 1)
    if kind == "coprime":
        spf = list(range(horizon + 1))
        for p in range(2, isqrt(horizon) + 1):
            if spf[p] == p:
                for m in range(p * p, horizon + 1, p):
                    if spf[m] == m:
                        spf[m] = p
        first = {}  # prime -> least accepted element it divides
        for a in elements:
            for p in _factors(a, spf):
                first.setdefault(p, a)
        for v in range(2, horizon + 1):
            flags[v] = any(first.get(p, v) < v for p in _factors(v, spf))
        return flags
    # Bit s of ``sums`` is set when s is a sum (two elements for sumfree, a
    # nonempty subset for fs) of the elements accepted so far; it is read over
    # each gap between consecutive accepted elements.
    cap = (1 << (horizon + 1)) - 1
    sums = members = 0
    low = 1
    for a in elements + [horizon + 1]:
        width = min(a, horizon + 1) - low + 1
        if width > 0:
            gap = (sums >> low) & ((1 << width) - 1)
            for offset, bit in enumerate(reversed(format(gap, f"0{width}b"))):
                if low + offset <= horizon:
                    flags[low + offset] = bit == "1"
        if a > horizon:
            break
        if kind == "sumfree":
            members |= 1 << a
            sums = (sums | (members << a)) & cap
        else:
            sums = (sums | (sums << a) | (1 << a)) & cap
        low = a + 1
    return flags


def check_codec(op_text, word, accepted, rejected, consumed, ternary, bits, violations, rng,
                samples=24) -> list[str]:
    """Check one encode + decode job.

    The decoder's ternary word must mark exactly the accepted elements '1',
    the rejected ones '0' and the skipped ones '*'.  Every skipped integer
    must be forbidden by the accepted elements below it, and no candidate
    may be.  For ``normk`` this is checked on ``samples`` candidates and
    ``samples`` skipped integers drawn with ``rng``, for the other operators
    at every position.
    """
    op = parse_op(op_text)
    problems = []
    if bits != word or ternary.replace("*", "") != bits:
        problems.append("decoding the encoded set does not give back the word")
    if any(not 1 <= a <= consumed for a in (*accepted, *rejected)):
        return problems + [f"an element lies outside [1, {consumed}]"]
    marks = ["*"] * consumed
    for a in rejected:
        marks[a - 1] = "0"
    for a in accepted:
        marks[a - 1] = "1"
    if "".join(marks) != ternary:
        problems.append("the decoder's ternary word does not match the encoder's classes")
    if violations:
        problems.append(f"decoder reports violations {list(violations)[:5]}")
    candidates = sorted(set(accepted) | set(rejected))
    if len(candidates) != len(word) or set(accepted) & set(rejected):
        return problems + ["candidates do not match the word length"]
    if candidates and candidates[-1] != consumed:
        problems.append(f"consumed {consumed} is not the last candidate {candidates[-1]}")
    taken = set(accepted)
    if any((c in taken) != (bit == "1") for c, bit in zip(candidates, word)):
        problems.append("an accepted candidate does not match a 1 bit")
    cand_set = set(candidates)
    flags = forbidden_flags(op, accepted, consumed)
    if flags is None:
        acc = sorted(accepted)
        skipped = [v for v in range(1, consumed + 1) if v not in cand_set]
        flags = {v: forbids(op, below(acc, v), v)
                 for v in rng.sample(candidates, min(samples, len(candidates)))
                 + rng.sample(skipped, min(samples, len(skipped)))}
        checked = flags
    else:
        checked = range(1, consumed + 1)
    for v in checked:
        if flags[v] and v in cand_set:
            problems.append(f"candidate {v} is forbidden by the accepted elements below it")
            break
        if not flags[v] and v not in cand_set:
            problems.append(f"skipped integer {v} is not forbidden by the accepted elements "
                            "below it")
            break
    return problems


# --- orbit jobs ----------------------------------------------------------------

def check_orbit(k, limit, start, dyn_code, dyn_out, suff_out) -> list[str]:
    """Check one ``dynamics --limit --split`` + ``sufficient`` job."""
    op = ("normk", k)
    problems = []
    if dyn_code != 0:
        return [f"dynamics exited with {dyn_code}"]
    iterates = []
    for line in dyn_out.splitlines():
        if line.startswith("iterate "):
            m = re.match(r"iterate index=(\d+) set=(.*) stars=(\d*)$", line)
            iterates.append((parse_prefix(m.group(2)), m.group(3)))
    rec = records(dyn_out)
    if not iterates or iterates[0][0] != start:
        problems.append("the first iterate is not the start prefix")
    for (cur, shed), (nxt, _) in zip(iterates, iterates[1:]):
        if nxt[1] != cur[1] - int(shed):
            problems.append(f"horizon {cur[1]} -> {nxt[1]} does not drop by {shed} stars")
    if rec.get("verdict") != "stabilized":
        return problems + [f"verdict {rec.get('verdict')!r}"]
    stable, horizon = parse_prefix(rec["stabilized"])
    if horizon != limit:
        problems.append(f"stabilized horizon {horizon} is not the limit {limit}")
    if stars(op, stable, horizon):
        problems.append("the stabilized prefix still has a star")
    fixed, residual = parse_prefix(rec["fixed"]), parse_prefix(rec["residual"])
    if fixed[0] + residual[0] != stable or fixed[1] != horizon or residual[1] != horizon:
        problems.append("fixed and residual do not make up the stabilized prefix")
    srec = records(suff_out)
    member = is_member(op, stable)
    if (srec.get("in-family") == "true") != member:
        problems.append(f"in-family={srec.get('in-family')} but membership is {member}")
    escapes = not is_member(("normk", k - 1), set(stable) | {1})
    if (srec.get("augmented-escapes") == "true") != escapes:
        problems.append("augmented-escapes disagrees with the membership test")
    witness = srec.get("witness")
    if witness and witness != "none":
        coeffs, norm = parse_witness(witness)
        if sum(c * e for e, c in coeffs.items()) != 0:
            problems.append(f"witness {witness!r} does not sum to 0")
        if coeffs.get(1) != 1 or norm != sum(c * c for c in coeffs.values()) or norm > k - 2:
            problems.append(f"witness {witness!r} breaks the coefficient or norm rule")
        if not set(coeffs) <= set(stable) | {1}:
            problems.append(f"witness {witness!r} uses elements outside the set")
    elif 1 not in stable:
        desc = sorted(stable, reverse=True)
        if _reach(desc, {b: i for i, b in enumerate(desc)}, -1, k - 3, 0):
            problems.append("no witness printed, but an anchored relation exists")
    holds = member and escapes and bool(witness) and witness != "none"
    if (srec.get("holds") == "true") != holds:
        problems.append("holds is not the conjunction of the three parts")
    return problems


# --- fixed-point jobs ------------------------------------------------------------

def encoder_fixed_points(k: int, max_element: int) -> list[tuple[int, ...]]:
    """Every subset S of [1, M] whose indicator word the encoder maps to S.

    Decides the integers 1..M in order while replaying the encoder.  A skipped
    integer must be outside S, candidate number i must be in S exactly when i
    is, and only a candidate equal to its own step number leaves a choice.
    Every subset not reached is ruled out by one of these forced steps, so
    the search is exhaustive without visiting all 2^M subsets.
    """
    op = ("normk", k)
    found = []

    def walk(step, candidate, chosen, accepted):
        # ``chosen`` holds S intersected with [1, candidate - 1].
        if step > max_element or candidate > max_element:
            found.append(tuple(chosen))
            return
        c = candidate
        while c <= max_element and forbids(op, accepted, c):
            c += 1  # skipped, so c is not in S
        if c > max_element:
            found.append(tuple(chosen))
            return
        if step == c:
            walk(step + 1, c + 1, chosen, accepted)
            walk(step + 1, c + 1, chosen + [c], accepted + [c])
        else:  # step < c, so bit ``step`` is already decided
            if step in chosen:
                walk(step + 1, c + 1, chosen + [c], accepted + [c])
            else:
                walk(step + 1, c + 1, chosen, accepted)

    walk(1, 1, [], [])
    return sorted(found)


def is_encoder_fixed_point(k: int, elements, max_element: int) -> bool:
    word = "".join("1" if i in set(elements) else "0" for i in range(1, max_element + 1))
    image = [a for a in encode(("normk", k), word) if a <= max_element]
    return image == sorted(elements)


def check_fixed_points(k, max_element, code, out, expected=None) -> list[str]:
    """Check one ``fixed-points`` call; ``expected`` is the independent list."""
    if code != 0:
        return [f"fixed-points exited with {code}"]
    printed = []
    for line in out.splitlines():
        if line.startswith("fixed-point set="):
            elements, horizon = parse_prefix(line.split("=", 1)[1])
            if horizon != max_element:
                return [f"fixed point {line!r} has the wrong horizon"]
            printed.append(elements)
    problems = []
    if int(records(out).get("count", -1)) != len(printed):
        problems.append("count does not match the printed sets")
    for elements in printed:
        if not is_encoder_fixed_point(k, elements, max_element):
            problems.append(f"{elements} is not an encoder fixed point")
    if expected is None:
        expected = encoder_fixed_points(k, max_element)
    if sorted(printed) != expected:
        problems.append(f"{len(printed)} fixed points printed, {len(expected)} exist")
    return problems
