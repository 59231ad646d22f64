"""Labeled colored Motzkin paths, possibility functions, and the six
bijections between permutations / set partitions and labeled paths, with
their inverses.

Steps are Rise ("R"), Fall ("F") and Level ("L"); level steps carry a
positive color.  Labels are either a single positive integer per step or
a pair (for doubly labeled paths); a possibility function gives, for each
step kind / color, the label bound as a function of the starting height.
"""

from collections import namedtuple
import json

from .mpoly import is_int
from .permstats import Permutation
from .setpartstats import SetPartition

RISE = "R"
FALL = "F"
LEVEL = "L"


class TypeMismatch(TypeError):
    """The object type does not match the requested bijection."""


class InvalidPath(ValueError):
    """The path is not a valid labeled Motzkin path for the bijection."""


class ColoredStep:
    """A single path step; color is meaningful for level steps only."""

    __slots__ = ("kind", "color")

    def __init__(self, kind, color=1):
        if not is_int(color):
            raise ValueError("step color %r is not an integer" % (color,))
        if kind not in (RISE, FALL, LEVEL):
            raise ValueError("kind must be one of R, F, L")
        if color < 1:
            raise ValueError("color must be a positive integer")
        self.kind = kind
        self.color = color if kind == LEVEL else 1

    def delta(self):
        return {RISE: 1, FALL: -1, LEVEL: 0}[self.kind]

    def __eq__(self, other):
        if not isinstance(other, ColoredStep):
            return NotImplemented
        return self.kind == other.kind and self.color == other.color

    def __hash__(self):
        return hash((self.kind, self.color))

    def __repr__(self):
        if self.kind == LEVEL:
            return "Level(%d)" % self.color
        return "Rise" if self.kind == RISE else "Fall"


class LabeledMotzkinPath:
    """A sequence of colored steps with one label (or a label pair) each."""

    __slots__ = ("steps", "labels", "_heights")

    def __init__(self, steps, labels):
        steps = tuple(steps)
        labels = tuple(tuple(l) if isinstance(l, (tuple, list)) else (l,)
                       for l in labels)
        for l in labels:
            if not all(map(is_int, l)):
                raise ValueError("step label %r is not a list of integers"
                                 % (list(l),))
        if len(steps) != len(labels):
            raise ValueError("need one label per step")
        self.steps = steps
        self.labels = labels
        self._heights = None

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        if not isinstance(other, LabeledMotzkinPath):
            return NotImplemented
        return self.steps == other.steps and self.labels == other.labels

    def __hash__(self):
        return hash((self.steps, self.labels))

    def heights(self):
        """Prefix heights h_0 .. h_n."""
        if self._heights is None:
            h = [0]
            for s in self.steps:
                h.append(h[-1] + s.delta())
            self._heights = tuple(h)
        return self._heights

    def __repr__(self):
        return "LabeledMotzkinPath(%r, %r)" % (list(self.steps),
                                               list(self.labels))


class PossibilityFunction:
    """Label bounds per step kind.

    `rise` and `fall` are functions height -> bound; `levels` is a
    sequence of such functions, one per level-step color.  For doubly
    labeled paths each function returns a pair of bounds.  A bound of 0
    forbids the step at that height.
    """

    __slots__ = ("rise", "fall", "levels")

    def __init__(self, rise, fall, levels):
        self.rise = rise
        self.fall = fall
        self.levels = tuple(levels)

    def bound(self, step, height):
        if step.kind == RISE:
            return self.rise(height)
        if step.kind == FALL:
            return self.fall(height)
        if step.color > len(self.levels):
            return 0
        return self.levels[step.color - 1](height)


def _bound_tuple(b):
    return tuple(b) if isinstance(b, (tuple, list)) else (b,)


def path_validate(p, pf):
    """True iff p is a Motzkin path and every label is within bounds."""
    h = p.heights()
    if h[-1] != 0 or min(h) < 0:
        return False
    for i, (step, label) in enumerate(zip(p.steps, p.labels)):
        bounds = _bound_tuple(pf.bound(step, h[i]))
        if len(label) != len(bounds):
            return False
        for l, b in zip(label, bounds):
            if not 1 <= l <= b:
                return False
    return True


# ---------------------------------------------------------------------------
# Possibility functions of the six bijections

PF_FZ = PossibilityFunction(
    rise=lambda k: k + 1,
    fall=lambda k: k,
    levels=(lambda k: k, lambda k: k, lambda k: 1))

PF_BIANE = PossibilityFunction(
    rise=lambda k: (1, 1),
    fall=lambda k: (k, k),
    levels=(lambda k: (1, k), lambda k: (k, 1), lambda k: (1, 1)))

PF_SETPART = PossibilityFunction(
    rise=lambda k: 1,
    fall=lambda k: k,
    levels=(lambda k: k, lambda k: 1))


# ---------------------------------------------------------------------------
# Permutation bijections

# The step of index i of a permutation sigma, keyed by the signs of
# sigma(i) - i and sigma^-1(i) - i: cycle valley -> rise, cycle peak ->
# fall, cycle double fall -> level 1, cycle double rise -> level 2, fixed
# point -> level 3.  _decode_fz reads it backwards.
_PERM_STEP = {(1, 1): ColoredStep(RISE), (-1, -1): ColoredStep(FALL),
              (-1, 1): ColoredStep(LEVEL, 1), (1, -1): ColoredStep(LEVEL, 2),
              (0, 0): ColoredStep(LEVEL, 3)}
_PERM_SIGNS = {step: signs for signs, step in _PERM_STEP.items()}


def _sign(x):
    return (x > 0) - (x < 0)


def _perm_steps(sigma):
    return [_PERM_STEP[_sign(sigma(i) - i), _sign(sigma.inverse_at(i) - i)]
            for i in range(1, sigma.n + 1)]


def _encode_fz(sigma):
    n = sigma.n
    w = sigma.oneline
    labels = []
    for i in range(1, n + 1):
        si = w[i - 1]
        if si > i:
            xi = 1 + sum(1 for j in range(1, i) if w[j - 1] > si)
        elif si < i:
            xi = 1 + sum(1 for j in range(i + 1, n + 1) if w[j - 1] < si)
        else:
            xi = 1
        labels.append(xi)
    return LabeledMotzkinPath(_perm_steps(sigma), labels)


def _decode_fz(p):
    n = len(p)
    signs = [_PERM_SIGNS[s] for s in p.steps]
    F = [i for i in range(1, n + 1) if signs[i - 1][0] > 0]
    Fp = [i for i in range(1, n + 1) if signs[i - 1][1] < 0]
    G = [i for i in range(1, n + 1) if signs[i - 1][0] < 0]
    Gp = [i for i in range(1, n + 1) if signs[i - 1][1] > 0]
    out = list(range(n + 1))  # fixed points stay
    # sigma on F from the left-to-right inversion table p_a = xi - 1:
    # reconstruct right to left, x_a = (p_a+1)-th largest remaining element
    avail = sorted(Fp)
    for idx in range(len(F) - 1, -1, -1):
        pa = p.labels[F[idx] - 1][0] - 1
        out[F[idx]] = avail.pop(len(avail) - 1 - pa)
    # sigma on G from the right-to-left inversion table:
    # reconstruct left to right, x_a = (p_a+1)-th smallest remaining element
    avail = sorted(Gp)
    for idx in range(len(G)):
        pa = p.labels[G[idx] - 1][0] - 1
        out[G[idx]] = avail.pop(pa)
    return Permutation(out[1:])


def _encode_biane(sigma):
    n = sigma.n
    w = sigma.oneline
    labels = []
    for i in range(1, n + 1):
        si = w[i - 1]
        ti = sigma.inverse_at(i)
        if si > i and ti > i:  # cval
            labels.append((1, 1))
        elif si == i:
            labels.append((1, 1))
        else:
            if ti < i:  # cdrise or cpeak: first label
                xi1 = 1 + sum(1 for k in range(1, ti) if w[k - 1] > i)
            else:
                xi1 = 1
            if si < i:  # cdfall or cpeak: second label
                xi2 = 1 + sum(1 for k in range(i + 1, n + 1) if w[k - 1] < si)
            else:
                xi2 = 1
            labels.append((xi1, xi2))
    return LabeledMotzkinPath(_perm_steps(sigma), labels)


def _decode_biane(p):
    n = len(p)
    # top[r] = r-th dot with no outgoing arrow yet;
    # bot[r] = r-th dot with no incoming arrow yet
    top = []
    bot = []
    out = [0] * (n + 1)
    for i in range(1, n + 1):
        s = p.steps[i - 1]
        l1, l2 = p.labels[i - 1]
        if s.kind == RISE:
            top.append(i)
            bot.append(i)
        elif s.kind == FALL:
            # arrows i -> (l2-th free bottom dot) and (l1-th free top) -> i
            out[i] = bot.pop(l2 - 1)
            out[top.pop(l1 - 1)] = i
        elif s.color == 1:
            # cdfall: arrow i -> (l2-th free bottom dot)
            out[i] = bot.pop(l2 - 1)
            bot.append(i)
            bot.sort()
        elif s.color == 2:
            # cdrise: arrow (l1-th free top dot) -> i
            out[top.pop(l1 - 1)] = i
            top.append(i)
            top.sort()
        else:
            out[i] = i
    return Permutation(out[1:])


# ---------------------------------------------------------------------------
# Set-partition bijections

def _sp_steps(pi):
    """2-colored Motzkin steps: opener -> rise, closer -> fall,
    insider -> level 1, singleton -> level 2."""
    kinds = {}
    for b in pi.blocks:
        if len(b) == 1:
            kinds[b[0]] = ("L", 2)
        else:
            kinds[b[0]] = ("R", 1)
            kinds[b[-1]] = ("F", 1)
            for j in b[1:-1]:
                kinds[j] = ("L", 1)
    return [ColoredStep(*kinds[i]) for i in range(1, pi.n + 1)]


def _open_order(open_blocks, mode):
    """The open blocks, each a growing list of its elements, in rank
    order: by last element for "last" (as in KZ), by opener for "first"
    (as in Flajolet)."""
    end = -1 if mode == "last" else 0
    return sorted(open_blocks, key=lambda b: b[end])


def _sp_labels(pi, order_insider, order_closer):
    """Labels for the KZ/Flajolet/hybrid family: 1 at openers and
    singletons, else the rank of the element's block among the open
    blocks in the order that `order_insider` or `order_closer` names."""
    block_of = {j: b for b in pi.blocks for j in b}
    grown = {}  # the open blocks: each block's elements so far
    labels = []
    for i in range(1, pi.n + 1):
        b = block_of[i]
        if i == b[0]:
            labels.append(1)
            if len(b) > 1:
                grown[b] = [i]
            continue
        mode = order_closer if i == b[-1] else order_insider
        labels.append(1 + _open_order(grown.values(), mode).index(grown[b]))
        grown[b].append(i)
        if i == b[-1]:
            del grown[b]
    return labels


def _decode_sp(p, order_insider, order_closer):
    open_blocks = []
    done = []
    for i, (s, (xi,)) in enumerate(zip(p.steps, p.labels), start=1):
        if s.kind == RISE:
            open_blocks.append([i])
        elif s.kind == LEVEL and s.color == 2:
            done.append([i])
        else:
            mode = order_closer if s.kind == FALL else order_insider
            b = _open_order(open_blocks, mode)[xi - 1]
            b.append(i)
            if s.kind == FALL:
                open_blocks.remove(b)
                done.append(b)
    return SetPartition(done)


# ---------------------------------------------------------------------------
# The six bijections

Bijection = namedtuple("Bijection", "takes pf orders encode decode")
Bijection.__doc__ = """One bijection: the object type it takes, its
possibility function, the orders (insider, closer) of the open blocks for
the set-partition bijections (None for the permutation ones), its encoder
and its decoder, which `decode` hands only paths that the possibility
function admits."""


def _sp_bijection(insider, closer):
    return Bijection(
        SetPartition, PF_SETPART, (insider, closer),
        lambda pi: LabeledMotzkinPath(_sp_steps(pi),
                                      _sp_labels(pi, insider, closer)),
        lambda p: _decode_sp(p, insider, closer))


BIJECTIONS = {
    "FZ": Bijection(Permutation, PF_FZ, None, _encode_fz, _decode_fz),
    "Biane": Bijection(Permutation, PF_BIANE, None, _encode_biane,
                       _decode_biane),
    "KZ": _sp_bijection("last", "last"),
    "Flajolet": _sp_bijection("first", "first"),
    "Hybrid3": _sp_bijection("last", "first"),
    "Hybrid4": _sp_bijection("first", "last"),
}


# ---------------------------------------------------------------------------
# Public encode / decode

def _lookup(bijection):
    try:
        return BIJECTIONS[bijection]
    except KeyError:
        raise TypeMismatch("unknown bijection %r" % (bijection,)) from None


def encode(obj, bijection):
    """Map a permutation or set partition to its labeled Motzkin path."""
    bij = _lookup(bijection)
    if not isinstance(obj, bij.takes):
        raise TypeMismatch("%s expects a %s" % (
            bijection,
            "permutation" if bij.takes is Permutation else "set partition"))
    return bij.encode(obj)


def decode(p, bijection):
    """Inverse of encode; raises InvalidPath for paths outside the image:
    each decoder takes only paths valid for its possibility function."""
    bij = _lookup(bijection)
    if not path_validate(p, bij.pf):
        raise InvalidPath("not a valid path for the %s possibility function"
                          % (bijection if bij.takes is Permutation
                             else "set-partition"))
    return bij.decode(p)


# ---------------------------------------------------------------------------
# JSON form: {"steps":[{"kind":"L","color":3,"label":[1]} ...]}

def path_to_json_obj(p):
    return {"steps": [
        {"kind": s.kind, "color": s.color, "label": list(l)}
        for s, l in zip(p.steps, p.labels)]}


def path_from_json_obj(obj):
    """Path of the JSON form above; InvalidPath when the form is not an
    object with a "steps" list of step objects, each with a list as its
    label, and ValueError from the step or path it would build."""
    if not isinstance(obj, dict) or not isinstance(obj.get("steps"), list):
        raise InvalidPath('a path is an object with a "steps" list')
    steps = []
    labels = []
    for d in obj["steps"]:
        if not isinstance(d, dict):
            raise InvalidPath("a step is an object, not %r" % (d,))
        steps.append(ColoredStep(d.get("kind"), d.get("color", 1)))
        label = d.get("label")
        if not isinstance(label, list):
            raise InvalidPath("step label %r is not a list of integers"
                              % (label,))
        labels.append(label)
    return LabeledMotzkinPath(steps, labels)


def path_from_json(text):
    return path_from_json_obj(json.loads(text))
