"""The one nesting walk, setalg._nested_pairs, and the weighted count
setalg._scaled_count, against plain references.

The walk is compared with a scan of every pair of cylinders across two
groups through oracle.cylinder_relation, on drawn groups that repeat keys
within a group and across groups and nest many levels deep.  The
disjointness check of PSet(...) names its overlapping pair with the
walk; the per-resolution truncation loop that once decided it is kept
here, and both must raise the same message on drawn lists.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin_wavelets.setalg import Cylinder, PSet, _nested_pairs, _scaled_count, _truncate

from .oracle import cylinder_relation
from .test_setalg import hashed_overlap_message, pairwise_overlap_message


def scanned_pairs(groups):
    """Every (j, b, i, r) by a scan over all pairs of cylinders."""
    out = []
    for j, group in enumerate(groups):
        for b in group:
            for i, other in enumerate(groups):
                if i != j:
                    out.extend(
                        (j, b, i, a.resolution)
                        for a in other
                        if cylinder_relation(a, b) in ("contains", "equal")
                    )
    return out


def truncation_loop_message(cyls):
    """The disjointness check before the walk: one lookup of each
    cylinder's truncation per resolution present."""
    at = {}
    for i, c in enumerate(cyls):
        at.setdefault((c.resolution, c.digits), []).append(i)
    resolutions = sorted({c.resolution for c in cyls})
    first = None
    for j, b in enumerate(cyls):
        for r in resolutions:
            if r > b.resolution:
                break
            for i in at.get((r, _truncate(b.digits, r)), ()):
                if i != j:
                    pair = (i, j) if i < j else (j, i)
                    if first is None or pair < first:
                        first = pair
    if first is None:
        return None
    a, b = cyls[first[0]], cyls[first[1]]
    return f"cylinders overlap: {a.to_json()} and {b.to_json()}"


def chain_pool(p, roots):
    """Cylinders from (root, steps) specs: each root and a chain of ever
    finer cylinders below it, one per step of (resolution gain, digits)."""
    pool = []
    for (r, digits), steps in roots:
        c = Cylinder(p, r, tuple(sorted((pos, d) for pos, d in digits.items() if pos <= r)))
        pool.append(c)
        for gain, extra in steps:
            # Digit keys are offsets, folded into the gain's positions.
            new = {c.resolution + 1 + k % gain: d for k, d in extra.items()}
            c = Cylinder(p, c.resolution + gain, c.digits + tuple(sorted(new.items())))
            pool.append(c)
    return pool


@st.composite
def nested_groups(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    digit = st.integers(1, p - 1)
    root = st.tuples(st.integers(-3, 3), st.dictionaries(st.integers(-6, 3), digit, max_size=3))
    step = st.tuples(st.integers(1, 4), st.dictionaries(st.integers(0, 3), digit, max_size=2))
    roots = draw(st.lists(st.tuples(root, st.lists(step, max_size=5)), min_size=1, max_size=4))
    pool = chain_pool(p, roots)
    groups = draw(st.lists(st.lists(st.sampled_from(pool), max_size=6), min_size=1, max_size=5))
    return p, groups


def assert_walk_matches_scan(groups):
    assert Counter(_nested_pairs(groups)) == Counter(scanned_pairs(groups))


class TestNestedPairs:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(nested_groups())
    def test_walk_matches_relation_scan(self, drawn):
        _, groups = drawn
        assert_walk_matches_scan(groups)

    def test_walk_meets_every_shape(self):
        # Seeded draws of the same kind, counting the shapes the walk must
        # get right: an equal key in two groups, an equal key twice in one
        # group (no pair), and containers four or more levels coarser.
        gen = random.Random("nested-pairs")
        shapes = Counter()
        for _ in range(200):
            p = gen.choice([2, 3, 5])
            roots = [
                ((gen.randrange(-3, 4), {gen.randrange(-6, 4): gen.randrange(1, p)}),
                 [(gen.randrange(1, 5), {gen.randrange(4): gen.randrange(1, p)})
                  for _ in range(gen.randrange(6))])
                for _ in range(gen.randrange(1, 5))
            ]
            pool = chain_pool(p, roots)
            groups = [[gen.choice(pool) for _ in range(gen.randrange(7))]
                      for _ in range(gen.randrange(1, 6))]
            assert_walk_matches_scan(groups)
            pairs = list(_nested_pairs(groups))
            shapes["equal across"] += any(r == b.resolution for _, b, _, r in pairs)
            shapes["equal within"] += any(len(g) > len(set(g)) for g in groups)
            shapes["deep"] += any(b.resolution - r >= 4 for _, b, _, r in pairs)
            shapes["levels"] += len({c.resolution for g in groups for c in g}) >= 6
        assert min(shapes.values()) >= 20 and len(shapes) == 4, shapes

    def test_deep_group_beside_shallow_ones(self):
        # A spectrum-like chain 300 resolutions deep in one group: its
        # lookups stop at the finest other group, which must lose nothing.
        p = 2
        chain = [Cylinder(p, r, ((r, 1),)) for r in range(1, 301)]
        shallow = [Cylinder(p, 0, ()), Cylinder(p, 3, ((3, 1),))]
        deeper = [Cylinder(p, 7, ()), chain[150]]
        for groups in ([chain], [chain, shallow], [shallow, chain, deeper]):
            assert_walk_matches_scan(groups)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(nested_groups(), st.randoms(use_true_random=False))
    def test_disjointness_message_matches_truncation_loop(self, drawn, shuffle):
        _, groups = drawn
        cyls = [c for g in groups for c in g]
        shuffle.shuffle(cyls)
        want = truncation_loop_message(cyls)
        assert hashed_overlap_message(cyls) == want == pairwise_overlap_message(cyls)


class TestScaledCount:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.integers(2, 7),
        st.lists(st.tuples(st.integers(-40, 60), st.integers(0, 9)), max_size=30),
        st.integers(0, 20),
    )
    def test_matches_the_plain_sum(self, p, terms, above):
        scale = max([r for r, _ in terms], default=0) + above
        want = sum(w * p ** (scale - r) for r, w in terms)
        assert _scaled_count(p, terms, scale) == want

    def test_deep_set_measure(self):
        # The cylinders whose first nonzero digit is at r = 1 .. 3000, of
        # measure 2^-r each: the set has measure 1 - 2^-3000, exactly.
        p, depth = 2, 3000
        s = PSet(p, [Cylinder(p, r, ((r, 1),)) for r in range(1, depth + 1)], validate=False)
        m = s.measure()
        assert (m.count, m.scale) == (2**depth - 1, depth)
