"""Naive loops over Python sets and image lists, shared by the tests as
oracles that are independent of the batched kernels of involq."""

import itertools

import numpy as np


def line_sets(geom):
    """The points of every line, one Python set per row of the incidence."""
    return [set(np.flatnonzero(on).tolist()) for on in geom.incidence]


def naive_line_of_pair(geom):
    """The line of every pair of distinct points, {(p, q): line}, by a loop
    over the pairs of each line's points; a pair on two lines keeps the
    last."""
    return {(p, q): lid for lid, line in enumerate(line_sets(geom))
            for p, q in itertools.permutations(sorted(line), 2)}


def naive_closure(geom, seed):
    """The least superset of ``seed`` holding the line of each of its pairs,
    by a loop over Python sets."""
    lines = line_sets(geom)
    line_of_pair = naive_line_of_pair(geom)
    current = set(seed)
    while True:
        joined = {line_of_pair[a, b] for a, b in itertools.permutations(current, 2)}
        grown = current.union(*(lines[lid] for lid in joined))
        if grown == current:
            return current
        current = grown


def naive_verdict(geom, point_set):
    """(failed hypothesis, line count) of the set, pair by pair: (a) some
    member pair whose line leaves the set, else (b) some pair of contained
    lines that do not meet, else None; and the lines inside the set."""
    X = set(point_set)
    lines = line_sets(geom)
    line_of_pair = naive_line_of_pair(geom)
    inside = [lid for lid, points in enumerate(lines) if points <= X]
    leaves = {}  # line -> whether it leaves X, read once per line
    for a, b in itertools.combinations(sorted(X), 2):
        lid = line_of_pair[a, b]
        if lid not in leaves:
            leaves[lid] = not lines[lid] <= X
        if leaves[lid]:
            return "a", len(inside)
    for l, m in itertools.combinations(inside, 2):
        if not lines[l] & lines[m]:
            return "b", len(inside)
    return None, len(inside)


def naive_order(images):
    """The order of a permutation, by composing its image list with itself
    until the identity comes back."""
    g = [int(x) for x in images]
    power, n = g, 1
    while power != list(range(len(g))):
        power, n = [g[x] for x in power], n + 1
    return n


def naive_chain(elements):
    """The stabilizer chain of an element array along its greedy base, by one
    walk over the points, and the element at each lexicographic rank of the
    base images: (levels, position), levels in the form of
    ``involq.permgroup._level`` (point, offset, rows, inverse).

    Point b joins the base when its images split some class of elements
    that the images of the earlier base points leave together; the walk
    stops once every element is told apart, so the trivial group has no
    level. Level k's rows hold, for each point y of the orbit of b_k under
    the elements fixing the earlier base points, in ascending order, the
    first such element that sends b_k to y. Duplicate elements share a
    rank, so the walk ends with fewer classes than elements, and a group
    built on it refuses them."""
    elements = np.asarray(elements, dtype=np.int64)
    order, degree = elements.shape
    rank = np.zeros(order, dtype=np.int64)  # of each element's class
    at = np.arange(order)  # the elements that fix the base points so far
    classes, levels = 1, []
    for point in range(degree):
        if classes == order:
            break
        keys = rank * degree + elements[:, point]
        hit = np.zeros(classes * degree, dtype=bool)
        hit[keys] = True
        table = np.cumsum(hit) - 1
        if table[-1] + 1 == classes:
            continue
        rank, classes = table[keys], int(table[-1]) + 1
        images = elements[at, point]
        orbit = np.unique(images)
        rows = elements[[at[images == y][0] for y in orbit]].astype(np.int32)
        offset = np.full(degree, -1)
        offset[orbit] = np.arange(len(orbit)) * degree
        levels.append((point, offset, rows, np.argsort(rows, axis=1).astype(np.int32).reshape(-1)))
        at = at[images == point]
    position = np.zeros(order, dtype=np.int64)  # in range where duplicates share a rank
    position[rank] = np.arange(order)
    return levels, position
