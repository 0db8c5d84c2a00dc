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
