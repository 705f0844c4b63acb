from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathcomb as pc
from pathcomb import combing
from pathcomb.combing import (CombTrace, InsufficientVerticalSteps, NotDisjoint,
                              ResidualVerticalSteps)

import oracles
from conftest import bit_triangles, column_sums, valid_families


def tri(*rows):
    return pc.BitTriangle.from_rows([(), *rows])


def partial_b(f, row, j):
    return sum(f.B[row][:j])


def in_forward_domain(f, i, k):
    """The inequality form of the forward operation's legal inputs."""
    if any(f.D[r][j] for r in (i, i + 1) for j in range(k)):
        return False
    if f.D[i + 1][k] != 0:
        return False
    return all(partial_b(f, i + 1, j) <= f.D[i][k] + partial_b(f, i, j)
               for j in range(k + 1))


def in_backward_domain(f, i, k):
    """The inequality form of the backward operation's legal inputs."""
    if any(f.D[r][j] for r in (i, i + 1) for j in range(k)):
        return False
    if not all(partial_b(f, i + 1, j) <= partial_b(f, i, j) for j in range(k)):
        return False
    return partial_b(f, i + 1, k) + f.D[i + 1][k] <= partial_b(f, i, k)


def disj_oracle(f, i, k):
    """Forward operation recomputed from path geometry: running maxima of
    entry-level gaps, then paths rebuilt from the shifted height functions.
    Independent of the row-local loop in disj_step."""
    paths = pc.explicit_paths(f)

    def height(path, j):
        return max(lev for lev, col in path.points() if col == j)

    h0 = [height(paths[i], j) for j in range(k + 1)]
    h1 = [height(paths[i + 1], j) for j in range(k + 1)]
    d = []
    for j in range(k + 1):
        v = h0[j] + 1 - h1[j]
        d.append(v if not d else max(d[-1], v))
    h0p = [h0[j] - d[j] for j in range(k + 1)]
    h1p = [h1[j] + d[j] for j in range(k + 1)]
    B = [list(r) for r in f.B]
    D = [list(r) for r in f.D]
    for j in range(k):
        B[i][j] = h0p[j] - h0p[j + 1]
        B[i + 1][j] = h1p[j] - h1p[j + 1]
    D[i][k] -= d[k]
    D[i + 1][k] = d[k]
    return (pc.PathFamily(tuple(map(tuple, B)), tuple(map(tuple, D))), tuple(d))


def ref_check_clear_before(f, i, k):
    for row in (i, i + 1):
        for j in range(k):
            if f.D[row][j]:
                raise pc.ResidualVerticalSteps(
                    f"D[{row}][{j}] = {f.D[row][j]} but rows {i}..{i + 1} may hold no "
                    f"vertical steps before column {k}")


def ref_disj(B, D, i, k):
    """The forward operation one column at a time: the scan that the chunked
    kernel replaced, kept as its reference."""
    if D[i + 1][k]:
        raise pc.ResidualVerticalSteps(
            f"D[{i + 1}][{k}] = {D[i + 1][k]} must be 0 before the forward operation")
    bi, bi1 = B[i], B[i + 1]
    cur = 0
    d = 0
    seq = [0]
    for j in range(k):
        cur += bi1[j] - bi[j]
        if cur > d:
            d = cur
            bi[j], bi1[j] = 1, 0
        seq.append(d)
    if D[i][k] < d:
        raise pc.InsufficientVerticalSteps(
            f"need {d} vertical steps in D[{i}][{k}] but only {D[i][k]} present")
    D[i][k] -= d
    D[i + 1][k] = d
    return tuple(seq)


def ref_clify(B, D, h, i, k):
    """The backward operation one column at a time, from column k-1 down."""
    d = D[i + 1][k]
    cur = h[i + 1] - h[i] - 1
    if not 0 <= d <= cur:
        if cur < 0:
            raise pc.NotDisjoint(f"paths {i},{i + 1} meet at or before column {k}")
        raise pc.NotDisjoint(
            f"paths {i},{i + 1} are not disjoint up to column {k}: "
            f"gap {cur} cannot absorb {d} vertical steps")
    D[i + 1][k] = 0
    D[i][k] += d
    h[i + 1] -= d
    h[i] += d
    seq = [0] * (k + 1)
    seq[k] = d
    bi, bi1 = B[i], B[i + 1]
    for j in range(k - 1, -1, -1):
        cur += bi1[j] - bi[j]
        if cur < 0:
            raise pc.NotDisjoint(f"paths {i},{i + 1} collide in column {j}")
        if cur < d:
            d = cur
            bi[j], bi1[j] = 0, 1
        seq[j] = d
    return tuple(seq)


def lists(f):
    return [list(r) for r in f.B], [list(r) for r in f.D]


def frozen(B, D):
    return pc.PathFamily(tuple(map(tuple, B)), tuple(map(tuple, D)))


def ref_disj_step(f, i, k):
    if not 0 <= k <= i < f.n - 1:
        raise ValueError(f"need 0 <= k <= i < n-1, got i={i}, k={k}, n={f.n}")
    ref_check_clear_before(f, i, k)
    B, D = lists(f)
    seq = ref_disj(B, D, i, k)
    return frozen(B, D), CombTrace(i, k, seq)


def ref_clify_step(f, i, k):
    if not 0 <= k <= i < f.n - 1:
        raise ValueError(f"need 0 <= k <= i < n-1, got i={i}, k={k}, n={f.n}")
    ref_check_clear_before(f, i, k)
    B, D = lists(f)
    seq = ref_clify(B, D, list(pc.entry_levels(f, k)), i, k)
    return frozen(B, D), CombTrace(i, k, seq)


def ref_comb_column(B, D, k, sink):
    for i in range(k, len(B) - 1):
        sink.append(CombTrace(i, k, ref_disj(B, D, i, k)))


def ref_uncomb_column(B, D, h, k, sink):
    for i in range(len(B) - 2, k - 1, -1):
        sink.append(CombTrace(i, k, ref_clify(B, D, h, i, k)))


def ref_comb(t, sink):
    """comb through the reference scan, its traces into sink."""
    B, D = lists(pc.family_from_bits(t))
    for k in range(t.n - 1, -1, -1):
        ref_comb_column(B, D, k, sink)
    return frozen(B, D)


def ref_uncomb(f, sink):
    """uncomb through the reference scan, its traces into sink."""
    pc.explicit_paths(f)  # raises InvalidFamily for an invalid family
    B, D = lists(f)
    h = list(range(f.n))
    for k in range(f.n):
        ref_uncomb_column(B, D, h, k, sink)
        for i in range(k + 1, f.n):
            h[i] -= B[i][k]
    return pc.BitTriangle(tuple(map(tuple, B)))


def traced(fn, arg):
    """What fn(arg, sink) gives, with the traces it put in sink."""
    sink = []
    return outcome(fn, arg, sink), sink


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (pc.PreconditionViolation, ValueError) as exc:
        return type(exc), str(exc)


class TestDisjStep:
    def test_equal_rows_no_change(self):
        f = pc.family_from_bits(tri([1], [1, 0]))
        g, trace = pc.disj_step(f, 1, 1)
        assert g == f
        assert trace.d_seq == (0, 0) and trace.transferred == 0

    def test_single_swap_pair(self):
        f = pc.family_from_bits(tri([0], [1, 0]))
        g, trace = pc.disj_step(f, 1, 1)
        assert g.B[1] == (1,) and g.B[2] == (0, 0)
        assert g.D[1][1] == 0 and g.D[2][1] == 1
        assert trace.d_seq == (0, 1)

    def test_worked_pair_columns_4_6_15_23(self):
        # two rows whose direction-difference prefix sums first reach
        # 1, 2, 3, 4 at the passages to columns 4, 6, 15 and 23
        deltas = {3: 1, 5: 1, 6: -1, 7: 1, 14: 1, 15: -1, 16: 1, 22: 1}
        n, i, k = 25, 23, 23
        rows = [[1] * r for r in range(n)]
        for j, delta in deltas.items():
            rows[i][j], rows[i + 1][j] = (0, 1) if delta == 1 else (1, 0)
        f = pc.family_from_bits(pc.BitTriangle.from_rows(rows))
        g, trace = pc.disj_step(f, i, k)
        increments = tuple(j for j in range(k) if trace.d_seq[j] < trace.d_seq[j + 1])
        assert increments == (3, 5, 14, 22)  # passages to columns 4, 6, 15, 23
        assert tuple(trace.d_seq[j] for j in increments) == (0, 1, 2, 3)
        assert trace.transferred == 4
        assert g.D[i][k] == f.D[i][k] - 4 and g.D[i + 1][k] == 4
        swapped = tuple(j for j in range(k) if g.B[i][j] != f.B[i][j])
        assert swapped == (3, 5, 14, 22)
        for j in swapped:
            assert (g.B[i][j], g.B[i + 1][j]) == (1, 0)

    def test_matches_geometric_oracle_exhaustive(self, schroder_by_n):
        for n in (2, 3, 4):
            for f in schroder_by_n[n]:
                for i in range(n - 1):
                    for k in range(i + 1):
                        if not in_forward_domain(f, i, k):
                            continue
                        got, trace = pc.disj_step(f, i, k)
                        want, d = disj_oracle(f, i, k)
                        assert got == want
                        assert trace.d_seq == d

    def test_trace_monotone(self, schroder_by_n):
        for f in schroder_by_n[4]:
            for i in range(3):
                for k in range(i + 1):
                    if in_forward_domain(f, i, k):
                        seq = pc.disj_step(f, i, k)[1].d_seq
                        assert seq[0] == 0
                        assert all(b - a in (0, 1) for a, b in zip(seq, seq[1:]))

    def test_insufficient_vertical_steps(self):
        f = pc.family_from_bits(tri([1], [0, 1], [1, 1, 1]))
        f = pc.PathFamily.from_rows(f.B, [(0,), (0, 0), (0, 0, 1), (0, 0, 0, 0)])
        assert pc.validate_family(f) == []
        with pytest.raises(pc.InsufficientVerticalSteps):
            pc.disj_step(f, 2, 1)

    def test_residual_vertical_steps(self):
        f = pc.PathFamily.from_rows([[], [0], [0, 1]], [[0], [0, 1], [0, 1, 0]])
        assert pc.validate_family(f) == []
        with pytest.raises(pc.ResidualVerticalSteps):
            pc.disj_step(f, 1, 1)

    def test_bad_indices(self):
        f = pc.family_from_bits(tri([0]))
        with pytest.raises(ValueError):
            pc.disj_step(f, 1, 0)


class TestClifyStep:
    def test_identity_case(self):
        f = pc.family_from_bits(tri([1], [1, 0]))
        h = pc.entry_levels(f, 1)
        g, trace = pc.clify_step(f, 1, 1)
        assert g == f and pc.entry_levels(g, 1) == h and trace.transferred == 0

    def test_single_swap_pair_inverse(self):
        f = pc.PathFamily.from_rows([[], [1], [0, 0]], [[0], [0, 0], [0, 1, 1]])
        h = pc.entry_levels(f, 1)
        assert h[1:] == (0, 2)
        g, _ = pc.clify_step(f, 1, 1)
        assert g.B[1] == (0,) and g.B[2] == (1, 0)
        assert g.D[1][1] == 1 and g.D[2][1] == 0
        assert pc.entry_levels(g, 1)[1:] == (1, 1)

    def test_inverts_disj_step_exhaustive(self, schroder_by_n):
        for n in (2, 3, 4):
            for f in schroder_by_n[n]:
                for i in range(n - 1):
                    for k in range(i + 1):
                        if not in_forward_domain(f, i, k):
                            continue
                        g, ftrace = pc.disj_step(f, i, k)
                        assert in_backward_domain(g, i, k)
                        back, btrace = pc.clify_step(g, i, k)
                        assert back == f
                        assert btrace.d_seq == ftrace.d_seq

    def test_disj_step_inverts_clify_exhaustive(self, schroder_by_n):
        for n in (2, 3, 4):
            for f in schroder_by_n[n]:
                for i in range(n - 1):
                    for k in range(i + 1):
                        if not in_backward_domain(f, i, k):
                            continue
                        g, _ = pc.clify_step(f, i, k)
                        assert in_forward_domain(g, i, k)
                        assert pc.disj_step(g, i, k)[0] == f

    def test_set_bijection_per_stage(self, schroder_by_n):
        # the forward operation maps the inequality-defined domain set
        # bijectively onto the inequality-defined codomain set
        for n in (3, 4):
            for i in range(n - 1):
                for k in range(i + 1):
                    domain = {f for f in schroder_by_n[n] if in_forward_domain(f, i, k)}
                    codomain = {f for f in schroder_by_n[n] if in_backward_domain(f, i, k)}
                    image = {pc.disj_step(f, i, k)[0] for f in domain}
                    assert len(image) == len(domain)
                    assert image == codomain

    def test_rejects_exactly_outside_backward_domain(self, schroder_by_n):
        for n in (2, 3, 4):
            for f in schroder_by_n[n]:
                for i in range(n - 1):
                    for k in range(i + 1):
                        if any(f.D[r][j] for r in (i, i + 1) for j in range(k)):
                            continue
                        if in_backward_domain(f, i, k):
                            pc.clify_step(f, i, k)
                        else:
                            with pytest.raises(pc.NotDisjoint):
                                pc.clify_step(f, i, k)

    def test_not_disjoint(self):
        f = pc.PathFamily.from_rows([[], [0], [0, 0]], [[0], [0, 1], [0, 1, 1]])
        assert pc.validate_family(f) == []
        with pytest.raises(pc.NotDisjoint):
            pc.clify_step(f, 1, 1)


class TestColumnStages:
    def test_administrative_stages_are_identities(self, schroder_by_n):
        for n in (1, 2, 3, 4):
            cliff = {f for f in schroder_by_n[n] if oracles.in_pathfam_nk(f, n)}
            disjoint = {f for f in schroder_by_n[n] if oracles.in_pathfam_nk(f, 0)}
            for f in cliff:
                assert pc.comb_column(f, n - 1) == f
                assert pc.uncomb_column(f, n - 1) == f
            for f in disjoint:
                assert pc.comb_column(f, 0) == f
                assert pc.uncomb_column(f, 0) == f

    def test_order_three_column_stage(self):
        f = pc.family_from_bits(tri([0], [1, 0]))
        g = pc.comb_column(f, 1)
        assert g.B[1] == (1,) and g.B[2] == (0, 0) and g.D[2][1] == 1
        assert pc.uncomb_column(g, 1) == f

    def test_rejects_a_final_count_that_breaks_the_balance(self):
        # row 1 descends 1 level only with D[1][1] = 1 - sum(B[1]) = 1
        f = pc.PathFamily(((), (0,), (0, 0)), ((0,), (0, 5), (0, 0, 2)))
        with pytest.raises(pc.InvalidFamily, match=r"^row 1, column 1: D\[1\]\[1\] = 5"):
            pc.comb_column(f, 1)

    def test_stage_membership_transitions(self):
        f = pc.family_from_bits(tri([0], [1, 0]))
        assert oracles.in_pathfam_nk(f, 3) and oracles.in_pathfam_nk(f, 2)
        assert not oracles.in_pathfam_nk(f, 0)
        g = pc.comb_column(f, 1)
        assert oracles.in_pathfam_nk(g, 1) and oracles.in_pathfam_nk(g, 0)

    def test_stage_bijections_exhaustive(self, schroder_by_n):
        for n in (1, 2, 3, 4):
            count = 2 ** (n * (n - 1) // 2)
            stage = {k: {f for f in schroder_by_n[n] if oracles.in_pathfam_nk(f, k)}
                     for k in range(n + 1)}
            for k in range(n + 1):
                assert len(stage[k]) == count
            for k in range(n):
                image = {pc.comb_column(f, k) for f in stage[k + 1]}
                assert image == stage[k]
                for f in stage[k + 1]:
                    assert pc.uncomb_column(pc.comb_column(f, k), k) == f
                for g in stage[k]:
                    assert pc.comb_column(pc.uncomb_column(g, k), k) == g

    def test_stages_reject_exactly_outside_their_domain(self, schroder_by_n):
        # stage k is a bijection only where rows k..n-1 hold no vertical step
        # before column k; inside that domain the sweep's own checks, such as
        # the one on D[i+1][k], may still raise
        wrong = []
        for n in (1, 2, 3, 4):
            for f in schroder_by_n[n]:
                for k in range(n):
                    residue = next(((r, j, v) for r in range(k, n)
                                    for j, v in enumerate(f.D[r][:k]) if v), None)
                    for stage in (pc.comb_column, pc.uncomb_column):
                        result = outcome(stage, f, k)
                        if residue:
                            r, j, v = residue
                            ok = result == (ResidualVerticalSteps,
                                            f"D[{r}][{j}] = {v} but rows {k}..{n - 1} may "
                                            f"hold no vertical steps before column {k}")
                        elif isinstance(result, pc.PathFamily):
                            ok = pc.validate_family(result) == []
                        else:
                            ok = (issubclass(result[0], (pc.PreconditionViolation,
                                                         pc.InvalidFamily))
                                  and "may hold no" not in result[1])
                        if not ok:
                            wrong.append((stage.__name__, f, k, result))
        assert wrong == []

    @pytest.mark.parametrize("stage,B,D,message", [
        ("uncomb_column", ((), (0,), (1, 1), (0, 0, 0)),
         ((0,), (0, 1), (0, 0, 0), (0, 1, 1, 1)),
         "D[3][1] = 1 but rows 2..3 may hold no vertical steps before column 2"),
        ("comb_column", ((), (1,), (0, 0), (0, 1, 1), (1, 0, 0, 0)),
         ((0,), (0, 0), (0, 0, 2), (0, 1, 0, 0), (0, 0, 0, 2, 1)),
         "D[3][1] = 1 but rows 2..4 may hold no vertical steps before column 2"),
    ])
    def test_valid_family_outside_the_domain(self, stage, B, D, message):
        # run anyway, either stage would return a family whose path 3
        # drops below its anti-diagonal
        f = pc.PathFamily(B, D)
        assert pc.validate_family(f) == []
        with pytest.raises(ResidualVerticalSteps) as exc:
            getattr(pc, stage)(f, 2)
        assert str(exc.value) == message


def short_row_family(bad=2):
    # B[1][0] = bad; rows of at most 8 bits pack by one table lookup
    return pc.PathFamily(((), (bad,), (0, 0)), ((0,), (0, 0), (0, 0, 2)))


def long_row_family(j):
    # B[11][j] = 3 in an order-12 family whose D rows balance the B rows;
    # rows of more than 8 bits pack arithmetically
    B = [(0,) * i for i in range(12)]
    B[11] = tuple(3 if c == j else 0 for c in range(11))
    return pc.PathFamily(tuple(B), tuple((0,) * i + (i - sum(B[i]),) for i in range(12)))


class TestStagesRejectNonBits:
    """Every B entry a stage packs must be a bit; the error is the one
    validate_family reports for it."""

    @staticmethod
    def check(call, f, message):
        assert message in [v.message for v in pc.validate_family(f)]
        with pytest.raises(pc.InvalidFamily) as err:
            call(f)
        assert str(err.value) == message

    def test_disj_step(self):
        self.check(lambda f: pc.disj_step(f, 1, 1), short_row_family(), "B[1][0] = 2 is not a bit")
        # a step at k <= i <= 10 packs columns < k only, so the bad entry sits at column 9
        self.check(lambda f: pc.disj_step(f, 10, 10), long_row_family(9),
                   "B[11][9] = 3 is not a bit")

    def test_clify_step(self):
        def call(i):
            return lambda f: pc.clify_step(f, i, i)

        self.check(call(1), short_row_family(), "B[1][0] = 2 is not a bit")
        self.check(call(10), long_row_family(9), "B[11][9] = 3 is not a bit")

    def test_comb_column(self):
        self.check(lambda f: pc.comb_column(f, 1), short_row_family(), "B[1][0] = 2 is not a bit")
        self.check(lambda f: pc.comb_column(f, 11), long_row_family(10),
                   "B[11][10] = 3 is not a bit")

    def test_uncomb_column(self):
        self.check(lambda f: pc.uncomb_column(f, 1), short_row_family(),
                   "B[1][0] = 2 is not a bit")
        self.check(lambda f: pc.uncomb_column(f, 11), long_row_family(10),
                   "B[11][10] = 3 is not a bit")

    @pytest.mark.parametrize("call", [
        lambda f: pc.disj_step(f, 1, 1),
        lambda f: pc.clify_step(f, 1, 1),
        lambda f: pc.comb_column(f, 1),
        lambda f: pc.uncomb_column(f, 1),
    ], ids=["disj_step", "clify_step", "comb_column", "uncomb_column"])
    def test_float_bit(self, call):
        # 1.0 equals 1 but is not a bit; the stages once packed it as 1
        self.check(call, short_row_family(1.0), "B[1][0] = 1.0 is not a bit")


@pytest.mark.parametrize("call", [
    lambda f: pc.comb_column(f, 1),
    lambda f: pc.uncomb_column(f, 1),
    lambda f: pc.disj_step(f, 1, 1),
    lambda f: pc.clify_step(f, 1, 1),
], ids=["comb_column", "uncomb_column", "disj_step", "clify_step"])
@pytest.mark.parametrize("B,D,message", [
    (((), (0,), (0, 0)), ((0,), (0,), (0, 0, 2)), "D row 1 has length 1, expected 2"),
    (((), (0,), (0, 0)), ((0,), (0, 1)), "B has 3 rows but D has 2"),
    (((), (0,), (0,)), ((0,), (0, 1), (0, 0, 2)), "B row 2 has length 1, expected 2"),
], ids=["short-D-row", "missing-D-row", "short-B-row"])
def test_stages_reject_malformed_rows(call, B, D, message):
    # each raised IndexError, or returned the malformed family, before the
    # stage runner checked its rows' shape
    TestStagesRejectNonBits.check(call, pc.PathFamily(B, D), message)


class TestComb:
    def test_already_disjoint_unchanged(self):
        for n in range(6):
            t = pc.BitTriangle.from_rows([[1] * i for i in range(n)])
            assert pc.comb(t) == pc.family_from_bits(t)

    def test_order_three_worked_case(self):
        f = pc.comb(tri([0], [1, 0]))
        assert f.B[1:] == ((1,), (0, 0))
        assert f.D == ((0,), (0, 0), (0, 1, 1))
        supports = [p.support() for p in pc.explicit_paths(f)]
        assert supports[0] == {(0, 0)}
        assert supports[1] == {(1, 0), (0, 1)}
        assert supports[2] == {(2, 0), (2, 1), (1, 1), (1, 2), (0, 2)}
        assert pc.is_disjoint(f)

    def test_image_is_all_disjoint_families(self, triangles_by_n, disjoint_by_n):
        for n in range(5):
            image = {pc.comb(t) for t in triangles_by_n[n]}
            assert image == disjoint_by_n[n]

    @given(bit_triangles())
    @settings(max_examples=150)
    def test_output_disjoint_and_invertible(self, t):
        f = pc.comb(t)
        assert pc.is_disjoint(f)
        assert pc.uncomb(f) == t

    @given(bit_triangles(max_n=10))
    def test_column_conservation(self, t):
        start = pc.family_from_bits(t)
        b_sums = column_sums(start.B)
        d_sums = column_sums(start.D)
        f = start
        for k in range(t.n - 1, -1, -1):
            f = pc.comb_column(f, k)
            assert column_sums(f.B) == b_sums
            assert column_sums(f.D) == d_sums

    def test_counts_read_off_triangle(self, triangles_by_n):
        for t in triangles_by_n[4]:
            f = pc.comb(t)
            cols = pc.column_counts(f)
            inters = pc.intercolumn_counts(f)
            assert cols == tuple(k - sum(t.bits[k]) for k in range(4))
            assert inters == tuple(sum(1 for i in range(j + 1, 4) if t.bits[i][j] == 0)
                                   for j in range(3))


def error_family(base, k, seed, flips, adds):
    """An order k+5 family from random_triangle(k+5, seed): the cliff-shaped
    one, the stage input of column k (columns above k combed), that stage
    combed at column k, or the combed family; then the B entries at flips
    toggled and each (row, column, v) of adds added to D."""
    n = k + 5
    t = pc.random_triangle(n, seed)
    f = pc.comb(t) if base == "combed" else pc.family_from_bits(t)
    if base in ("stage", "staged"):
        for col in range(n - 1, k - (base == "staged"), -1):
            f = pc.comb_column(f, col)
    B, D = lists(f)
    for r, c in flips:
        B[r][c] ^= 1
    for r, c, v in adds:
        D[r][c] += v
    return frozen(B, D)


# (call, i, base, k, seed, flips, adds, error, message).  disj_step and comb_column reach the
# two forward checks, clify_step and uncomb_column the gap check and the
# collision record, in a full chunk and in the partial one.  uncomb reaches
# the gap check only: on a valid family it never met the collision record,
# neither over every order-5 family nor in a random search at these columns.
SWEEP_ERRORS = [
    ("disj_step", 9, "stage", 8, 8, (), ((10, 8, 1),),
     ResidualVerticalSteps, "D[10][8] = 1 must be 0 before the forward operation"),
    ("disj_step", 9, "cliff", 8, 0, (), (),
     InsufficientVerticalSteps, "need 2 vertical steps in D[9][8] but only 0 present"),
    ("comb_column", None, "stage", 8, 8, (), ((11, 8, 1),),
     ResidualVerticalSteps, "D[11][8] = 1 must be 0 before the forward operation"),
    ("disj_step", 10, "stage", 9, 9, (), ((11, 9, 1),),
     ResidualVerticalSteps, "D[11][9] = 1 must be 0 before the forward operation"),
    ("disj_step", 10, "cliff", 9, 0, (), (),
     InsufficientVerticalSteps, "need 3 vertical steps in D[10][9] but only 0 present"),
    ("comb_column", None, "stage", 9, 9, (), ((12, 9, 1),),
     ResidualVerticalSteps, "D[12][9] = 1 must be 0 before the forward operation"),
    ("disj_step", 11, "stage", 10, 10, (), ((12, 10, 1),),
     ResidualVerticalSteps, "D[12][10] = 1 must be 0 before the forward operation"),
    ("disj_step", 11, "cliff", 10, 0, (), (),
     InsufficientVerticalSteps, "need 1 vertical steps in D[11][10] but only 0 present"),
    ("comb_column", None, "stage", 10, 10, (), ((13, 10, 1),),
     ResidualVerticalSteps, "D[13][10] = 1 must be 0 before the forward operation"),
    ("disj_step", 12, "stage", 11, 11, (), ((13, 11, 1),),
     ResidualVerticalSteps, "D[13][11] = 1 must be 0 before the forward operation"),
    ("disj_step", 12, "cliff", 11, 0, (), (),
     InsufficientVerticalSteps, "need 1 vertical steps in D[12][11] but only 0 present"),
    ("comb_column", None, "stage", 11, 11, (), ((14, 11, 1),),
     ResidualVerticalSteps, "D[14][11] = 1 must be 0 before the forward operation"),
    ("comb_column", None, "stage", 8, 60, ((12, 1),), (),
     InsufficientVerticalSteps, "need 1 vertical steps in D[11][8] but only 0 present"),
    ("comb_column", None, "stage", 9, 30, ((10, 5),), (),
     InsufficientVerticalSteps, "need 1 vertical steps in D[10][9] but only 0 present"),
    ("comb_column", None, "stage", 10, 57, ((12, 5),), (),
     InsufficientVerticalSteps, "need 3 vertical steps in D[12][10] but only 2 present"),
    ("comb_column", None, "stage", 11, 76, ((14, 3),), (),
     InsufficientVerticalSteps, "need 3 vertical steps in D[13][11] but only 2 present"),
    ("clify_step", 10, "staged", 8, 70, ((10, 7), (10, 5)), (),
     NotDisjoint, "paths 10,11 are not disjoint up to column 8: gap 1 cannot absorb 2 vertical steps"),
    ("clify_step", 9, "staged", 9, 59, ((10, 3),), (),
     NotDisjoint, "paths 9,10 are not disjoint up to column 9: gap 1 cannot absorb 2 vertical steps"),
    ("clify_step", 11, "staged", 10, 40, ((11, 7),), (),
     NotDisjoint, "paths 11,12 are not disjoint up to column 10: gap 1 cannot absorb 2 vertical steps"),
    ("clify_step", 11, "staged", 11, 62, ((11, 5),), (),
     NotDisjoint, "paths 11,12 are not disjoint up to column 11: gap 1 cannot absorb 2 vertical steps"),
    ("clify_step", 10, "staged", 8, 65, ((11, 0),), (),
     NotDisjoint, "paths 10,11 collide in column 7"),
    ("clify_step", 10, "staged", 9, 84, ((10, 0),), (),
     NotDisjoint, "paths 10,11 collide in column 8"),
    ("clify_step", 13, "staged", 10, 74, ((14, 1),), (),
     NotDisjoint, "paths 13,14 collide in column 9"),
    ("clify_step", 14, "staged", 11, 48, ((14, 4), (15, 3)), (),
     NotDisjoint, "paths 14,15 collide in column 10"),
    ("uncomb_column", None, "staged", 8, 46, ((9, 4),), (),
     NotDisjoint, "paths 9,10 are not disjoint up to column 8: gap 0 cannot absorb 1 vertical steps"),
    ("uncomb_column", None, "staged", 9, 74, ((9, 2), (9, 4)), (),
     NotDisjoint, "paths 9,10 are not disjoint up to column 9: gap 4 cannot absorb 5 vertical steps"),
    ("uncomb_column", None, "staged", 10, 73, ((12, 6),), (),
     NotDisjoint, "paths 11,12 are not disjoint up to column 10: gap 4 cannot absorb 5 vertical steps"),
    ("uncomb_column", None, "staged", 11, 20, ((11, 10),), (),
     NotDisjoint, "paths 11,12 are not disjoint up to column 11: gap 3 cannot absorb 4 vertical steps"),
    ("uncomb_column", None, "staged", 8, 23, ((12, 0),), (),
     NotDisjoint, "paths 11,12 collide in column 3"),
    ("uncomb_column", None, "staged", 9, 86, ((13, 1), (11, 1)), (),
     NotDisjoint, "paths 12,13 collide in column 5"),
    ("uncomb_column", None, "staged", 10, 75, ((11, 0), (14, 2)), (),
     NotDisjoint, "paths 13,14 collide in column 5"),
    ("uncomb_column", None, "staged", 11, 93, ((14, 2),), (),
     NotDisjoint, "paths 13,14 collide in column 3"),
    ("uncomb_column", None, "staged", 9, 26, ((12, 6), (13, 4)), (),
     NotDisjoint, "paths 12,13 collide in column 8"),
    ("uncomb_column", None, "staged", 10, 87, ((13, 4),), (),
     NotDisjoint, "paths 12,13 collide in column 9"),
    ("uncomb_column", None, "staged", 11, 55, ((14, 1),), (),
     NotDisjoint, "paths 14,15 collide in column 10"),
    ("uncomb", None, "combed", 8, 3, (), ((10, 9, -1), (10, 8, 1)),
     NotDisjoint, "paths 9,10 are not disjoint up to column 8: gap 1 cannot absorb 2 vertical steps"),
    ("uncomb", None, "combed", 9, 7, (), ((10, 10, -1), (10, 9, 1)),
     NotDisjoint, "paths 9,10 are not disjoint up to column 9: gap 3 cannot absorb 4 vertical steps"),
    ("uncomb", None, "combed", 10, 23, (), ((11, 11, -1), (11, 10, 1)),
     NotDisjoint, "paths 10,11 are not disjoint up to column 10: gap 3 cannot absorb 4 vertical steps"),
    ("uncomb", None, "combed", 11, 17, (), ((12, 12, -1), (12, 11, 1)),
     NotDisjoint, "paths 11,12 are not disjoint up to column 11: gap 6 cannot absorb 7 vertical steps"),
]


class TestSweepErrors:
    """The checks of the sweep loops at columns k >= 8, in every residue of
    k mod 4, with and without a trace sink."""

    @staticmethod
    def run(call, f, i, k, sink):
        if call in ("disj_step", "clify_step"):
            return getattr(pc, call)(f, i, k)
        if call == "uncomb":
            return pc.uncomb(f, sink)
        return getattr(pc, call)(f, k, sink)

    @staticmethod
    def reference(call, f, k):
        """The traces the reference sweep makes before it fails."""
        B, D = lists(f)
        sink = []
        with pytest.raises(pc.PreconditionViolation):
            if call == "comb_column":
                ref_comb_column(B, D, k, sink)
            elif call == "uncomb_column":
                ref_uncomb_column(B, D, list(pc.entry_levels(f, k)), k, sink)
            else:
                ref_uncomb(f, sink)
        return sink

    @pytest.mark.parametrize("call,i,base,k,seed,flips,adds,error,message", SWEEP_ERRORS)
    def test_message(self, call, i, base, k, seed, flips, adds, error, message):
        f = error_family(base, k, seed, flips, adds)
        if call == "uncomb":
            assert pc.validate_family(f) == []
        for sink in (None, []):
            with pytest.raises(error) as exc:
                self.run(call, f, i, k, sink)
            assert str(exc.value) == message
        if call not in ("disj_step", "clify_step"):
            assert sink == self.reference(call, f, k)

    def test_paths_meeting_on_a_negative_gap(self):
        # paths 1 and 2 enter column 1 at the same level: the gap is -1
        f = pc.family_from_bits(tri([0], [1, 0]))
        for call in (pc.uncomb, lambda f: pc.uncomb_column(f, 1),
                     lambda f: pc.clify_step(f, 1, 1)):
            with pytest.raises(NotDisjoint) as exc:
                call(f)
            assert str(exc.value) == "paths 1,2 meet at or before column 1"


class TestListRows:
    """B rows given as lists, which validate_family accepts: one of at most
    8 bits, which packs by a table lookup, and one longer."""

    @staticmethod
    def listed(f, rows=(3, 12)):
        B = list(f.B)
        for r in rows:
            B[r] = list(B[r])
        return pc.PathFamily(tuple(B), f.D)

    def test_uncomb(self):
        t = pc.random_triangle(14, 6)
        f = self.listed(pc.comb(t))
        assert pc.validate_family(f) == []
        assert pc.uncomb(f) == t

    def test_stages(self):
        f = error_family("stage", 2, 6, (), ())  # order 7: rows 3..6 hold at most 6 bits
        g = pc.comb_column(f, 2)
        assert pc.comb_column(self.listed(f, (3, 6)), 2) == g
        assert pc.uncomb_column(self.listed(g, (3, 6)), 2) == f
        f = error_family("stage", 9, 6, (), ())  # order 14: row 12 holds 12 bits
        g = pc.comb_column(f, 9)
        assert pc.comb_column(self.listed(f, (12,)), 9) == g
        assert pc.uncomb_column(self.listed(g, (12,)), 9) == f
        assert pc.disj_step(self.listed(f, (9, 10)), 9, 9) == pc.disj_step(f, 9, 9)
        assert pc.clify_step(self.listed(g, (12, 13)), 12, 9) == pc.clify_step(g, 12, 9)


class TestUncomb:
    def test_all_diagonal(self):
        t = pc.BitTriangle.from_rows([[1] * i for i in range(4)])
        assert pc.uncomb(pc.family_from_bits(t)) == t

    def test_order_three_worked_case(self):
        f = pc.PathFamily.from_rows([[], [1], [0, 0]], [[0], [0, 0], [0, 1, 1]])
        assert pc.uncomb(f) == tri([0], [1, 0])

    def test_double_round_trip_n4(self, triangles_by_n, disjoint_by_n):
        assert all(pc.uncomb(pc.comb(t)) == t for t in triangles_by_n[4])
        assert all(pc.comb(pc.uncomb(f)) == f for f in disjoint_by_n[4])

    def test_rejects_intersecting(self):
        f = pc.family_from_bits(tri([0], [1, 0]))
        with pytest.raises(pc.NotDisjoint):
            pc.uncomb(f)

    @staticmethod
    def check_sweep_certifies_disjointness(f):
        if pc.is_disjoint(f):
            assert pc.comb(pc.uncomb(f)) == f
        else:
            with pytest.raises(pc.NotDisjoint):
                pc.uncomb(f)

    def test_sweep_certifies_disjointness_exhaustive(self, schroder_by_n):
        for n in range(6):
            for f in schroder_by_n[n]:
                self.check_sweep_certifies_disjointness(f)

    @given(valid_families(max_n=8))
    @settings(max_examples=300)
    def test_sweep_certifies_disjointness_sampled(self, f):
        assert pc.validate_family(f) == []
        self.check_sweep_certifies_disjointness(f)

    @pytest.mark.parametrize("B,D", [
        ([[], [0], [0, 1]], [[0], [0, 0], [0, 0, 0]]),  # rows 1 and 2 descend too few levels
        ([[], [0], [0, 0]], [[0], [0, 1], [0, -1, 3]]),  # negative vertical count
    ])
    def test_rejects_invalid(self, B, D):
        f = pc.PathFamily.from_rows(B, D)
        with pytest.raises(pc.InvalidFamily) as explicit:
            pc.explicit_paths(f)
        with pytest.raises(pc.InvalidFamily) as swept:
            pc.uncomb(f)
        assert str(swept.value) == str(explicit.value)


class TestTraces:
    def test_forward_dominance_within_column(self, triangles_by_n):
        for t in triangles_by_n[4]:
            traces: list[CombTrace] = []
            pc.comb(t, trace_sink=traces)
            by_column: dict[int, list[CombTrace]] = {}
            for tr in traces:
                by_column.setdefault(tr.k, []).append(tr)
            for seq in by_column.values():
                for earlier, later in zip(seq, seq[1:]):
                    assert later.i == earlier.i + 1
                    assert all(e <= d for e, d in zip(later.d_seq, earlier.d_seq))

    def test_backward_dominance_within_column(self, disjoint_by_n):
        for f in disjoint_by_n[4]:
            traces: list[CombTrace] = []
            pc.uncomb(f, trace_sink=traces)
            by_column: dict[int, list[CombTrace]] = {}
            for tr in traces:
                by_column.setdefault(tr.k, []).append(tr)
            for seq in by_column.values():
                for earlier, later in zip(seq, seq[1:]):
                    assert later.i == earlier.i - 1
                    assert all(d >= e for d, e in zip(later.d_seq, earlier.d_seq))

    def test_transferred_matches_d_entry(self, triangles_by_n):
        for t in triangles_by_n[3]:
            traces: list[CombTrace] = []
            f = pc.comb(t, trace_sink=traces)
            for tr in traces:
                assert tr.transferred == tr.d_seq[-1]
            assert pc.is_disjoint(f)


def top_sweeps(monkeypatch, call, arg, sink):
    """The columns of the _sweep calls that call(arg, sink) makes itself, in
    order; a traced sweep's own calls, one per row pair, are not counted."""
    columns, depth = [], [0]
    sweep = combing._sweep

    def counted(X, D, k, *rest):
        if not depth[0]:
            columns.append(k)
        depth[0] += 1
        try:
            return sweep(X, D, k, *rest)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(combing, "_sweep", counted)
    call(arg, sink)
    monkeypatch.undo()
    return columns


class TestColumnZero:
    """The stage at column 0 moves nothing, so comb and uncomb sweep it only
    when traced."""

    def test_valid_families_hold_no_vertical_step_in_column_0(self, schroder_by_n):
        for n in range(6):
            for f in schroder_by_n[n]:
                assert all(row[0] == 0 for row in f.D), f

    def test_uncomb_traced_and_untraced_agree(self, schroder_by_n):
        for n in range(5):
            for f in schroder_by_n[n]:
                got, traces = traced(pc.uncomb, f)
                assert outcome(pc.uncomb, f) == got
                if isinstance(got, pc.BitTriangle):
                    assert len(traces) == n * (n - 1) // 2
                    assert [tr.d_seq for tr in traces if tr.k == 0] == [(0,)] * (n - 1)

    def test_comb_traced_and_untraced_agree(self, triangles_by_n):
        for n in range(6):
            for t in triangles_by_n[n]:
                assert pc.comb(t) == pc.comb(t, [])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_column_0_swept_only_when_traced(self, monkeypatch, n):
        t = pc.random_triangle(n, n)
        f = pc.comb(t)
        assert top_sweeps(monkeypatch, pc.comb, t, None) == list(range(n - 2, 0, -1))
        assert top_sweeps(monkeypatch, pc.comb, t, []) == list(range(n - 2, -1, -1))
        assert top_sweeps(monkeypatch, pc.uncomb, f, None) == list(range(1, n - 1))
        assert top_sweeps(monkeypatch, pc.uncomb, f, []) == list(range(n - 1))

    def test_work_counts_of_the_reference_triangle(self):
        # ROADMAP's baseline counts, which the benchmark reads off these
        # traces: every column is traced, column 0 included
        n, t = 200, pc.random_triangle(200, 3)
        traces: list[CombTrace] = []
        f = pc.comb(t, traces)
        assert len(traces) == 19_900 == n * (n - 1) // 2
        assert sum(len(tr.d_seq) - 1 for tr in traces) == 1_313_400 == sum(
            k * (n - 1 - k) for k in range(n))
        swaps = sum(b > a for tr in traces for a, b in zip(tr.d_seq, tr.d_seq[1:]))
        assert swaps == 242_735 == sum(tr.transferred for tr in traces)
        assert sum(tr.transferred == 0 for tr in traces) == 3_657
        traces = []
        assert pc.uncomb(f, traces) == t
        assert len(traces) == 19_900


class TraceDigest:
    """A trace sink that keeps a SHA-256 of the traces, not the traces."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def append(self, trace):
        self.sha.update(f"{trace.i} {trace.k} {trace.d_seq}\n".encode())
        self.count += 1


class SlackProbe(list):
    """A list of chunk tables by slack that records the slacks it is read at."""

    def __init__(self, tables, top):
        super().__init__(tables)
        self.top, self.seen = top, set()

    def __getitem__(self, s):
        self.seen.add(s)
        return super().__getitem__(s)


class TestKernel:
    """The chunked kernel against the reference scan above."""

    @staticmethod
    def walk(backward, s0, x, y):
        """One chunk through the reference scan, entered with slack s0:
        (record mask, change of d, change of slack)."""
        W = combing.W
        xs = [x >> j & 1 for j in range(W)]
        ys = [y >> j & 1 for j in range(W)]
        cur = sum(ys) - sum(xs)
        if backward:
            # the scan runs from column W-1 down; d = W cannot run out
            B, D, h = [xs[:], ys[:]], [[0] * (W + 1), [0] * W + [W]], [0, W + s0 + 1]
            seq = ref_clify(B, D, h, 0, W)
            d0, d1, cur = W, seq[0], W + s0 + cur
            slack = cur - d1
        else:
            # s0 lead columns with x = 1, y = 0 raise the slack to s0
            B = [[1] * s0 + xs, [0] * s0 + ys]
            D = [[0] * (s0 + W) + [W], [0] * (s0 + W + 1)]
            seq = ref_disj(B, D, 0, s0 + W)
            d0, d1, cur = 0, seq[-1], cur - s0
            slack = d1 - cur
            B = [row[s0:] for row in B]
        mask = sum(1 << j for j in range(W) if B[0][j] != xs[j])
        return mask, d1 - d0, slack - s0

    @pytest.mark.parametrize("backward", [False, True])
    def test_table_entries_are_per_bit_walks(self, backward):
        W = combing.W
        table = combing._BACKWARD if backward else combing._FORWARD
        assert len(table) == (W + 1) << 2 * W
        # slacks past W share the clamped key
        for s0 in range(W + 4):
            for x in range(1 << W):
                for y in range(1 << W):
                    key = min(s0, W) << 2 * W | x << W | y
                    assert table[key] == self.walk(backward, s0, x, y), (s0, x, y)

    def test_slack_bound(self, monkeypatch):
        # forward the slack of a scan up to column k stays at most k, backward
        # at most gap + k <= 2k; each public call builds its list that far
        probes = []

        def by_slack(rows, top):
            probes.append(SlackProbe(build(rows, top), top))
            return probes[-1]

        build = combing._by_slack
        monkeypatch.setattr(combing, "_by_slack", by_slack)
        for k in range(13):
            # row k all ones and row k+1 all zeros: forward the slack gains one
            # per column; backward the pair enters column k with gap k
            t = pc.BitTriangle(tuple((int(i == k),) * i for i in range(k + 2)))
            f = pc.family_from_bits(t)
            assert outcome(pc.disj_step, f, k, k) == outcome(ref_disj_step, f, k, k)
            assert outcome(pc.clify_step, f, k, k) == outcome(ref_clify_step, f, k, k)
            forward, backward = probes[-2:]
            assert len(forward) >= forward.top + 1 == k + 1
            assert len(backward) >= backward.top + 1 == 2 * k + 1
            assert max(forward.seen, default=0) == max(0, (k - 1) // combing.W * combing.W)
            assert max(backward.seen, default=0) == k
        for t in (pc.random_triangle(40, 7), pc.BitTriangle(tuple((1,) * i for i in range(40))),
                  pc.BitTriangle(tuple((0,) * i for i in range(40)))):
            assert pc.uncomb(pc.comb(t)) == t
        assert all(len(p) >= p.top + 1 > max(p.seen, default=0) for p in probes)

    def test_steps_match_reference_exhaustive(self, schroder_by_n):
        for n in range(2, 6):
            for f in schroder_by_n[n]:
                for k in range(n - 1):
                    for i in range(k, n - 1):
                        assert outcome(pc.disj_step, f, i, k) == outcome(ref_disj_step, f, i, k)
                        assert (outcome(pc.clify_step, f, i, k)
                                == outcome(ref_clify_step, f, i, k))

    @given(bit_triangles(max_n=24), st.data())
    @settings(max_examples=150, deadline=None)
    def test_stages_match_reference_sampled(self, t, data):
        # orders up to 24 put k in every residue mod 4 and past several chunks
        if t.n < 2:
            return
        k = data.draw(st.integers(0, t.n - 2))
        i = data.draw(st.integers(k, t.n - 2))
        f = pc.family_from_bits(t)
        for col in range(t.n - 1, k, -1):
            f = pc.comb_column(f, col)
        B, D = lists(f)
        want = []
        ref_comb_column(B, D, k, want)
        assert traced(lambda g, sink: pc.comb_column(g, k, sink), f) == (frozen(B, D), want)
        g = frozen(B, D)
        h = list(pc.entry_levels(g, k))
        want = []
        ref_uncomb_column(B, D, h, k, want)
        assert traced(lambda g, sink: pc.uncomb_column(g, k, sink), g) == (frozen(B, D), want)
        assert outcome(pc.disj_step, f, i, k) == outcome(ref_disj_step, f, i, k)
        assert outcome(pc.clify_step, g, i, k) == outcome(ref_clify_step, g, i, k)

    @given(valid_families(max_n=24))
    @settings(max_examples=150, deadline=None)
    def test_uncomb_matches_reference_sampled(self, f):
        # most of these families intersect, so the collision column is checked
        assert traced(pc.uncomb, f) == traced(ref_uncomb, f)

    @pytest.mark.parametrize("n,seed", [(200, 2012), (400, 5373)])
    def test_large_order_certificates(self, n, seed):
        t = pc.random_triangle(n, seed)
        got, want = TraceDigest(), TraceDigest()
        f = pc.comb(t, got)
        assert f == ref_comb(t, want)
        assert pc.is_disjoint(f)
        assert (got.count, got.sha.digest()) == (want.count, want.sha.digest())
        got, want = TraceDigest(), TraceDigest()
        assert pc.uncomb(f, got) == t == ref_uncomb(f, want)
        assert (got.count, got.sha.digest()) == (want.count, want.sha.digest())
