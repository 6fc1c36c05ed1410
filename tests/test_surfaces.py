import pytest

from toricroots import (
    CapExceededError,
    InputError,
    NotRadiantError,
    RayList,
    SurfaceSequence,
    bilateralize,
    blow_up,
    enumerate_smooth_surfaces,
    is_radiant_sequence,
    sequence_to_rays,
    surface_report,
)
from toricroots import surfaces
from toricroots.groups import AbelianPower, Semidirect, TriangularBlock


def seq(*values):
    return SurfaceSequence.of(values)


def blow_down(seq: SurfaceSequence, s: int) -> SurfaceSequence:
    """Inverse move at a position with ``c_s = 1`` (needs m > 3)."""
    c = list(seq.c)
    m = len(c)
    if c[s] != 1:
        raise InputError("blow-down needs c_s = 1")
    if m <= 3:
        raise InputError("blow-down needs at least 4 entries")
    c[(s - 1) % m] -= 1
    c[(s + 1) % m] -= 1
    del c[s]
    return SurfaceSequence.of(c)


def test_sequence_to_rays_triangle():
    rl = sequence_to_rays(seq(-1, -1, -1))
    assert rl.rays == ((1, 0), (0, 1), (-1, -1))


def test_sequence_to_rays_quadrilaterals():
    for q in range(5):
        rl = sequence_to_rays(seq(0, q, 0, -q))
        assert rl.rays == ((1, 0), (0, 1), (-1, q), (0, -1))


def test_sequence_to_rays_builds_what_validation_accepts():
    for sq in enumerate_smooth_surfaces(9):
        r = sequence_to_rays(sq)
        assert RayList.validate(r.rays, 2) == r


def test_sequence_that_does_not_close():
    with pytest.raises(InputError, match="close"):
        sequence_to_rays(seq(0, 0, 0))


def test_sequence_with_bad_winding():
    # closes up after two turns: not a fan boundary
    with pytest.raises(InputError):
        sequence_to_rays(seq(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1))


def test_radiance_criterion():
    assert is_radiant_sequence(seq(-1, -1, -1))
    assert is_radiant_sequence(seq(0, 3, 0, -3))
    assert not is_radiant_sequence(seq(1, 1, 1, 1, 1, 1))
    # wrap-around pair counts
    assert is_radiant_sequence(seq(-1, 2, 2, 2, 2, -1))


def test_blow_up_examples():
    assert blow_up(seq(-1, -1, -1), 0).c == (0, 1, 0, -1)
    assert blow_up(seq(0, 1, 0, -1), 1).c == (0, 2, 1, 1, -1)
    # wrap-around position touches both ends
    assert blow_up(seq(-1, -1, -1), 2).c == (0, -1, 0, 1)


def test_blow_up_bookkeeping():
    s = seq(0, 2, 1, 1, -1)
    for pos in range(s.m):
        child = blow_up(s, pos)
        assert child.m == s.m + 1
        assert sum(child.c) == sum(s.c) + 3
        sequence_to_rays(child)  # still a valid surface


def test_blow_down_round_trip():
    s = seq(0, 1, 0, -1)
    for pos in range(s.m):
        child = blow_up(s, pos)
        inserted = (pos + 1) % child.m
        assert child.c[inserted] == 1
        assert blow_down(child, inserted).canonical() == s.canonical()


def test_enumeration_small():
    only_triangle = enumerate_smooth_surfaces(3)
    assert [s.c for s in only_triangle] == [(-1, -1, -1)]

    up_to_five = enumerate_smooth_surfaces(5)
    assert all(is_radiant_sequence(s) for s in up_to_five)

    up_to_six = enumerate_smooth_surfaces(6)
    non_radiant = {s.canonical() for s in up_to_six if not is_radiant_sequence(s)}
    assert (1, 1, 1, 1, 1, 1) in non_radiant
    assert all(len(c) == 6 for c in non_radiant)  # everything smaller is radiant


def test_enumeration_agrees_with_bilateral_search():
    for s in enumerate_smooth_surfaces(7, max_q=7):
        rays = sequence_to_rays(s)
        assert (bilateralize(rays) is not None) == is_radiant_sequence(s)


def test_enumeration_stable_under_seed_and_frontier_order():
    # independent closure with reversed seeds and breadth-first frontier
    # must reach the same set of canonical forms
    import collections

    max_m, max_q = 6, 6
    seeds = [SurfaceSequence.of((0, q, 0, -q)) for q in range(max_q, -1, -1)]
    seeds.append(SurfaceSequence.of((-1, -1, -1)))
    seen = set()
    queue = collections.deque()
    for s in seeds:
        if s.m <= max_m and s.canonical() not in seen:
            seen.add(s.canonical())
            queue.append(s)
    while queue:
        s = queue.popleft()
        if s.m + 1 > max_m:
            continue
        for pos in range(s.m):
            child = blow_up(s, pos)
            if child.canonical() not in seen:
                seen.add(child.canonical())
                queue.append(child)
    library = {s.canonical() for s in enumerate_smooth_surfaces(max_m, max_q)}
    assert library == seen


def test_enumeration_seed_cap():
    wide = enumerate_smooth_surfaces(4, max_q=9)
    qs = sorted(max(s.c) for s in wide if s.m == 4)
    assert qs == list(range(10))  # q = 0..9
    with pytest.raises(InputError):
        enumerate_smooth_surfaces(2)


def test_enumeration_sequence_cap(monkeypatch):
    # m <= 6 from the 8 seeds of max_q = 6: 36 sequences in all
    monkeypatch.setattr(surfaces, "MAX_SURFACE_SEQUENCES", 36)
    assert len(enumerate_smooth_surfaces(6)) == 36
    monkeypatch.setattr(surfaces, "MAX_SURFACE_SEQUENCES", 35)
    with pytest.raises(CapExceededError, match="more than 35 sequences"):
        enumerate_smooth_surfaces(6)


def test_enumeration_cap_counts_the_seeds_first(monkeypatch):
    # m <= 4 with max_q = 9: the 11 seeds are all the sequences
    monkeypatch.setattr(surfaces, "MAX_SURFACE_SEQUENCES", 11)
    assert len(enumerate_smooth_surfaces(4, max_q=9)) == 11
    monkeypatch.setattr(surfaces, "MAX_SURFACE_SEQUENCES", 10)
    with pytest.raises(CapExceededError, match="more than 10 sequences"):
        enumerate_smooth_surfaces(4, max_q=9)
    monkeypatch.undo()
    # building 10^12 seeds would not end
    with pytest.raises(CapExceededError):
        enumerate_smooth_surfaces(4, max_q=10**12)


def test_report_projective_plane():
    report = surface_report(seq(-1, -1, -1))
    assert report.type == "II"
    assert report.d == 1
    assert report.umax_shape == TriangularBlock(3, 2)
    assert report.nilpotency_class == 2
    assert report.derived_length == 2
    assert len(report.subgroups) == 2
    assert report.picard_rank == 1


def test_report_quadric_is_type_one():
    report = surface_report(seq(0, 0, 0, 0))
    assert report.type == "I" and report.d is None
    assert report.nilpotency_class == 1
    assert len(report.subgroups) == 1
    # nested block form; the trivial action is not collapsed to a product
    assert report.umax_shape == Semidirect((AbelianPower(1), AbelianPower(1)))


def test_report_hirzebruch_family():
    for q in range(1, 6):
        report = surface_report(seq(0, q, 0, -q))
        assert report.type == "II"
        assert report.d == q
        assert report.nilpotency_class == q + 1
        assert report.derived_length == 2
        assert len(report.subgroups) == q + 1
        assert report.umax_shape == Semidirect((AbelianPower(1), AbelianPower(q + 1)))


def test_report_rejects_non_radiant():
    with pytest.raises(NotRadiantError):
        surface_report(seq(1, 1, 1, 1, 1, 1))


def test_reports_on_all_enumerated_radiant_surfaces():
    for s in enumerate_smooth_surfaces(6):
        if not is_radiant_sequence(s):
            continue
        report = surface_report(s)
        if report.d is not None:
            assert report.nilpotency_class == report.d + 1
            assert len(report.subgroups) == report.d + 1
