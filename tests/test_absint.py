"""repro.analysis.absint — the one interpreter of primitive sequences.

The load-bearing contract is differential (DESIGN.md §8): on every
verifier-clean sequence the interpreter's loop nest is *exactly* the one
the independent reference applier (``tests/reference_applier.py``)
builds, after every step, so the ``NestFeatures`` simhw prices are
bit-identical to featurizing the reference nests; the fail-fast mode
raises :class:`AbsIntError` on exactly the sequences the collect mode
reports an error for.  Around that sit unit tests for split extents, the
GPU thread geometry, the draft scores, and the W304–W306 smells.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_applier
from corruptions import CORRUPTIONS
from repro.analysis import absint, has_errors, verify_schedule, verify_sequence
from repro.analysis.absint import AbsIntError
from repro.analysis.verifier import VerifierConfig
from repro.simhw import gpu_model
from repro.simhw.cache import NestFeatures
from repro.simhw.platform import ALL_PLATFORMS
from repro.tensorir import SketchConfig, SketchGenerator, sample_subgraph_pool
from repro.tensorir import primitives as P
from repro.tensorir.subgraph import elementwise_subgraph, matmul_subgraph
from repro.utils.rng import stream

_POOL = sample_subgraph_pool()


@st.composite
def schedules(draw):
    sg = draw(st.sampled_from(_POOL))
    target = draw(st.sampled_from(["cpu", "gpu"]))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = stream(f"absint.property.{sg.name}.{target}.{seed}")
    return SketchGenerator(SketchConfig(target=target)).generate(sg, rng)


# -- split extents -----------------------------------------------------------


def test_padded_split_rounds_the_outer_loop_up():
    # 10 split by (4,): outer ceil(10/4)=3, so 12 padded points.
    sg = elementwise_subgraph(10)
    nest = absint.profile(sg, (P.split("i", 10, (4,)),))
    assert [l.extent for l in nest.loops] == [3, 4]
    assert nest.total_iterations() == 12
    assert nest.padding_ratio(sg.total_points) == pytest.approx(1.2)


def test_exact_split_covers_the_domain_exactly():
    sg = elementwise_subgraph(64)
    nest = absint.profile(sg, (P.split("i", 64, (8, 4)),))
    assert [l.extent for l in nest.loops] == [2, 8, 4]
    assert nest.total_iterations() == sg.total_points == 64


def test_absint_error_carries_step_index():
    sg = matmul_subgraph()
    with pytest.raises(AbsIntError) as err:
        absint.profile(sg, (P.split("i", 999, (8,)),))
    assert err.value.step == 0 and "step 0" in str(err.value)


# -- the differential property (both directions) -----------------------------


@settings(max_examples=60, deadline=None)
@given(schedule=schedules())
def test_clean_sequences_profile_and_match_the_applier(schedule):
    diags = verify_schedule(schedule)
    assert not has_errors(diags)
    # Final nests identical — loops (name/extent/kind/tag/pragmas/
    # rfactored) and stage state, via LoopNest equality.
    nest = absint.profile(schedule.subgraph, schedule, schedule.target)
    assert nest == reference_applier.apply(schedule) == schedule.apply()
    # The nest after every step identical too: each prefix of a clean
    # sequence is clean, and interprets to the applier's snapshot.
    interp = absint.Interpreter(schedule.subgraph, schedule.target)
    prims = schedule.primitives
    steps = [interp.profile(prims[: i + 1]) for i in range(len(prims))]
    assert steps == reference_applier.apply_trace(schedule)


@settings(max_examples=60, deadline=None)
@given(schedule=schedules(), corruption=st.sampled_from(CORRUPTIONS))
def test_rejected_sequences_raise_and_warned_ones_do_not(schedule, corruption):
    _code, _name, mutator = corruption
    mutated = mutator(schedule)
    if mutated is None:
        return
    diags = verify_sequence(schedule.subgraph, mutated, schedule.target)
    if has_errors(diags):
        with pytest.raises(AbsIntError):
            absint.profile(schedule.subgraph, mutated, schedule.target)
    else:
        # Warning-only corruptions stay interpretable — absint rejection
        # must exactly track *error* diagnostics, not smells.
        absint.profile(schedule.subgraph, mutated, schedule.target)


def test_nest_features_bit_identical_to_applied_path():
    sg = matmul_subgraph()
    gen = SketchGenerator(SketchConfig("cpu"))
    batch, nests = gen.generate_profiled(sg, 48, stream("absint.nestfeat"))
    static = NestFeatures.from_nests(sg, nests)
    applied = NestFeatures.from_nests(sg, [reference_applier.apply(s) for s in batch])
    for field in ("depth", "extents", "kinds", "is_reduction", "tags",
                  "padded_points", "domain_points", "flops_per_point",
                  "unroll_step", "cache_write", "compute_at", "inlined",
                  "rfactored"):
        assert np.array_equal(getattr(static, field), getattr(applied, field)), field
    assert static.signatures == applied.signatures


# -- GPU geometry and draft scores -------------------------------------------


def test_gpu_grid_geometry_from_bind_tags():
    sg = matmul_subgraph()
    seq = (
        P.split("i", 128, (16,)),
        P.annotate("i.0", "bind.blockIdx.x"),
        P.annotate("i.1", "bind.threadIdx.x"),
    )
    nest = absint.profile(sg, seq, "gpu")
    grid, threads = gpu_model.thread_geometry(NestFeatures.from_nests(sg, [nest]))
    assert grid[0] == 8.0 and threads[0] == 16.0


def test_draft_scores_are_normalized_and_deterministic():
    sg = matmul_subgraph()
    gen = SketchGenerator(SketchConfig("cpu"))
    batch = gen.generate_many(sg, 64, stream("absint.draft"))
    a = absint.draft_scores(sg, batch)
    b = absint.draft_scores(sg, batch)
    assert np.array_equal(a, b)
    assert a.dtype == np.float32 and a.shape == (64,)
    assert a.max() == np.float32(1.0)
    assert (a > 0).all() and (a <= 1.0).all()
    assert absint.draft_scores(sg, []).shape == (0,)
    # The sampler gate's nests are drafted as-is, with the same scores.
    _, nests = gen.generate_profiled(sg, 64, stream("absint.draft"))
    assert np.array_equal(absint.draft_scores(sg, nests), a)


def test_reference_thresholds_come_from_worst_platform():
    for target in ("cpu", "gpu"):
        plats = [p for p in ALL_PLATFORMS if p.target == target]
        assert absint.reference_platform(target) is plats[0]
        assert absint.reference_llc_kb(target) == min(p.cache_kb[-1] for p in plats)
        assert absint.reference_min_cores(target) == min(p.cores for p in plats)
        assert absint.reference_unroll_budget(target) == min(p.unroll_cap for p in plats)
    with pytest.raises(ValueError):
        absint.reference_platform("tpu")


# -- W304–W306: the absint-backed verifier smells ----------------------------


def codes(diags):
    return {d.code for d in diags}


def test_w304_fires_on_oversized_outer_tile():
    # One outer iteration touches 65536*65536 points; the reuse model
    # puts that working set (~10 MB) past the 8 MB i7 LLC.
    sg = matmul_subgraph(4, 65536, 65536)
    diags = verify_sequence(sg, ())
    w304 = [d for d in diags if d.code == "W304"]
    assert len(w304) == 1 and w304[0].primitive_index == -1
    # A small matmul's outer tile fits comfortably.
    assert "W304" not in codes(verify_sequence(matmul_subgraph(), ()))


def test_w304_threshold_override():
    cfg = VerifierConfig(footprint_llc_kb=1.0)  # absurdly small LLC
    assert "W304" in codes(verify_sequence(matmul_subgraph(), (), config=cfg))


def test_w305_fires_on_thin_parallel_axis():
    sg = matmul_subgraph()
    seq = (P.split("i", 128, (64,)), P.annotate("i.0", "parallel"))
    diags = verify_sequence(sg, seq)
    w305 = [d for d in diags if d.code == "W305"]
    assert len(w305) == 1
    assert w305[0].primitive_index == 1 and w305[0].axis == "i.0"
    # A wide parallel axis is fine.
    wide = (P.split("i", 128, (8,)), P.annotate("i.0", "parallel"))
    assert "W305" not in codes(verify_sequence(sg, wide))


def test_w306_fires_on_unroll_with_huge_static_body():
    sg = matmul_subgraph()
    diags = verify_sequence(sg, (P.annotate("i", "unroll"),))
    w306 = [d for d in diags if d.code == "W306"]
    assert len(w306) == 1 and w306[0].primitive_index == 0
    # Unrolling a small *innermost* loop stays under the icache budget
    # (the body is the whole loop suffix, so the subgraph must be thin).
    thin = elementwise_subgraph(4096)
    small = (P.split("i", 4096, (8,)), P.annotate("i.1", "unroll"))
    assert "W306" not in codes(verify_sequence(thin, small))


def test_w306_skips_axes_later_fused_away():
    sg = matmul_subgraph()
    seq = (P.annotate("i", "unroll"), P.fuse(("i", "j")))
    diags = verify_sequence(sg, seq)
    assert not has_errors(diags)
    assert "W306" not in codes(diags)


def test_smells_gated_off_on_errors():
    sg = matmul_subgraph()
    # An erroring sequence gets no whole-nest smells piled on top.
    bad = (P.annotate("i", "unroll"), P.split("i", 999, (8,)))
    bad_diags = verify_sequence(sg, bad)
    assert has_errors(bad_diags)
    assert not codes(bad_diags) & {"W304", "W305", "W306"}


def test_working_set_matches_simhw_reuse_model():
    from repro.simhw.cache import BYTES_PER_POINT, REUSE_EXPONENT

    t = 12345.0
    assert absint.working_set_bytes(t) == BYTES_PER_POINT * t ** REUSE_EXPONENT
    assert math.log2(absint.working_set_bytes(1.0)) == 2.0
