//! Per-layer plumbing shared by the workloads that evaluate FMM plans:
//! phase spans from `PhaseTimings`, the stages `FmmPlan::new` composes,
//! tree counts, and the per-phase host roofline.

use crate::host::HostPeaks;
use crate::trace::{SpanId, Tracer, NO_SPAN};
use gpu_counters::CounterEvent;
use kifmm::evaluator::PhaseTimings;
use kifmm::fft_m2l::FftM2l;
use kifmm::{FmmProfile, InteractionLists, LaplaceKernel, Octree, Phase, TreeStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tk1_sim::OpClass;

/// The evaluator's five engine phases, in execution order.
const SPANS: [&str; 5] = ["fmm.up", "fmm.v", "fmm.x", "fmm.down", "fmm.near"];
/// Per-phase seconds metrics.
pub const SECONDS: [&str; 5] = ["fmm.up_s", "fmm.v_s", "fmm.x_s", "fmm.down_s", "fmm.near_s"];
const GFLOPS: [&str; 5] =
    ["fmm.gflops.up", "fmm.gflops.v", "fmm.gflops.x", "fmm.gflops.down", "fmm.gflops.near"];
const INTENSITY: [&str; 5] = [
    "fmm.intensity.up",
    "fmm.intensity.v",
    "fmm.intensity.x",
    "fmm.intensity.down",
    "fmm.intensity.near",
];
const ROOF: [&str; 5] = [
    "fmm.roof_frac.up",
    "fmm.roof_frac.v",
    "fmm.roof_frac.x",
    "fmm.roof_frac.down",
    "fmm.roof_frac.near",
];

/// Seconds per engine phase.
pub fn phase_secs(t: &PhaseTimings) -> [f64; 5] {
    [t.up_s, t.v_s, t.x_s, t.down_s, t.near_s]
}

/// Records an evaluation's phases as back-to-back children of `parent`,
/// laid from its start.
pub fn phase_spans(tr: &mut Tracer, parent: SpanId, key: u64, t: &PhaseTimings) {
    let mut at = tr.start_of(parent);
    for (name, secs) in SPANS.into_iter().zip(phase_secs(t)) {
        tr.record_at(name, key, parent, at, secs);
        at += secs;
    }
}

/// Computed flops and DRAM bytes per engine phase.  The profiler splits
/// work by list (UP, V, U, W, X, DOWN) while the engine fuses U and W
/// into NEAR, and the profile's DOWN includes the L2P the engine runs in
/// NEAR.  Bytes are those the profiler's cache model sends to DRAM.
pub fn engine_work(profile: &FmmProfile) -> [(f64, f64); 5] {
    let work = |phases: &[Phase]| {
        phases.iter().fold((0.0, 0.0), |(flops, bytes), &phase| {
            let p = profile.phase(phase);
            let c = &p.counters;
            let f = 2.0 * c.get(CounterEvent::flops_dp_fma) as f64
                + c.get(CounterEvent::flops_dp_add) as f64
                + c.get(CounterEvent::flops_dp_mul) as f64;
            (flops + f, bytes + p.ops().bytes(OpClass::Dram))
        })
    };
    [
        work(&[Phase::Up]),
        work(&[Phase::V]),
        work(&[Phase::X]),
        work(&[Phase::Down]),
        work(&[Phase::U, Phase::W]),
    ]
}

/// Bytes the profiler's cache simulator classified, at every level.
pub fn simulated_bytes(profile: &FmmProfile) -> f64 {
    profile.total_ops().total_bytes()
}

/// Per-phase achieved GFLOP/s, intensity, and fraction of the host roof
/// `min(peak, bandwidth × intensity)`, from `work` and `secs` over the
/// same evaluations.
pub fn roofline(
    layers: &mut BTreeMap<&'static str, f64>,
    work: &[(f64, f64); 5],
    secs: &[f64; 5],
    peaks: &HostPeaks,
) {
    for i in 0..5 {
        let (flops, bytes) = work[i];
        let gflops = if secs[i] > 0.0 { flops / secs[i] / 1e9 } else { 0.0 };
        let intensity = if bytes > 0.0 { flops / bytes } else { 0.0 };
        let roof = if bytes > 0.0 {
            peaks.peak_gflops.min(peaks.triad_gbs * intensity)
        } else {
            peaks.peak_gflops
        };
        layers.insert(GFLOPS[i], gflops);
        layers.insert(INTENSITY[i], intensity);
        layers.insert(ROOF[i], if roof > 0.0 { gflops / roof } else { 0.0 });
    }
}

/// Times, each on its own, the three stages `FmmPlan::new` composes —
/// tree, lists and the FFT M2L set-up — and returns their seconds.
pub fn plan_stages(
    tr: &mut Tracer,
    key: u64,
    points: &[[f64; 3]],
    densities: &[f64],
    q: usize,
    p: usize,
) -> [f64; 3] {
    let parent = tr.begin("fmm.plan_stages", key, NO_SPAN);
    let t0 = Instant::now();
    let s = tr.begin("fmm.tree", key, parent);
    let tree = Octree::build(points, densities, q);
    tr.end(s);
    let t1 = Instant::now();
    let s = tr.begin("fmm.lists", key, parent);
    let lists = black_box(InteractionLists::build(&tree));
    tr.end(s);
    let t2 = Instant::now();
    let s = tr.begin("fmm.m2l_setup", key, parent);
    let fft = black_box(FftM2l::build(&LaplaceKernel, &tree, p));
    tr.end(s);
    let t3 = Instant::now();
    tr.end(parent);
    drop((lists, fft));
    [(t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), (t3 - t2).as_secs_f64()]
}

/// Tree-shape counts: leaves and pairs summed over `stats`, the deepest
/// depth.
pub fn tree_counts(layers: &mut BTreeMap<&'static str, f64>, stats: &[TreeStats]) {
    layers.insert("fmm.leaves", stats.iter().map(|s| s.leaves as f64).sum());
    layers.insert("fmm.depth", stats.iter().map(|s| s.depth as f64).fold(0.0, f64::max));
    layers.insert("fmm.u_pairs", stats.iter().map(|s| s.direct_interactions as f64).sum());
    layers.insert("fmm.v_pairs", stats.iter().map(|s| s.translations as f64).sum());
}

/// One trace-dump row describing a problem's tree and phase seconds.
pub fn problem_row(workload: &str, name: &str, stats: &TreeStats, secs: &[f64; 5]) -> String {
    format!(
        "{{\"row\":\"problem\",\"workload\":\"{workload}\",\"name\":\"{name}\",\"n\":{},\"leaves\":{},\"depth\":{},\"u_pairs\":{},\"v_pairs\":{},\"w_entries\":{},\"x_entries\":{},\"up_s\":{},\"v_s\":{},\"x_s\":{},\"down_s\":{},\"near_s\":{}}}",
        stats.points,
        stats.leaves,
        stats.depth,
        stats.direct_interactions,
        stats.translations,
        stats.w_entries,
        stats.x_entries,
        secs[0],
        secs[1],
        secs[2],
        secs[3],
        secs[4]
    )
}
