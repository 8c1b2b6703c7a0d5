//! nvprof-style profiling of an FMM plan.
//!
//! The paper reads its FMM's operation counts from hardware counters
//! (Table III) and feeds them to the energy model.  Here the same
//! counters are produced by an instrumentation pass over the plan: it
//! walks every interaction the evaluator would perform, charges analytic
//! instruction costs per inner-loop iteration (the [`CostModel`]
//! constants below document exactly what each iteration costs and why),
//! and classifies every memory access through the cache-hierarchy
//! simulator in the same traversal order the evaluator uses.
//!
//! The pass is *separate from* the numeric evaluator — profiling does not
//! require executing the kernel arithmetic, exactly as nvprof replays
//! kernels to collect counters.  This keeps the hot numeric loops free of
//! instrumentation and lets the paper-scale inputs (N = 262144) be
//! profiled in seconds.  It reads only the plan's shape — tree, lists,
//! surface order and V-list method — so [`profile_shape`] profiles a
//! tree and its lists without building the plan's operators and kernel
//! spectra at all.
//!
//! A time-stepped caller profiles the same plan after every step, and
//! most steps change little of what the pass reads.  [`profile_plan`]
//! therefore keeps the plan's last profile in the plan and recomputes
//! only what the step could have changed:
//!
//! * while the tree's point slabs ([`Octree::generation`]) are
//!   unchanged — a step where no point crossed a leaf boundary — the
//!   whole profile is returned again: no phase reads a point's position;
//! * while only the tree's structure ([`Octree::structure`]) is
//!   unchanged — any in-place repair — the V phase's counters are kept,
//!   because the V pass reads node ids, children, levels and V lists
//!   but no point count or range, and every phase starts from a flushed
//!   cache, so its counters depend on nothing another phase did;
//! * the other phases run the same code [`profile_shape`] runs.
//!
//! The phases a call profiles run on the pool ([`compat::par`]), each
//! on a cache simulator of its own.  The counters are those of one
//! simulator flushed before each phase, in any order: a flush empties
//! both levels and keeps only the round-robin cursor that deals a line's
//! sectors to L2 slices and DRAM sub-partitions, and that cursor moves
//! by whole 4-sector lines, so it stands at 0 mod 4 when a phase starts,
//! as in a fresh simulator.
//!
//! Memory-path modeling follows Kepler's actual load paths:
//!
//! * U-phase point data is read through the read-only (`__ldg`) path and
//!   is L1-cacheable ([`gpu_counters::CacheSim::read`]);
//! * V-phase spectra, kernel tableaux and operator matrices are plain
//!   global loads, cached in L2 only
//!   ([`gpu_counters::CacheSim::read_l2_only`]);
//! * the FFT's transpose passes exchange data through shared memory.

use crate::evaluator::{FmmPlan, M2lMethod};
use crate::kernel::Kernel;
use crate::lists::{v_offset_code, InteractionLists, V_OFFSET_CODES};
use crate::surface::surface_point_count;
use crate::tree::Octree;
use crate::Phase;
use compat::par::par_map_vec;
use gpu_counters::{derive_op_vector, CacheSim, CounterEvent, CounterSet};
use tk1_sim::{KernelProfile, OpVector};

/// Analytic per-iteration instruction costs and per-phase utilizations.
///
/// The instruction constants come from counting the operations in the
/// actual inner loops (see `kernel.rs` and `fft_m2l.rs`): one Laplace
/// evaluation is 3 coordinate differences, a fused norm accumulation, a
/// reciprocal square root and the density multiply-accumulate; its
/// integer cost is the source index increment, the four address
/// computations (x/y/z/density), the loop-bound compare/branch and the
/// accumulator indexing of an unrolled-by-4 GPU loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// DP FMAs per kernel evaluation.
    pub fma_per_eval: u64,
    /// DP adds per kernel evaluation.
    pub add_per_eval: u64,
    /// DP muls per kernel evaluation (includes the rsqrt iteration).
    pub mul_per_eval: u64,
    /// Integer instructions per kernel evaluation.
    pub int_per_eval: u64,
    /// Integer instructions per target-point loop iteration.
    pub int_per_point: u64,
    /// Integer instructions per dense-matvec element (index + address).
    pub int_per_matvec_elem: u64,
    /// DP FMAs per radix-2 butterfly (complex multiply).
    pub fma_per_butterfly: u64,
    /// DP adds per butterfly (complex add/sub).
    pub add_per_butterfly: u64,
    /// Integer instructions per butterfly.
    pub int_per_butterfly: u64,
    /// DP FMAs per spectral multiply-accumulate grid element.
    pub fma_per_mac: u64,
    /// DP adds per spectral MAC element.
    pub add_per_mac: u64,
    /// Integer instructions per spectral MAC element.
    pub int_per_mac: u64,
    /// Achieved utilization per phase (fraction of the bound resource's
    /// peak; the paper measures the FMM below a quarter of peak IPC),
    /// indexed by `phase as usize` ([`Phase::ALL`] order).
    pub utilization: [f64; 6],
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            fma_per_eval: 6,
            add_per_eval: 2,
            mul_per_eval: 3,
            int_per_eval: 16,
            int_per_point: 12,
            int_per_matvec_elem: 2,
            fma_per_butterfly: 4,
            add_per_butterfly: 4,
            int_per_butterfly: 10,
            fma_per_mac: 4,
            add_per_mac: 4,
            int_per_mac: 8,
            // Order: UP, V, U, W, X, DOWN (Phase::ALL order).
            utilization: [0.30, 0.35, 0.25, 0.30, 0.30, 0.30],
        }
    }
}

/// The profile of one FMM phase.
#[derive(Debug, Clone)]
pub struct PhaseProfile {
    /// Which phase.
    pub phase: Phase,
    /// The raw Table III counters collected for the phase.
    pub counters: CounterSet,
    /// The phase's achieved utilization.
    pub utilization: f64,
    /// Kernel launches the phase performs (one per level for the tree
    /// passes).
    pub launches: u32,
}

impl PhaseProfile {
    /// The energy model's feature vector, derived from the counters by
    /// the Section IV-A rules.
    pub fn ops(&self) -> OpVector {
        derive_op_vector(&self.counters)
    }

    /// The phase as an executable kernel descriptor for the simulator.
    pub fn kernel_profile(&self, tag: &str) -> KernelProfile {
        KernelProfile::new(format!("fmm-{}-{}", self.phase.name(), tag), self.ops())
            .with_utilization(self.utilization)
            .with_launches(self.launches)
    }
}

/// The profile of a full FMM evaluation.
#[derive(Debug, Clone)]
pub struct FmmProfile {
    /// Problem size.
    pub n: usize,
    /// Points-per-box parameter.
    pub q: usize,
    /// Per-phase profiles, in [`Phase::ALL`] order.
    pub phases: [PhaseProfile; 6],
}

impl FmmProfile {
    /// The profile of one phase.
    pub fn phase(&self, phase: Phase) -> &PhaseProfile {
        &self.phases[phase as usize]
    }

    /// Total operation counts across all phases.
    pub fn total_ops(&self) -> OpVector {
        let mut total = OpVector::zero();
        for p in &self.phases {
            total.accumulate(&p.ops());
        }
        total
    }

    /// Executable kernel descriptors for every phase.
    pub fn kernels(&self) -> Vec<KernelProfile> {
        let tag = format!("N{}-Q{}", self.n, self.q);
        self.phases.iter().map(|p| p.kernel_profile(&tag)).collect()
    }
}

// Synthetic address-space bases for the cache simulator.
const POINTS_BASE: u64 = 0x1000_0000;
const POTENTIALS_BASE: u64 = 0x3000_0000;
const UP_EQUIV_BASE: u64 = 0x5000_0000;
const DOWN_EQUIV_BASE: u64 = 0x6000_0000;
const DOWN_CHECK_BASE: u64 = 0x7000_0000;
const SPECTRA_BASE: u64 = 0x0009_0000_0000;
const TABLEAU_BASE: u64 = 0x000B_0000_0000;
const OPERATOR_BASE: u64 = 0x000D_0000_0000;

/// An unassigned kernel tableau handle.
const NO_TABLEAU: u32 = u32::MAX;

/// Bytes per stored point (x, y, z, density — four doubles).
const POINT_BYTES: u64 = 32;
/// GPU warp width.
const WARP: u64 = 32;

/// Profiles `plan` under `cost`, producing per-phase counters.
///
/// Equal to [`profile_shape`] over the plan's tree, lists, surface order
/// and method, the only parts of the plan the pass reads.  The plan keeps
/// its last profile, so a call after an in-place tree update recomputes
/// only the phases the update could have changed (see the module docs).
pub fn profile_plan<K: Kernel>(plan: &FmmPlan<K>, cost: &CostModel) -> FmmProfile {
    let key = ShapeKey {
        structure: plan.tree.structure(),
        lists: plan.lists.stamp(),
        p: plan.p,
        method: plan.method,
        cost: cost.clone(),
    };
    let generation = plan.tree.generation();
    let kept_v = match plan.profile_memo.read().as_ref() {
        Some(memo) if memo.key == key && memo.generation == generation => {
            let mut profile = memo.profile.clone();
            // `==` on the cost model equates ±0.0; take the caller's bits.
            for phase in &mut profile.phases {
                phase.utilization = cost.utilization[phase.phase as usize];
            }
            return profile;
        }
        Some(memo) if memo.key == key => Some(memo.profile.phase(Phase::V).counters.clone()),
        _ => None,
    };
    let profile = profile_phases(&plan.tree, &plan.lists, plan.p, plan.method, cost, kept_v);
    *plan.profile_memo.write() = Some(ProfileMemo { key, generation, profile: profile.clone() });
    profile
}

/// A plan's last profile and what it was computed from, kept in the plan
/// beside its schedule cache (see [`profile_plan`]).
#[derive(Debug)]
pub(crate) struct ProfileMemo {
    key: ShapeKey,
    /// The [`Octree::generation`] the profile was computed at.
    generation: u64,
    profile: FmmProfile,
}

/// Everything the V phase's counters are a function of: the tree's
/// structure, the V lists (each build of either has its own stamp), the
/// surface order, the method and the cost model.
#[derive(Debug, PartialEq)]
struct ShapeKey {
    structure: u64,
    lists: u64,
    p: usize,
    method: M2lMethod,
    cost: CostModel,
}

/// Profiles the evaluation a plan over `tree` and its `lists` (as
/// [`InteractionLists::build`] makes them) would perform at surface
/// order `p` with V-list `method`, producing per-phase counters.
///
/// The surface point count and the FFT grid edge (`2p`) both derive
/// from `p`, so a caller that needs only the profile can skip the plan's
/// operators and kernel spectra.
pub fn profile_shape(
    tree: &Octree,
    lists: &InteractionLists,
    p: usize,
    method: M2lMethod,
    cost: &CostModel,
) -> FmmProfile {
    profile_phases(tree, lists, p, method, cost, None)
}

/// [`profile_shape`], with the V phase's counters taken from `kept_v`
/// instead of profiled when given.  The phases left to profile run on
/// the pool, each on a cache simulator of its own (see the module docs).
fn profile_phases(
    tree: &Octree,
    lists: &InteractionLists,
    p: usize,
    method: M2lMethod,
    cost: &CostModel,
    mut kept_v: Option<CounterSet>,
) -> FmmProfile {
    let shape = Shape { tree, lists, ns: surface_point_count(p) as u64 };
    let depth = tree.depth() as u32;
    // One pool item per phase, V carrying its kept counters if any.
    let items = Phase::ALL.map(|phase| (phase, kept_v.take_if(|_| phase == Phase::V)));
    let mut profiled = par_map_vec(items.into(), &|(phase, kept)| {
        kept.unwrap_or_else(|| {
            let mut cache = CacheSim::tegra_k1();
            let counters = CounterSet::new();
            match phase {
                Phase::Up => profile_up(&shape, cost, &mut cache, &counters),
                Phase::V => profile_v(&shape, method, p, cost, &mut cache, &counters),
                Phase::U => profile_u(&shape, cost, &mut cache, &counters),
                Phase::W => profile_w(&shape, cost, &mut cache, &counters),
                Phase::X => profile_x(&shape, cost, &mut cache, &counters),
                Phase::Down => profile_down(&shape, cost, &mut cache, &counters),
            }
            counters
        })
    });

    let phases = Phase::ALL.map(|phase| {
        let counters = std::mem::take(&mut profiled[phase as usize]);
        let launches = match phase {
            Phase::Up | Phase::Down => depth + 1,
            Phase::V => depth.max(2) - 1,
            _ => 1,
        };
        PhaseProfile { phase, counters, utilization: cost.utilization[phase as usize], launches }
    });

    FmmProfile { n: tree.points.len(), q: tree.max_leaf_points, phases }
}

/// The tree, lists and surface size every phase of the pass reads.
struct Shape<'a> {
    tree: &'a Octree,
    lists: &'a InteractionLists,
    /// Surface points per box.
    ns: u64,
}

/// Charges `evals` kernel evaluations plus `points` target-loop
/// iterations of instruction cost.
fn charge_evals(c: &CounterSet, cost: &CostModel, evals: u64, points: u64) {
    c.add(CounterEvent::flops_dp_fma, evals * cost.fma_per_eval);
    c.add(CounterEvent::flops_dp_add, evals * cost.add_per_eval);
    c.add(CounterEvent::flops_dp_mul, evals * cost.mul_per_eval);
    c.add(CounterEvent::inst_integer, evals * cost.int_per_eval + points * cost.int_per_point);
}

/// Charges an `rows x cols` dense matvec.
fn charge_matvec(c: &CounterSet, cost: &CostModel, rows: u64, cols: u64) {
    let elems = rows * cols;
    c.add(CounterEvent::flops_dp_fma, elems);
    c.add(CounterEvent::inst_integer, elems * cost.int_per_matvec_elem);
}

fn point_region(tree: &Octree, ni: usize) -> (u64, usize) {
    let (s, e) = tree.nodes[ni].point_range;
    (POINTS_BASE + s as u64 * POINT_BYTES, (e - s) * POINT_BYTES as usize)
}

fn profile_up(shape: &Shape<'_>, cost: &CostModel, cache: &mut CacheSim, c: &CounterSet) {
    let (tree, ns) = (shape.tree, shape.ns);
    for level in (0..tree.levels.len()).rev() {
        for &ni in &tree.levels[level] {
            let node = &tree.nodes[ni];
            let lvl = node.id.level;
            if node.is_leaf() {
                let np = node.num_points() as u64;
                charge_evals(c, cost, ns * np, np);
                let (addr, bytes) = point_region(tree, ni);
                cache.read(addr, bytes, c);
                charge_matvec(c, cost, ns, ns);
                cache.read_l2_only(
                    OPERATOR_BASE + lvl as u64 * 0x0100_0000,
                    (ns * ns * 8) as usize,
                    c,
                );
            } else {
                for child in node.children.iter().flatten() {
                    charge_matvec(c, cost, ns, ns);
                    let octant = tree.nodes[*child].id.octant() as u64;
                    cache.read_l2_only(
                        OPERATOR_BASE + 0x1000_0000 + (lvl as u64 * 8 + octant) * 0x0040_0000,
                        (ns * ns * 8) as usize,
                        c,
                    );
                    cache.read_l2_only(
                        UP_EQUIV_BASE + *child as u64 * ns * 8,
                        (ns * 8) as usize,
                        c,
                    );
                }
            }
            cache.write(UP_EQUIV_BASE + ni as u64 * ns * 8, (ns * 8) as usize, c);
        }
    }
}

fn profile_v(
    shape: &Shape<'_>,
    method: M2lMethod,
    p: usize,
    cost: &CostModel,
    cache: &mut CacheSim,
    c: &CounterSet,
) {
    let (tree, lists, ns) = (shape.tree, shape.lists, shape.ns);
    match method {
        M2lMethod::Fft => {
            // The convolution grid edge is 2p (see `fft_m2l`).
            let m = 2 * p as u64;
            let grid = m * m * m;
            // 3 axis passes of m² independent length-m transforms.
            let butterflies_per_transform =
                3 * m * m * (m / 2) * u64::from(u64::BITS - m.saturating_sub(1).leading_zeros());
            let shared_tx_per_transform = 3 * grid * 16 / 128;
            // Forward transforms: once per box appearing as a V source.
            let mut is_source = vec![false; tree.nodes.len()];
            for vl in &lists.v {
                for &s in vl {
                    is_source[s] = true;
                }
            }
            for (ni, &src) in is_source.iter().enumerate() {
                if !src {
                    continue;
                }
                charge_fft(c, cost, butterflies_per_transform, shared_tx_per_transform);
                cache.read_l2_only(UP_EQUIV_BASE + ni as u64 * ns * 8, (ns * 8) as usize, c);
                cache.write(SPECTRA_BASE + ni as u64 * grid * 16, (grid * 16) as usize, c);
            }
            // Kernel tableau handles, dense over `level → offset code` as
            // in `FftM2l`, assigned in order of first occurrence.
            let mut tableau = vec![[NO_TABLEAU; V_OFFSET_CODES]; tree.depth() as usize + 1];
            let mut tableaus = 0u32;
            // The union of one parent's children's V sources and tableaus,
            // reused across parents.
            let mut union_sources: Vec<usize> = Vec::new();
            let mut union_tableaus: Vec<u32> = Vec::new();
            // Translations, blocked by parent as the real GPU kernel
            // blocks them: each source spectrum and each kernel tableau
            // is staged into shared memory *once* per parent block
            // (global, L2-cached reads), then the per-pair MAC inner loop
            // streams it from shared memory — so SM transactions scale
            // with pairs while off-chip traffic scales with unique
            // (parent, source) combinations.
            for level in 0..tree.levels.len() {
                for &pi in &tree.levels[level] {
                    let parent = &tree.nodes[pi];
                    if parent.children.iter().all(|ch| ch.is_none()) {
                        continue;
                    }
                    // Stage the union of the children's V sources.
                    union_sources.clear();
                    union_tableaus.clear();
                    for child in parent.children.iter().flatten() {
                        let tid = tree.nodes[*child].id;
                        for &si in &lists.v[*child] {
                            union_sources.push(si);
                            let sid = tree.nodes[si].id;
                            let off = (
                                sid.x as i32 - tid.x as i32,
                                sid.y as i32 - tid.y as i32,
                                sid.z as i32 - tid.z as i32,
                            );
                            // V offsets lie in [-3, 3]³ by construction.
                            let Some(code) = v_offset_code(off) else { continue };
                            let handle = &mut tableau[tid.level as usize][code];
                            if *handle == NO_TABLEAU {
                                *handle = tableaus;
                                tableaus += 1;
                            }
                            union_tableaus.push(*handle);
                        }
                    }
                    union_sources.sort_unstable();
                    union_sources.dedup();
                    union_tableaus.sort_unstable();
                    union_tableaus.dedup();
                    for &si in &union_sources {
                        cache.read_l2_only(
                            SPECTRA_BASE + si as u64 * grid * 16,
                            (grid * 16) as usize,
                            c,
                        );
                    }
                    for &kidx in &union_tableaus {
                        cache.read_l2_only(
                            TABLEAU_BASE + u64::from(kidx) * grid * 16,
                            (grid * 16) as usize,
                            c,
                        );
                    }
                    // Per-pair spectral MACs out of shared memory.
                    for child in parent.children.iter().flatten() {
                        let ti = *child;
                        if lists.v[ti].is_empty() {
                            continue;
                        }
                        let pairs = lists.v[ti].len() as u64;
                        c.add(CounterEvent::flops_dp_fma, pairs * grid * cost.fma_per_mac);
                        c.add(CounterEvent::flops_dp_add, pairs * grid * cost.add_per_mac);
                        c.add(CounterEvent::inst_integer, pairs * grid * cost.int_per_mac);
                        c.add(CounterEvent::l1_shared_load_transactions, pairs * grid * 16 / 128);
                        // Inverse transform + check-surface extraction.
                        charge_fft(c, cost, butterflies_per_transform, shared_tx_per_transform);
                        cache.write(DOWN_CHECK_BASE + ti as u64 * ns * 8, (ns * 8) as usize, c);
                    }
                }
            }
        }
        M2lMethod::Dense => {
            for (ti, vl) in lists.v.iter().enumerate() {
                if vl.is_empty() {
                    continue;
                }
                let tid = tree.nodes[ti].id;
                for &si in vl {
                    let sid = tree.nodes[si].id;
                    charge_matvec(c, cost, ns, ns);
                    // Distinct matrix per offset: hash the offset into an
                    // operator slot.
                    let off_key = ((sid.x as i64 - tid.x as i64 + 3)
                        + 7 * (sid.y as i64 - tid.y as i64 + 3)
                        + 49 * (sid.z as i64 - tid.z as i64 + 3))
                        as u64
                        + 343 * tid.level as u64;
                    cache.read_l2_only(
                        OPERATOR_BASE + 0x4000_0000 + off_key * ns * ns * 8,
                        (ns * ns * 8) as usize,
                        c,
                    );
                    cache.read_l2_only(UP_EQUIV_BASE + si as u64 * ns * 8, (ns * 8) as usize, c);
                }
                cache.write(DOWN_CHECK_BASE + ti as u64 * ns * 8, (ns * 8) as usize, c);
            }
        }
    }
}

fn charge_fft(c: &CounterSet, cost: &CostModel, butterflies: u64, shared_tx: u64) {
    c.add(CounterEvent::flops_dp_fma, butterflies * cost.fma_per_butterfly);
    c.add(CounterEvent::flops_dp_add, butterflies * cost.add_per_butterfly);
    c.add(CounterEvent::inst_integer, butterflies * cost.int_per_butterfly);
    c.add(CounterEvent::l1_shared_load_transactions, shared_tx);
    c.add(CounterEvent::l1_shared_store_transactions, shared_tx);
}

fn profile_u(shape: &Shape<'_>, cost: &CostModel, cache: &mut CacheSim, c: &CounterSet) {
    let (tree, lists) = (shape.tree, shape.lists);
    for li in tree.leaves() {
        let nt = tree.nodes[li].num_points() as u64;
        let warps = nt.div_ceil(WARP);
        for &ai in &lists.u[li] {
            let np = tree.nodes[ai].num_points() as u64;
            charge_evals(c, cost, nt * np, nt);
            // Each warp streams the source box through the read-only
            // (L1-cached) path.
            let (addr, bytes) = point_region(tree, ai);
            for _ in 0..warps {
                cache.read(addr, bytes, c);
            }
        }
        // Target coordinates and the potential write-back.
        let (taddr, tbytes) = point_region(tree, li);
        cache.read(taddr, tbytes, c);
        let (s, _) = tree.nodes[li].point_range;
        cache.write(POTENTIALS_BASE + s as u64 * 8, (nt * 8) as usize, c);
    }
}

fn profile_w(shape: &Shape<'_>, cost: &CostModel, cache: &mut CacheSim, c: &CounterSet) {
    let (tree, lists, ns) = (shape.tree, shape.lists, shape.ns);
    for li in tree.leaves() {
        if lists.w[li].is_empty() {
            continue;
        }
        let nt = tree.nodes[li].num_points() as u64;
        for &wi in &lists.w[li] {
            charge_evals(c, cost, nt * ns, nt);
            cache.read_l2_only(UP_EQUIV_BASE + wi as u64 * ns * 8, (ns * 8) as usize, c);
        }
        let (s, _) = tree.nodes[li].point_range;
        cache.write(POTENTIALS_BASE + s as u64 * 8, (nt * 8) as usize, c);
    }
}

fn profile_x(shape: &Shape<'_>, cost: &CostModel, cache: &mut CacheSim, c: &CounterSet) {
    let (tree, lists, ns) = (shape.tree, shape.lists, shape.ns);
    for (bi, xl) in lists.x.iter().enumerate() {
        if xl.is_empty() {
            continue;
        }
        for &ci in xl {
            let np = tree.nodes[ci].num_points() as u64;
            charge_evals(c, cost, ns * np, ns);
            let (addr, bytes) = point_region(tree, ci);
            cache.read(addr, bytes, c);
        }
        cache.write(DOWN_CHECK_BASE + bi as u64 * ns * 8, (ns * 8) as usize, c);
    }
}

fn profile_down(shape: &Shape<'_>, cost: &CostModel, cache: &mut CacheSim, c: &CounterSet) {
    let (tree, ns) = (shape.tree, shape.ns);
    for level in 0..tree.levels.len() {
        for &ni in &tree.levels[level] {
            let node = &tree.nodes[ni];
            let lvl = node.id.level;
            // DC2E solve.
            charge_matvec(c, cost, ns, ns);
            cache.read_l2_only(DOWN_CHECK_BASE + ni as u64 * ns * 8, (ns * 8) as usize, c);
            cache.read_l2_only(
                OPERATOR_BASE + 0x2000_0000 + lvl as u64 * 0x0100_0000,
                (ns * ns * 8) as usize,
                c,
            );
            if node.parent.is_some() {
                // L2L from the parent.
                charge_matvec(c, cost, ns, ns);
                let octant = node.id.octant() as u64;
                cache.read_l2_only(
                    OPERATOR_BASE + 0x3000_0000 + (lvl as u64 * 8 + octant) * 0x0040_0000,
                    (ns * ns * 8) as usize,
                    c,
                );
            }
            cache.write(DOWN_EQUIV_BASE + ni as u64 * ns * 8, (ns * 8) as usize, c);
            if node.is_leaf() {
                // L2P.
                let nt = node.num_points() as u64;
                charge_evals(c, cost, nt * ns, nt);
                let (taddr, tbytes) = point_region(tree, ni);
                cache.read(taddr, tbytes, c);
                let (s, _) = node.point_range;
                cache.write(POTENTIALS_BASE + s as u64 * 8, (nt * 8) as usize, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compat::rng::StdRng;
    use tk1_sim::OpClass;

    fn plan(n: usize, q: usize, seed: u64) -> FmmPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<[f64; 3]> =
            (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
        let den: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
        FmmPlan::new(&pts, &den, q, 4, M2lMethod::Fft)
    }

    #[test]
    fn profile_covers_all_phases() {
        let p = plan(4000, 64, 1);
        let prof = profile_plan(&p, &CostModel::default());
        assert_eq!(prof.phases.len(), 6);
        for phase in Phase::ALL {
            let _ = prof.phase(phase);
        }
        assert_eq!(prof.n, 4000);
        assert_eq!(prof.q, 64);
    }

    #[test]
    fn u_phase_eval_count_matches_pair_sum() {
        let p = plan(3000, 50, 2);
        let prof = profile_plan(&p, &CostModel::default());
        let cost = CostModel::default();
        // Expected FMA count: Σ over leaves, U-pairs of nt·ns evals.
        let mut evals = 0u64;
        for li in p.tree.leaves() {
            let nt = p.tree.nodes[li].num_points() as u64;
            for &ai in &p.lists.u[li] {
                evals += nt * p.tree.nodes[ai].num_points() as u64;
            }
        }
        let fma = prof.phase(Phase::U).counters.get(CounterEvent::flops_dp_fma);
        assert_eq!(fma, evals * cost.fma_per_eval);
    }

    #[test]
    fn integer_share_of_instructions_near_sixty_percent() {
        // The paper's Section IV-C(a) observation.
        let p = plan(8000, 64, 3);
        let prof = profile_plan(&p, &CostModel::default());
        let ops = prof.total_ops();
        let int_share = ops.get(OpClass::Int) / ops.total_compute();
        assert!(
            (0.45..0.70).contains(&int_share),
            "integer instruction share {int_share:.2} should be near 60%"
        );
    }

    #[test]
    fn dram_is_minority_of_accesses() {
        // Section IV-C(b): DRAM ≈ 13% of accesses.
        let p = plan(8000, 64, 4);
        let prof = profile_plan(&p, &CostModel::default());
        let ops = prof.total_ops();
        let dram_share = ops.get(OpClass::Dram) / ops.total_memory_ops();
        assert!(
            dram_share < 0.35,
            "DRAM share of accesses {dram_share:.2} should be a small minority"
        );
        assert!(dram_share > 0.005, "but not negligible: {dram_share:.4}");
    }

    #[test]
    fn u_phase_is_compute_bound_v_phase_less_intense() {
        let p = plan(8000, 64, 5);
        let prof = profile_plan(&p, &CostModel::default());
        let u_ops = prof.phase(Phase::U).ops();
        let v_ops = prof.phase(Phase::V).ops();
        // Arithmetic intensity (flops per byte of off-chip traffic).
        let intensity = |o: &OpVector| {
            o.total_flops() / (o.bytes(OpClass::Dram) + o.bytes(OpClass::L2)).max(1.0)
        };
        assert!(
            intensity(&u_ops) > 4.0 * intensity(&v_ops),
            "U intensity {} ≫ V intensity {}",
            intensity(&u_ops),
            intensity(&v_ops)
        );
    }

    #[test]
    fn kernels_are_executable_descriptors() {
        let p = plan(2000, 40, 6);
        let prof = profile_plan(&p, &CostModel::default());
        let kernels = prof.kernels();
        assert_eq!(kernels.len(), 6);
        for k in &kernels {
            assert!(k.utilization > 0.0 && k.utilization <= 1.0);
            assert!(k.launches >= 1);
        }
        // Executing them on the simulator produces sane times.
        let mut dev = tk1_sim::Device::new(1);
        let total: f64 = kernels.iter().map(|k| dev.execute(k).duration_s).sum();
        assert!(total > 0.0 && total.is_finite());
    }

    #[test]
    fn larger_q_shifts_work_toward_u_phase() {
        // The paper's tuning knob: larger Q = more direct (U) work, fewer
        // tree levels, less V work.
        let cost = CostModel::default();
        let small_q = profile_plan(&plan(8000, 32, 7), &cost);
        let large_q = profile_plan(&plan(8000, 256, 7), &cost);
        let u_flops = |p: &FmmProfile| p.phase(Phase::U).ops().total_flops();
        let v_flops = |p: &FmmProfile| p.phase(Phase::V).ops().total_flops();
        assert!(u_flops(&large_q) > u_flops(&small_q));
        let ratio_small = u_flops(&small_q) / v_flops(&small_q).max(1.0);
        let ratio_large = u_flops(&large_q) / v_flops(&large_q).max(1.0);
        assert!(ratio_large > ratio_small, "{ratio_large} vs {ratio_small}");
    }

    /// FNV-1a over the little-endian bytes of all 6 × 17 counters, in
    /// phase then Table III order.
    fn counter_digest(prof: &FmmProfile) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for phase in &prof.phases {
            for v in phase.counters.snapshot() {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x100000001b3);
                }
            }
        }
        h
    }

    /// The point draw of the service's FMM lowering at `n`, `q`, `seed`.
    fn lowering_draw(n: usize, q: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = StdRng::seed_from_u64(seed ^ (n as u64).rotate_left(13) ^ q as u64);
        (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect()
    }

    #[test]
    fn counter_digests_match_their_recorded_values() {
        // Recorded from the per-sector cache simulator and the hashed
        // V-phase bookkeeping the current pass replaced, and (the
        // lowering case) from the serial pass; every counter feeds the
        // energy model, the golden suite and the BENCH files.  The
        // phases run on the pool, so the digests must hold at every
        // pool width.  The width is process-global: this is the only
        // test in the module that sets it.
        use crate::distributions::{plummer, uniform_cube};
        let cases = [
            (uniform_cube(3000, 1), 32, M2lMethod::Fft, 0xad45c0a37caa55f5),
            (uniform_cube(1024, 2), 8, M2lMethod::Fft, 0x5d30572dbe4e92e5),
            (plummer(4000, 0.05, 3), 32, M2lMethod::Fft, 0x5452bf2c9fa870a5),
            (uniform_cube(2000, 4), 32, M2lMethod::Dense, 0x5795cc3759a03fc7),
            (lowering_draw(1024, 8, 0x10E5), 8, M2lMethod::Fft, 0x17e538e4894ca3e3),
        ];
        let shapes: Vec<_> = cases
            .into_iter()
            .map(|(pts, q, method, recorded)| {
                let tree = Octree::build(&pts, &vec![1.0; pts.len()], q);
                let lists = InteractionLists::build(&tree);
                (tree, lists, method, recorded)
            })
            .collect();
        for threads in [1usize, 2, 4, 8] {
            compat::par::set_thread_count(Some(threads));
            for (tree, lists, method, recorded) in &shapes {
                let prof = profile_shape(tree, lists, 4, *method, &CostModel::default());
                assert_eq!(
                    counter_digest(&prof),
                    *recorded,
                    "{threads} threads, n={} q={} {method:?}: {:#018x}",
                    tree.points.len(),
                    tree.max_leaf_points,
                    counter_digest(&prof)
                );
            }
        }
        compat::par::set_thread_count(None);
    }

    #[test]
    fn profiling_the_shape_equals_profiling_the_plan() {
        let mut rng = StdRng::seed_from_u64(9);
        let pts: Vec<[f64; 3]> =
            (0..1500).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
        let den = vec![1.0; pts.len()];
        let cost = CostModel::default();
        for method in [M2lMethod::Fft, M2lMethod::Dense] {
            let plan = FmmPlan::new(&pts, &den, 24, 4, method);
            let tree = Octree::build(&pts, &den, 24);
            let lists = InteractionLists::build(&tree);
            let (from_plan, from_shape) =
                (profile_plan(&plan, &cost), profile_shape(&tree, &lists, 4, method, &cost));
            assert_eq!((from_shape.n, from_shape.q), (from_plan.n, from_plan.q));
            for (a, b) in from_shape.phases.iter().zip(&from_plan.phases) {
                assert_eq!(a.phase, b.phase);
                assert_eq!(
                    a.counters.snapshot(),
                    b.counters.snapshot(),
                    "{method:?} {:?}",
                    a.phase
                );
            }
            for (a, b) in from_shape.kernels().iter().zip(&from_plan.kernels()) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.ops, b.ops);
                assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
                assert_eq!(a.launches, b.launches);
            }
        }
    }

    /// Asserts `got` equals `want` in every counter, utilization bit
    /// and launch count.
    fn assert_same_profile(got: &FmmProfile, want: &FmmProfile, at: &str) {
        assert_eq!((got.n, got.q), (want.n, want.q), "{at}");
        for (g, w) in got.phases.iter().zip(&want.phases) {
            assert_eq!(g.phase, w.phase, "{at}");
            assert_eq!(g.counters.snapshot(), w.counters.snapshot(), "{at}: {:?}", g.phase);
            assert_eq!(g.utilization.to_bits(), w.utilization.to_bits(), "{at}: {:?}", g.phase);
            assert_eq!(g.launches, w.launches, "{at}: {:?}", g.phase);
        }
    }

    /// Adds one `gld_request` to the memo's V and U counters, so a
    /// profile served from the memo shows which phases it reused.
    fn mark_memo(plan: &FmmPlan) {
        let memo = plan.profile_memo.read();
        let memo = memo.as_ref().expect("profiled");
        for phase in [Phase::V, Phase::U] {
            memo.profile.phase(phase).counters.add(CounterEvent::gld_request, 1);
        }
    }

    fn marked(prof: &FmmProfile, phase: Phase, fresh: &FmmProfile) -> bool {
        let gld = |p: &FmmProfile| p.phase(phase).counters.get(CounterEvent::gld_request);
        gld(prof) == gld(fresh) + 1
    }

    #[test]
    fn memo_reuses_what_the_tree_kept_and_misses_on_new_inputs() {
        let fresh = |plan: &FmmPlan, cost: &CostModel| {
            profile_shape(&plan.tree, &plan.lists, plan.p, plan.method, cost)
        };
        let cost = CostModel::default();
        let mut p = plan(1200, 24, 11);
        assert_same_profile(&profile_plan(&p, &cost), &fresh(&p, &cost), "first call");

        // Same contents: the whole profile is the memo's.
        mark_memo(&p);
        let again = profile_plan(&p, &cost);
        let want = fresh(&p, &cost);
        assert!(marked(&again, Phase::V, &want) && marked(&again, Phase::U, &want));

        // An in-place update keeps the structure: only V is the memo's.
        p.tree.bump_generation();
        let stepped = profile_plan(&p, &cost);
        assert!(marked(&stepped, Phase::V, &want) && !marked(&stepped, Phase::U, &want));
        for phase in [Phase::Up, Phase::U, Phase::W, Phase::X, Phase::Down] {
            let (got, want) = (stepped.phase(phase), want.phase(phase));
            assert_eq!(got.counters.snapshot(), want.counters.snapshot(), "{phase:?}");
        }

        // A changed cost model misses, utilization included.
        mark_memo(&p);
        let mut dearer = CostModel { int_per_mac: 9, ..CostModel::default() };
        dearer.utilization[Phase::V as usize] = 0.5;
        assert_same_profile(&profile_plan(&p, &dearer), &fresh(&p, &dearer), "new cost model");

        // Another tree and its lists swapped into the plan miss.
        mark_memo(&p);
        let other = plan(1200, 24, 12);
        (p.tree, p.lists) = (other.tree, other.lists);
        assert_same_profile(&profile_plan(&p, &dearer), &fresh(&p, &dearer), "swapped tree");

        // So do lists rebuilt for the same tree.
        mark_memo(&p);
        p.lists = InteractionLists::build(&p.tree);
        assert_same_profile(&profile_plan(&p, &dearer), &fresh(&p, &dearer), "rebuilt lists");
    }

    #[test]
    fn profile_is_deterministic() {
        let p = plan(3000, 64, 8);
        let a = profile_plan(&p, &CostModel::default());
        let b = profile_plan(&p, &CostModel::default());
        for (pa, pb) in a.phases.iter().zip(&b.phases) {
            assert_eq!(pa.counters.snapshot(), pb.counters.snapshot());
        }
    }
}
