//! The six-phase FMM evaluation engine.
//!
//! Phases run in the paper's order — UP (P2M + M2M), V (M2L), U (P2P),
//! W, X, DOWN (L2L + L2P) — with pooled data parallelism (see
//! [`compat::par`]) inside each phase: over same-level boxes for the
//! tree passes and over leaves for the list passes.
//!
//! # Execution engine
//!
//! The engine is allocation-free in steady state:
//!
//! * **Flat arenas, kept.** Per-node expansion data (`up_equiv`,
//!   `down_check`, `down_equiv`) lives in three contiguous `f64` arenas
//!   indexed by `node * ns` rather than per-node boxed vectors, and the
//!   V phase's source spectra in two more.  Phases write straight into
//!   their disjoint arena slices through [`SendPtr`] — no
//!   collect-then-scatter round trips.  The arenas are kept on the
//!   calling thread between evaluations, grown to the largest plan it
//!   has evaluated, so a time-stepped caller reuses warm memory instead
//!   of allocating and first-touching it on every call.  `up_equiv`,
//!   `down_equiv` and the spectra are fully overwritten by every
//!   evaluation; `down_check`, which V and X add into, is re-zeroed.
//! * **Step memo.**  A plan armed with [`FmmPlan::arm_step_memo`] holds
//!   its own `up_equiv` and spectra, plus each leaf's U-list partials,
//!   with a snapshot of the points they came from; an evaluation
//!   recomputes only the entries of boxes whose points changed bit for
//!   bit, and adds the kept partials in list order, so its potentials
//!   are those of an unarmed plan.
//! * **Column-major operators.** Every translation operator is applied
//!   through [`dvfs_linalg::ColMajor`], which sums each output row
//!   exactly as a row dot product does but vectorizes across rows.
//! * **Per-chunk scratch.** Each parallel worker chunk carries reusable
//!   scratch buffers ([`compat::par::par_for_each_chunked_init`]):
//!   scaled surface points, check potentials, FFT grids and SoA staging
//!   are allocated once per chunk, not once per node.
//! * **Chunk affinity.** Every phase fans out over a persistent
//!   [`PhaseSchedule`] partition (cached in the plan, keyed by thread
//!   count) instead of re-splitting per call: chunk `k` of each phase
//!   covers the same slab of the permuted point/arena space, so the
//!   worker that warmed a subtree's multipoles in UP tends to run that
//!   subtree's V, DOWN and NEAR work too (see [`crate::schedule`]).
//! * **Surface templates.** The unit surface lattice is computed once
//!   per `(p, radius)` ([`SurfaceTemplate`]) and scaled per box with a
//!   streaming multiply-add.
//! * **SoA near field.** The permuted tree points are mirrored once
//!   into a structure-of-arrays ([`SoaSources`]) inside the plan; the
//!   U list, P2M and X source loops read per-box
//!   [`crate::p2p_opt::SoaView`] ranges and
//!   run the kernel's vectorized [`Kernel::p2p_soa`] /
//!   [`Kernel::p2p_grad_soa`] fast paths.
//!
//! Writes are race-free by construction: each parallel task owns a
//! disjoint target (its box's arena slice or its leaf's scattered
//! potential slots), and all reads are to data finalized in an earlier
//! level or phase.
//!
//! # Determinism
//!
//! Results are bitwise identical across thread counts and repeated
//! evaluations: every per-node value is a pure function of inputs
//! finalized before its phase, inner accumulation loops run in fixed
//! list order, and the V-phase two-for-one FFT pairing is by fixed
//! source index — never by chunk boundary.  `evaluate` and
//! [`FmmEvaluator::evaluate_with_gradient`] share the same potential
//! arithmetic, so their potentials are bitwise equal too.

use crate::fft_m2l::FftM2l;
use crate::instrument::ProfileMemo;
use crate::kernel::{Kernel, LaplaceKernel};
use crate::lists::InteractionLists;
use crate::operators::OperatorCache;
use crate::p2p_opt::SoaSources;
use crate::schedule::PhaseSchedule;
use crate::surface::{surface_point_count, SurfaceTemplate, RADIUS_INNER, RADIUS_OUTER};
use crate::tree::Octree;
use compat::par::{self, par_for_each_chunked_init, SendPtr};
use compat::sync::RwLock;
use dvfs_fft::Complex;
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::Instant;

/// A coarse engine phase, as seen by a [`PhaseObserver`].
///
/// These are the five *execution* sections of the engine, not the six
/// instrumentation phases of [`crate::Phase`]: the leaf pass fuses L2P,
/// the W list and the U list into one sweep, so they surface here as a
/// single [`EnginePhase::Near`] boundary (the same fusion
/// [`PhaseTimings::near_s`] reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnginePhase {
    /// P2M at leaves + M2M up the tree.
    Up,
    /// M2L (FFT or dense) into the downward-check arena.
    V,
    /// Source points onto downward-check surfaces.
    X,
    /// L2L top-down.
    Down,
    /// Fused leaf pass: L2P + W + U.
    Near,
}

impl EnginePhase {
    /// The phases in execution order.
    pub const ALL: [EnginePhase; 5] =
        [EnginePhase::Up, EnginePhase::V, EnginePhase::X, EnginePhase::Down, EnginePhase::Near];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EnginePhase::Up => "UP",
            EnginePhase::V => "V",
            EnginePhase::X => "X",
            EnginePhase::Down => "DOWN",
            EnginePhase::Near => "NEAR",
        }
    }
}

/// Phase-boundary hook for [`FmmEvaluator::evaluate_observed`].
///
/// The engine calls `on_phase_start` immediately before entering each
/// [`EnginePhase`] and `on_phase_end` (with the phase's wall-clock
/// seconds) immediately after — this is the seam an online DVFS governor
/// latches per-phase operating points through (see `dvfs-governor`).
/// The observer runs on the calling thread, strictly between phases;
/// it cannot perturb the numerics, so observed evaluations return
/// bitwise-identical potentials to unobserved ones.
pub trait PhaseObserver {
    /// Called before the phase's first parallel region starts.
    fn on_phase_start(&mut self, phase: EnginePhase);
    /// Called after the phase's last write, with its wall-clock time.
    fn on_phase_end(&mut self, phase: EnginePhase, elapsed_s: f64);
}

fn phase_start(obs: &mut Option<&mut dyn PhaseObserver>, phase: EnginePhase) {
    if let Some(o) = obs.as_deref_mut() {
        o.on_phase_start(phase);
    }
}

fn phase_end(obs: &mut Option<&mut dyn PhaseObserver>, phase: EnginePhase, elapsed_s: f64) {
    if let Some(o) = obs.as_deref_mut() {
        o.on_phase_end(phase, elapsed_s);
    }
}

/// How the V-list translations are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum M2lMethod {
    /// Dense per-offset operator matrices.
    Dense,
    /// FFT convolution (the paper's configuration).
    Fft,
}

/// Wall-clock seconds spent in each evaluation phase.
///
/// `near_s` covers the fused leaf pass — L2P, the W list and the U list
/// all stream over each leaf's targets in one sweep, so they share one
/// timer.  The phases sum to slightly less than `total_s` (observer
/// calls between the phases count toward the total only).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// UP: P2M at leaves + M2M up the tree.
    pub up_s: f64,
    /// V: M2L (FFT or dense) into the downward-check arena.
    pub v_s: f64,
    /// X: source points onto downward-check surfaces.
    pub x_s: f64,
    /// DOWN: L2L top-down.
    pub down_s: f64,
    /// Fused leaf pass: L2P + W + U (+ gradient twins when requested).
    pub near_s: f64,
    /// Whole evaluation, including arena setup and the output scatter.
    pub total_s: f64,
}

/// An execution plan: tree, lists, and precomputed operators.
///
/// Generic over the interaction kernel — the "kernel independence" of
/// the KIFMM is literal here: any [`Kernel`] implementation gets the
/// same tree, lists, operators and FFT machinery.
///
/// ```
/// use kifmm::evaluator::{FmmPlan, M2lMethod};
/// use kifmm::{direct_sum, relative_l2_error, FmmEvaluator};
/// use kifmm::distributions::uniform_cube;
///
/// let points = uniform_cube(400, 7);
/// let densities = vec![1.0; 400];
/// let plan = FmmPlan::new(&points, &densities, 32, 4, M2lMethod::Fft);
/// let potentials = FmmEvaluator::new().evaluate(&plan);
/// let reference = direct_sum(&points, &densities);
/// assert!(relative_l2_error(&potentials, &reference) < 1e-2);
/// ```
pub struct FmmPlan<K: Kernel = LaplaceKernel> {
    /// The interaction kernel.
    pub kernel: K,
    /// The octree.
    pub tree: Octree,
    /// The U/V/W/X lists.
    pub lists: InteractionLists,
    /// Dense translation operators.
    pub ops: OperatorCache,
    /// FFT M2L state (present when `method == Fft`).
    pub fft: Option<FftM2l>,
    /// Surface order.
    pub p: usize,
    /// V-list evaluation method.
    pub method: M2lMethod,
    /// The tree's permuted points + densities in SoA layout; each box's
    /// sources are the contiguous range `soa.range(s, e)` of its
    /// `point_range`.
    pub soa: SoaSources,
    /// Unit surface template at [`RADIUS_INNER`].
    pub tpl_inner: SurfaceTemplate,
    /// Unit surface template at [`RADIUS_OUTER`].
    pub tpl_outer: SurfaceTemplate,
    /// Cached chunk-affinity [`PhaseSchedule`], keyed by the thread
    /// count it was partitioned for (see [`FmmPlan::schedule`]).
    schedule: RwLock<Option<Arc<PhaseSchedule>>>,
    /// The last profile [`crate::profile_plan`] produced for this plan.
    pub(crate) profile_memo: RwLock<Option<ProfileMemo>>,
    /// The step memo, once armed (see [`FmmPlan::arm_step_memo`]).
    step_memo: Option<Mutex<StepMemo>>,
}

impl FmmPlan<LaplaceKernel> {
    /// Builds a plan for `points`/`densities` with at most `q` points per
    /// leaf and surface order `p` (must be a power of two for the FFT
    /// method), using the single-layer Laplace kernel.
    pub fn new(
        points: &[[f64; 3]],
        densities: &[f64],
        q: usize,
        p: usize,
        method: M2lMethod,
    ) -> Self {
        FmmPlan::with_kernel(LaplaceKernel, points, densities, q, p, method)
    }
}

impl<K: Kernel> FmmPlan<K> {
    /// Builds a plan for an arbitrary interaction kernel.
    pub fn with_kernel(
        kernel: K,
        points: &[[f64; 3]],
        densities: &[f64],
        q: usize,
        p: usize,
        method: M2lMethod,
    ) -> Self {
        let tree = Octree::build(points, densities, q);
        let lists = InteractionLists::build(&tree);
        // The dense M2L matrices are only built for the dense method; the
        // FFT method precomputes kernel spectra instead.
        let ops =
            OperatorCache::build_for_method(&kernel, &tree, &lists, p, method == M2lMethod::Dense);
        let fft = match method {
            M2lMethod::Fft => Some(FftM2l::build_with_lists(&kernel, &tree, &lists, p)),
            M2lMethod::Dense => None,
        };
        let soa = SoaSources::from_points(&tree.points, &tree.densities);
        let tpl_inner = SurfaceTemplate::new(p, RADIUS_INNER);
        let tpl_outer = SurfaceTemplate::new(p, RADIUS_OUTER);
        FmmPlan {
            kernel,
            tree,
            lists,
            ops,
            fft,
            p,
            method,
            soa,
            tpl_inner,
            tpl_outer,
            schedule: RwLock::new(None),
            profile_memo: RwLock::new(None),
            step_memo: None,
        }
    }

    /// Arms the step memo: every later evaluation keeps, per box, the
    /// upward equivalent, the V source spectrum and the U-list partials it
    /// computed, with a snapshot of the points they came from, and the
    /// next evaluation recomputes only the entries of boxes whose points
    /// changed.  Potentials are bit for bit those of an unarmed plan.
    /// Meant for a plan re-evaluated after small in-place updates, such
    /// as a time-stepped caller's: it costs 8 B per target point per
    /// U-list box, plus the V phase's source spectra, for as long as the
    /// plan lives.  The entries are keyed on the tree's structure, the
    /// lists, `p` and the method; the kernel, operators and surface
    /// templates must stay those the plan was built with.
    pub fn arm_step_memo(&mut self) {
        self.step_memo.get_or_insert_with(Mutex::default);
    }

    /// Surface points per box.
    pub fn ns(&self) -> usize {
        surface_point_count(self.p)
    }

    /// The chunk-affinity schedule for the current thread count and
    /// tree generation.
    ///
    /// Built lazily on first use and cached in the plan; a thread-count
    /// change (via [`par::set_thread_count`] or `FMM_ENERGY_THREADS`)
    /// or an in-place tree mutation (tracked by
    /// [`Octree::bump_generation`]) transparently rebuilds it.  Keying
    /// on the generation matters for correctness, not just balance: an
    /// incremental tree update moves `point_range` slab boundaries, and
    /// a schedule partitioned for the old ranges would hand NEAR/X
    /// chunks stale slabs.  The partition never affects results (see
    /// [`crate::schedule`]), only which worker touches which slab.
    pub fn schedule(&self) -> Arc<PhaseSchedule> {
        let threads = par::num_threads();
        if let Some(cached) = self.schedule.read().as_ref() {
            if cached.threads == threads && cached.generation == self.tree.generation() {
                return Arc::clone(cached);
            }
        }
        let built = Arc::new(PhaseSchedule::build(&self.tree, &self.lists, threads));
        *self.schedule.write() = Some(Arc::clone(&built));
        built
    }
}

/// Per-chunk scratch for the upward pass.
struct UpScratch {
    surf: Vec<[f64; 3]>,
    check: Vec<f64>,
}

/// Per-chunk scratch for the fused leaf pass.
struct LeafScratch {
    surf: Vec<[f64; 3]>,
    soa: SoaSources,
    pot: Vec<f64>,
    grad: Vec<[f64; 3]>,
}

/// The per-node and spectrum arenas one evaluation fills (see the module
/// docs), kept on the calling thread between evaluations.
#[derive(Default)]
struct Arenas {
    up_equiv: Vec<f64>,
    down_check: Vec<f64>,
    down_equiv: Vec<f64>,
    spec_re: Vec<f64>,
    spec_im: Vec<f64>,
}

thread_local! {
    /// The calling thread's arenas.  An evaluation takes them and puts
    /// them back when it finishes, so a nested evaluation on the same
    /// thread (from a [`PhaseObserver`], say) starts from empty arenas
    /// rather than sharing the outer one's.
    static ARENAS: Cell<Arenas> = Cell::new(Arenas::default());
}

/// The first `len` entries of `arena`, replaced by a zeroed arena of
/// exactly `len` when it is shorter.  A kept arena holds the previous
/// evaluation's values: callers overwrite, or clear, what they read.
fn prefix(arena: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if arena.len() < len {
        *arena = vec![0.0; len];
    }
    &mut arena[..len]
}

/// What an armed plan's last evaluation computed per box, and the inputs
/// it computed it from (see [`FmmPlan::arm_step_memo`]).
///
/// Validity comes from content: a leaf is *clean* while its slab — its
/// target points and its SoA sources — equals the snapshot taken at the
/// last evaluation bit for bit, length included, and a box is clean when
/// every leaf under it is.  An evaluation reuses, unrecomputed:
///
/// * a clean box's upward equivalent (P2M + UC2E at a leaf, M2M above);
/// * a V source's forward spectrum, when both boxes of its two-for-one
///   pair are clean — the packed transform couples the two at rounding
///   level;
/// * per target leaf and U-list entry, the values `p2p_soa` would add to
///   the leaf's targets, when the target and the source leaf are clean;
///   they are added in list order, as the unmemoized pass adds them.
///
/// Each entry is a deterministic function of the clean inputs, so reuse
/// changes no bit.  V accumulation, DOWN and L2P are recomputed, since
/// they carry the far field, which any moved point changes, and so are
/// X and W, which are empty on a uniform tree.  The entries
/// are keyed on the tree's structure and list stamps, the surface order
/// and the method, and are valid only once an evaluation has returned:
/// an evaluation takes the memo out of the plan and puts it back when it
/// completes, so one that unwinds leaves an empty memo behind.
#[derive(Default)]
pub(crate) struct StepMemo {
    /// What the entries were computed for; `None` until an evaluation
    /// completes.
    key: Option<MemoKey>,
    /// The tree's points at that evaluation.
    points: Vec<[f64; 3]>,
    /// The plan's SoA sources at that evaluation.
    soa: SoaSources,
    /// Every node's point range at that evaluation.
    ranges: Vec<(usize, usize)>,
    up_equiv: Vec<f64>,
    spec_re: Vec<f64>,
    spec_im: Vec<f64>,
    /// Per leaf, one row of `nt` values per U-list entry: what the entry
    /// adds to each of the leaf's `nt` targets.
    u_rows: Vec<Vec<f64>>,
}

/// The plan state a [`StepMemo`]'s node-indexed entries are valid for.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MemoKey {
    structure: u64,
    lists: u64,
    p: usize,
    method: M2lMethod,
}

impl MemoKey {
    fn of<K: Kernel>(plan: &FmmPlan<K>) -> Self {
        MemoKey {
            structure: plan.tree.structure(),
            lists: plan.lists.stamp(),
            p: plan.p,
            method: plan.method,
        }
    }
}

/// Whether two `f64` slices are equal bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl StepMemo {
    /// Per node, whether the box is clean (see [`StepMemo`]); all
    /// `false` when the entries were computed for another `key`.
    fn clean_boxes<K: Kernel>(&self, plan: &FmmPlan<K>, key: MemoKey) -> Vec<bool> {
        let tree = &plan.tree;
        let mut clean = vec![false; tree.nodes.len()];
        if self.key != Some(key) {
            return clean;
        }
        let (now, then) = (&plan.soa, &self.soa);
        for level in tree.levels.iter().rev() {
            for &ni in level {
                let node = &tree.nodes[ni];
                clean[ni] = if node.is_leaf() {
                    let (s, e) = node.point_range;
                    let (os, oe) = self.ranges[ni];
                    same_bits(tree.points[s..e].as_flattened(), self.points[os..oe].as_flattened())
                        && same_bits(&now.x[s..e], &then.x[os..oe])
                        && same_bits(&now.y[s..e], &then.y[os..oe])
                        && same_bits(&now.z[s..e], &then.z[os..oe])
                        && same_bits(&now.q[s..e], &then.q[os..oe])
                } else {
                    node.children.iter().flatten().all(|&c| clean[c])
                };
            }
        }
        clean
    }

    /// Snapshots the inputs the entries were just computed from and marks
    /// them valid for `key`.
    fn record<K: Kernel>(&mut self, plan: &FmmPlan<K>, key: MemoKey) {
        let tree = &plan.tree;
        self.points.clone_from(&tree.points);
        self.soa.clone_from(&plan.soa);
        self.ranges.clear();
        self.ranges.extend(tree.nodes.iter().map(|node| node.point_range));
        self.key = Some(key);
    }
}

/// The memo's lock, unless another evaluation holds it.  An evaluation
/// that unwound poisoned the lock but left an empty memo in it, which any
/// later evaluation may refill.
fn try_lock_memo(memo: &Mutex<StepMemo>) -> Option<MutexGuard<'_, StepMemo>> {
    match memo.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(poisoned)) => {
            memo.clear_poison();
            Some(poisoned.into_inner())
        }
        Err(TryLockError::WouldBlock) => None,
    }
}

/// The evaluator.  Stateless; the kernel lives in the plan, and the
/// arenas are kept per calling thread.
#[derive(Debug, Default)]
pub struct FmmEvaluator;

impl FmmEvaluator {
    /// Creates an evaluator.
    pub fn new() -> Self {
        FmmEvaluator
    }

    /// Computes all `N` potentials, returned in the ORIGINAL point order.
    pub fn evaluate<K: Kernel>(&self, plan: &FmmPlan<K>) -> Vec<f64> {
        self.evaluate_impl(plan, false, None).0
    }

    /// Like [`FmmEvaluator::evaluate`], additionally reporting wall-clock
    /// time per phase — the measurement hook the phase benchmarks and
    /// `repro fmm-scaling` build on.
    pub fn evaluate_timed<K: Kernel>(&self, plan: &FmmPlan<K>) -> (Vec<f64>, PhaseTimings) {
        let (pot, _, timings) = self.evaluate_impl(plan, false, None);
        (pot, timings)
    }

    /// Like [`FmmEvaluator::evaluate_timed`], invoking `observer` at every
    /// phase boundary (see [`PhaseObserver`]).  Potentials are bitwise
    /// identical to the unobserved paths.
    pub fn evaluate_observed<K: Kernel>(
        &self,
        plan: &FmmPlan<K>,
        observer: &mut dyn PhaseObserver,
    ) -> (Vec<f64>, PhaseTimings) {
        let (pot, _, timings) = self.evaluate_impl(plan, false, Some(observer));
        (pot, timings)
    }

    /// Computes potentials *and* their gradients `∇f(x_i)` (for the
    /// Laplace kernel, `−∇f` is the field — the force per unit charge),
    /// both in the ORIGINAL point order.
    ///
    /// The far field is differentiated through its single-layer
    /// representation: at the leaf stages (L2P, W, U) the gradient kernel
    /// is applied against the same equivalent densities and sources the
    /// potential uses, so force accuracy matches potential accuracy up to
    /// one derivative order.
    pub fn evaluate_with_gradient<K: Kernel>(
        &self,
        plan: &FmmPlan<K>,
    ) -> (Vec<f64>, Vec<[f64; 3]>) {
        let (pot, grad, _) = self.evaluate_impl(plan, true, None);
        (pot, grad)
    }

    /// Potentials, gradients (empty unless `with_grad`) and phase times,
    /// computed in the calling thread's kept arenas.
    fn evaluate_impl<K: Kernel>(
        &self,
        plan: &FmmPlan<K>,
        with_grad: bool,
        obs: Option<&mut dyn PhaseObserver>,
    ) -> (Vec<f64>, Vec<[f64; 3]>, PhaseTimings) {
        // A thread being torn down has no arenas to lend; it evaluates
        // in fresh ones.
        let mut arenas = ARENAS.try_with(Cell::take).unwrap_or_default();
        // Gradient evaluations neither read nor write the step memo, and
        // an evaluation that finds it taken runs without it.
        let guard = plan.step_memo.as_ref().filter(|_| !with_grad).and_then(try_lock_memo);
        let result = match guard {
            Some(mut guard) => {
                let mut memo = std::mem::take(&mut *guard);
                let result = Self::evaluate_in(plan, with_grad, obs, &mut arenas, Some(&mut memo));
                *guard = memo;
                result
            }
            None => Self::evaluate_in(plan, with_grad, obs, &mut arenas, None),
        };
        let _ = ARENAS.try_with(|kept| kept.set(arenas));
        result
    }

    fn evaluate_in<K: Kernel>(
        plan: &FmmPlan<K>,
        with_grad: bool,
        mut obs: Option<&mut dyn PhaseObserver>,
        arenas: &mut Arenas,
        mut memo: Option<&mut StepMemo>,
    ) -> (Vec<f64>, Vec<[f64; 3]>, PhaseTimings) {
        let tree = &plan.tree;
        let ns = plan.ns();
        let n_nodes = tree.nodes.len();
        // One fixed target→chunk partition shared by every phase: chunk
        // `k` covers the same slab of the permuted point/arena space in
        // UP, V, X, DOWN and NEAR, so a worker re-touches memory it
        // warmed in the previous phase (see [`crate::schedule`]).
        let sched = plan.schedule();
        let mut timings = PhaseTimings::default();
        let t_total = Instant::now();
        // With a memo, the upward equivalents and the spectra live in it,
        // and a clean box's entries are kept instead of recomputed.
        let key = MemoKey::of(plan);
        let clean = match memo.as_deref() {
            Some(m) => m.clean_boxes(plan, key),
            None => vec![false; n_nodes],
        };
        let (up_arena, spec_re_arena, spec_im_arena, u_rows) = match memo.as_deref_mut() {
            Some(m) => {
                m.u_rows.resize_with(n_nodes, Vec::new);
                (&mut m.up_equiv, &mut m.spec_re, &mut m.spec_im, Some(&mut m.u_rows))
            }
            None => (&mut arenas.up_equiv, &mut arenas.spec_re, &mut arenas.spec_im, None),
        };

        // ---- UP: P2M at leaves, M2M bottom-up. ----------------------
        phase_start(&mut obs, EnginePhase::Up);
        let t = Instant::now();
        let up_equiv = prefix(up_arena, n_nodes * ns);
        {
            let base = SendPtr::new(up_equiv.as_mut_ptr());
            for level in (0..tree.levels.len()).rev() {
                par_for_each_chunked_init(
                    &sched.level_chunks[level],
                    || UpScratch { surf: Vec::new(), check: vec![0.0; ns] },
                    |scr, ni| {
                        if clean[ni] {
                            return;
                        }
                        let node = &tree.nodes[ni];
                        // SAFETY: each task writes only its own node's
                        // slice; child reads touch slices finalized in
                        // the previous (deeper) level iteration.
                        let slot = unsafe { base.slice_mut(ni * ns, ns) };
                        if node.is_leaf() {
                            plan.tpl_outer.scale_into(node.center, node.half_width, &mut scr.surf);
                            scr.check.fill(0.0);
                            let (s, e) = node.point_range;
                            plan.kernel.p2p_soa(&scr.surf, plan.soa.range(s, e), &mut scr.check);
                            plan.ops.uc2e(node.id.level).apply_into(&scr.check, slot);
                        } else {
                            slot.fill(0.0);
                            for child in node.children.iter().flatten() {
                                let cnode = &tree.nodes[*child];
                                let cequiv = unsafe { base.slice(*child * ns, ns) };
                                plan.ops
                                    .m2m(cnode.id.level, cnode.id.octant())
                                    .apply_acc(cequiv, slot);
                            }
                        }
                    },
                );
            }
        }
        let up_equiv: &[f64] = up_equiv;
        timings.up_s = t.elapsed().as_secs_f64();
        phase_end(&mut obs, EnginePhase::Up, timings.up_s);

        // ---- V: M2L into the downward-check arena. ------------------
        phase_start(&mut obs, EnginePhase::V);
        let t = Instant::now();
        let down_check = prefix(&mut arenas.down_check, n_nodes * ns);
        down_check.fill(0.0);
        match &plan.fft {
            Some(fft) => {
                let glen = fft.grid_len();
                let hlen = fft.half_len();
                // Dense slot assignment for every box appearing as a V
                // source, in node-index order — precomputed once in the
                // schedule rather than per evaluation.
                let spec_slot = &sched.spec_slot;
                let sources = &sched.v_sources;
                // Forward transforms, two source boxes per complex FFT,
                // stored as split re/im Hermitian half-grids for the
                // multiply-add hot loop.  Pairing is by fixed slot index
                // (2i, 2i+1) — chunks partition the *pair list* — so the
                // spectra, and hence all downstream bits, do not depend
                // on the thread count or the chunk boundaries.
                let spec_re = prefix(spec_re_arena, sources.len() * hlen);
                let spec_im = prefix(spec_im_arena, sources.len() * hlen);
                {
                    let base_re = SendPtr::new(spec_re.as_mut_ptr());
                    let base_im = SendPtr::new(spec_im.as_mut_ptr());
                    par_for_each_chunked_init(
                        &sched.v_source_pair_chunks,
                        || vec![Complex::ZERO; glen],
                        |grid, pi| {
                            let a = 2 * pi;
                            let b = a + 1;
                            if clean[sources[a]] && sources.get(b).is_none_or(|&sb| clean[sb]) {
                                return;
                            }
                            let da = &up_equiv[sources[a] * ns..(sources[a] + 1) * ns];
                            // SAFETY: pair `pi` owns exactly the spectrum
                            // slots `2pi` and `2pi + 1`.
                            let (ra, ia) = unsafe {
                                (
                                    base_re.slice_mut(a * hlen, hlen),
                                    base_im.slice_mut(a * hlen, hlen),
                                )
                            };
                            if b < sources.len() {
                                let db = &up_equiv[sources[b] * ns..(sources[b] + 1) * ns];
                                let (rb, ib) = unsafe {
                                    (
                                        base_re.slice_mut(b * hlen, hlen),
                                        base_im.slice_mut(b * hlen, hlen),
                                    )
                                };
                                fft.source_spectrum_half_pair_into(da, db, grid, ra, ia, rb, ib);
                            } else {
                                fft.source_spectrum_half_into(da, grid, ra, ia);
                            }
                        },
                    );
                }
                let (spec_re, spec_im): (&[f64], &[f64]) = (spec_re, spec_im);
                // Per-target frequency-domain accumulation, finished
                // straight into the down-check arena.  Targets are
                // processed in fixed-index pairs (2i, 2i+1) so two
                // accumulators share one packed inverse transform —
                // pairing by slot keeps the (rounding-level) cross-talk
                // of the packed inverse independent of the thread count.
                let targets = &sched.v_targets;
                let base = SendPtr::new(down_check.as_mut_ptr());
                let accumulate_target = |ni: usize, acc_re: &mut [f64], acc_im: &mut [f64]| {
                    let tid = tree.nodes[ni].id;
                    acc_re.fill(0.0);
                    acc_im.fill(0.0);
                    for &si in &plan.lists.v[ni] {
                        let sid = tree.nodes[si].id;
                        let off = (
                            sid.x as i32 - tid.x as i32,
                            sid.y as i32 - tid.y as i32,
                            sid.z as i32 - tid.z as i32,
                        );
                        let slot_i = spec_slot[si] * hlen;
                        let ok = fft.accumulate_split(
                            tid.level,
                            off,
                            &spec_re[slot_i..slot_i + hlen],
                            &spec_im[slot_i..slot_i + hlen],
                            acc_re,
                            acc_im,
                        );
                        debug_assert!(ok, "spectrum for every realized offset");
                    }
                };
                par_for_each_chunked_init(
                    &sched.v_target_pair_chunks,
                    || {
                        (
                            vec![0.0f64; hlen],
                            vec![0.0f64; hlen],
                            vec![0.0f64; hlen],
                            vec![0.0f64; hlen],
                            vec![Complex::ZERO; glen],
                        )
                    },
                    |(a_re, a_im, b_re, b_im, cgrid), pi| {
                        let na = targets[2 * pi];
                        accumulate_target(na, a_re, a_im);
                        // SAFETY: each V target owns its node's slice,
                        // and each pair owns two distinct targets.
                        let slot_a = unsafe { base.slice_mut(na * ns, ns) };
                        if let Some(&nb) = targets.get(2 * pi + 1) {
                            accumulate_target(nb, b_re, b_im);
                            let slot_b = unsafe { base.slice_mut(nb * ns, ns) };
                            fft.finish_split_acc_pair_into(
                                a_re, a_im, b_re, b_im, cgrid, slot_a, slot_b,
                            );
                        } else {
                            fft.finish_split_acc_into(a_re, a_im, cgrid, slot_a);
                        }
                    },
                );
            }
            None => {
                let base = SendPtr::new(down_check.as_mut_ptr());
                par_for_each_chunked_init(
                    &sched.v_target_chunks,
                    || (),
                    |_, ni| {
                        let tid = tree.nodes[ni].id;
                        // SAFETY: each V target owns its node's slice.
                        let slot = unsafe { base.slice_mut(ni * ns, ns) };
                        for &si in &plan.lists.v[ni] {
                            let sid = tree.nodes[si].id;
                            let off = (
                                sid.x as i32 - tid.x as i32,
                                sid.y as i32 - tid.y as i32,
                                sid.z as i32 - tid.z as i32,
                            );
                            let m2l = plan.ops.m2l(tid.level, off).expect("operator cached");
                            m2l.apply_acc(&up_equiv[si * ns..(si + 1) * ns], slot);
                        }
                    },
                );
            }
        }
        timings.v_s = t.elapsed().as_secs_f64();
        phase_end(&mut obs, EnginePhase::V, timings.v_s);

        // ---- X: source points onto downward-check surfaces. ---------
        phase_start(&mut obs, EnginePhase::X);
        let t = Instant::now();
        {
            let base = SendPtr::new(down_check.as_mut_ptr());
            par_for_each_chunked_init(&sched.x_chunks, Vec::new, |surf: &mut Vec<[f64; 3]>, ni| {
                let node = &tree.nodes[ni];
                plan.tpl_inner.scale_into(node.center, node.half_width, surf);
                // SAFETY: each X target owns its node's slice.
                let slot = unsafe { base.slice_mut(ni * ns, ns) };
                for &ci in &plan.lists.x[ni] {
                    let (s, e) = tree.nodes[ci].point_range;
                    plan.kernel.p2p_soa(surf, plan.soa.range(s, e), slot);
                }
            });
        }
        let down_check: &[f64] = down_check;
        timings.x_s = t.elapsed().as_secs_f64();
        phase_end(&mut obs, EnginePhase::X, timings.x_s);

        // ---- DOWN: L2L top-down. -------------------------------------
        phase_start(&mut obs, EnginePhase::Down);
        let t = Instant::now();
        let down_equiv = prefix(&mut arenas.down_equiv, n_nodes * ns);
        {
            let base = SendPtr::new(down_equiv.as_mut_ptr());
            for level in 0..tree.levels.len() {
                par_for_each_chunked_init(
                    &sched.level_chunks[level],
                    || (),
                    |_, ni| {
                        let node = &tree.nodes[ni];
                        // SAFETY: each task writes only its own node's
                        // slice; the parent read touches a slice finalized
                        // in the previous (shallower) level iteration.
                        let slot = unsafe { base.slice_mut(ni * ns, ns) };
                        plan.ops
                            .dc2e(node.id.level)
                            .apply_into(&down_check[ni * ns..(ni + 1) * ns], slot);
                        if let Some(pi) = node.parent {
                            let pequiv = unsafe { base.slice(pi * ns, ns) };
                            plan.ops.l2l(node.id.level, node.id.octant()).apply_acc(pequiv, slot);
                        }
                    },
                );
            }
        }
        let down_equiv: &[f64] = down_equiv;
        timings.down_s = t.elapsed().as_secs_f64();
        phase_end(&mut obs, EnginePhase::Down, timings.down_s);

        // ---- Fused leaf pass: L2P + W + U, scattered in place. -------
        phase_start(&mut obs, EnginePhase::Near);
        let t = Instant::now();
        let n_points = tree.points.len();
        let mut out = vec![0.0f64; n_points];
        let mut out_grad = if with_grad { vec![[0.0f64; 3]; n_points] } else { Vec::new() };
        {
            let out_base = SendPtr::new(out.as_mut_ptr());
            let grad_base = with_grad.then(|| SendPtr::new(out_grad.as_mut_ptr()));
            let rows_base = u_rows.map(|rows| SendPtr::new(rows.as_mut_ptr()));
            par_for_each_chunked_init(
                &sched.leaf_chunks,
                || LeafScratch {
                    surf: Vec::new(),
                    soa: SoaSources::with_capacity(ns),
                    pot: Vec::new(),
                    grad: Vec::new(),
                },
                |scr, li| {
                    let node = &tree.nodes[li];
                    let (s, e) = node.point_range;
                    let targets = &tree.points[s..e];
                    scr.pot.clear();
                    scr.pot.resize(e - s, 0.0);
                    if with_grad {
                        scr.grad.clear();
                        scr.grad.resize(e - s, [0.0; 3]);
                    }
                    // L2P: evaluate the local expansion.
                    let stage = |scr: &mut LeafScratch, equiv: &[f64]| {
                        scr.soa.clear();
                        for (pt, &q) in scr.surf.iter().zip(equiv) {
                            scr.soa.push(*pt, q);
                        }
                    };
                    plan.tpl_outer.scale_into(node.center, node.half_width, &mut scr.surf);
                    stage(scr, &down_equiv[li * ns..(li + 1) * ns]);
                    plan.kernel.p2p_soa(targets, scr.soa.view(), &mut scr.pot);
                    if with_grad {
                        plan.kernel.p2p_grad_soa(targets, scr.soa.view(), &mut scr.grad);
                    }
                    // W: multipoles of W-list boxes evaluated directly.
                    for &wi in &plan.lists.w[li] {
                        let wnode = &tree.nodes[wi];
                        plan.tpl_inner.scale_into(wnode.center, wnode.half_width, &mut scr.surf);
                        stage(scr, &up_equiv[wi * ns..(wi + 1) * ns]);
                        plan.kernel.p2p_soa(targets, scr.soa.view(), &mut scr.pot);
                        if with_grad {
                            plan.kernel.p2p_grad_soa(targets, scr.soa.view(), &mut scr.grad);
                        }
                    }
                    // U: direct near-field over SoA source ranges.
                    let u_list = &plan.lists.u[li];
                    if let Some(rb) = rows_base.filter(|_| !targets.is_empty()) {
                        // SAFETY: `rb` points at `u_rows`, resized to
                        // `n_nodes > li` above, and each leaf is one task,
                        // so no other task touches `u_rows[li]`.
                        let rows = unsafe { &mut *rb.get().add(li) };
                        if !clean[li] {
                            rows.resize(targets.len() * u_list.len(), 0.0);
                        }
                        for (row, &ui) in rows.chunks_exact_mut(targets.len()).zip(u_list) {
                            if !clean[li] || !clean[ui] {
                                // Into a zeroed row, p2p_soa writes the
                                // exact values it adds (see its docs).
                                let (us, ue) = tree.nodes[ui].point_range;
                                row.fill(0.0);
                                plan.kernel.p2p_soa(targets, plan.soa.range(us, ue), row);
                            }
                            for (p, v) in scr.pot.iter_mut().zip(row.iter()) {
                                *p += v;
                            }
                        }
                    } else {
                        for &ui in u_list {
                            let (us, ue) = tree.nodes[ui].point_range;
                            plan.kernel.p2p_soa(targets, plan.soa.range(us, ue), &mut scr.pot);
                            if with_grad {
                                plan.kernel.p2p_grad_soa(
                                    targets,
                                    plan.soa.range(us, ue),
                                    &mut scr.grad,
                                );
                            }
                        }
                    }
                    // Scatter straight to original point order.
                    // SAFETY: the permutation is a bijection and leaf
                    // point ranges are disjoint, so no two leaves write
                    // the same output slot.
                    for (offset, &v) in scr.pot.iter().enumerate() {
                        unsafe { *out_base.get().add(tree.permutation[s + offset]) = v };
                    }
                    if let Some(gb) = grad_base {
                        for (offset, &v) in scr.grad.iter().enumerate() {
                            unsafe { *gb.get().add(tree.permutation[s + offset]) = v };
                        }
                    }
                },
            );
        }
        timings.near_s = t.elapsed().as_secs_f64();
        phase_end(&mut obs, EnginePhase::Near, timings.near_s);
        if let Some(m) = memo {
            m.record(plan, key);
        }
        timings.total_s = t_total.elapsed().as_secs_f64();
        (out, out_grad, timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::{direct_sum, relative_l2_error};
    use compat::rng::StdRng;

    fn random_problem(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
        let den = (0..n).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
        (pts, den)
    }

    #[test]
    fn schedule_cache_is_invalidated_by_tree_generation() {
        let (pts, den) = random_problem(900, 7);
        let mut plan = FmmPlan::new(&pts, &den, 40, 4, M2lMethod::Fft);
        let first = plan.schedule();
        assert!(Arc::ptr_eq(&first, &plan.schedule()), "same generation: cache hit");
        // An in-place tree mutation (what the streaming engine's
        // incremental update does) must drop the cached partition —
        // before the generation key, this returned the stale `first`.
        plan.tree.bump_generation();
        let second = plan.schedule();
        assert!(!Arc::ptr_eq(&first, &second), "stale schedule served after tree mutation");
        assert_eq!(second.generation, plan.tree.generation());
        assert!(Arc::ptr_eq(&second, &plan.schedule()), "fresh schedule is cached again");
    }

    #[test]
    fn matches_direct_sum_dense_m2l() {
        let (pts, den) = random_problem(1500, 1);
        let plan = FmmPlan::new(&pts, &den, 40, 4, M2lMethod::Dense);
        let fmm = FmmEvaluator::new().evaluate(&plan);
        let direct = direct_sum(&pts, &den);
        let err = relative_l2_error(&fmm, &direct);
        assert!(err < 5e-3, "FMM vs direct relative L2 error {err}");
    }

    #[test]
    fn matches_direct_sum_fft_m2l() {
        let (pts, den) = random_problem(1500, 2);
        let plan = FmmPlan::new(&pts, &den, 40, 4, M2lMethod::Fft);
        let fmm = FmmEvaluator::new().evaluate(&plan);
        let direct = direct_sum(&pts, &den);
        let err = relative_l2_error(&fmm, &direct);
        assert!(err < 5e-3, "FFT-M2L FMM vs direct relative L2 error {err}");
    }

    #[test]
    fn fft_and_dense_agree_closely() {
        let (pts, den) = random_problem(2000, 3);
        let dense =
            FmmEvaluator::new().evaluate(&FmmPlan::new(&pts, &den, 50, 4, M2lMethod::Dense));
        let fft = FmmEvaluator::new().evaluate(&FmmPlan::new(&pts, &den, 50, 4, M2lMethod::Fft));
        let err = relative_l2_error(&fft, &dense);
        assert!(err < 1e-10, "two M2L paths are the same operator: {err}");
    }

    #[test]
    fn higher_order_is_more_accurate() {
        let (pts, den) = random_problem(1200, 4);
        let direct = direct_sum(&pts, &den);
        let e4 = relative_l2_error(
            &FmmEvaluator::new().evaluate(&FmmPlan::new(&pts, &den, 30, 4, M2lMethod::Fft)),
            &direct,
        );
        let e8 = relative_l2_error(
            &FmmEvaluator::new().evaluate(&FmmPlan::new(&pts, &den, 30, 8, M2lMethod::Fft)),
            &direct,
        );
        assert!(e8 < e4, "p=8 ({e8}) beats p=4 ({e4})");
        assert!(e8 < 1e-5, "p=8 reaches ~1e-6: {e8}");
    }

    #[test]
    fn clustered_distribution_still_accurate() {
        // Exercises the adaptive W/X paths.
        let mut rng = StdRng::seed_from_u64(5);
        let mut pts = Vec::new();
        for _ in 0..800 {
            pts.push([
                0.1 + rng.random::<f64>() * 0.02,
                0.5 + rng.random::<f64>() * 0.02,
                0.5 + rng.random::<f64>() * 0.02,
            ]);
        }
        for _ in 0..700 {
            pts.push([rng.random(), rng.random(), rng.random()]);
        }
        let den: Vec<f64> = (0..1500).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
        let plan = FmmPlan::new(&pts, &den, 24, 4, M2lMethod::Fft);
        // Sanity: the adaptive paths are actually exercised.
        assert!(plan.lists.w.iter().map(|l| l.len()).sum::<usize>() > 0);
        let fmm = FmmEvaluator::new().evaluate(&plan);
        let direct = direct_sum(&pts, &den);
        let err = relative_l2_error(&fmm, &direct);
        assert!(err < 5e-3, "adaptive case error {err}");
    }

    #[test]
    fn single_leaf_tree_is_exact() {
        // Q >= N: everything is one U-list self-interaction = direct sum.
        let (pts, den) = random_problem(120, 6);
        let plan = FmmPlan::new(&pts, &den, 200, 4, M2lMethod::Dense);
        let fmm = FmmEvaluator::new().evaluate(&plan);
        let direct = direct_sum(&pts, &den);
        let err = relative_l2_error(&fmm, &direct);
        assert!(err < 1e-14, "single box is exact: {err}");
    }

    #[test]
    fn gradients_match_direct_force_sum() {
        use crate::kernel::{Kernel, LaplaceKernel};
        let (pts, den) = random_problem(1000, 21);
        let plan = FmmPlan::new(&pts, &den, 32, 8, M2lMethod::Fft);
        let (pot, grad) = FmmEvaluator::new().evaluate_with_gradient(&plan);
        // Potentials unchanged by the gradient path.
        let pot_only = FmmEvaluator::new().evaluate(&plan);
        assert_eq!(pot, pot_only);
        // Reference gradient by direct summation.
        let kernel = LaplaceKernel;
        let mut reference = vec![[0.0; 3]; pts.len()];
        for (i, &t) in pts.iter().enumerate() {
            let mut acc = [0.0; 3];
            for (j, &s) in pts.iter().enumerate() {
                let g = kernel.eval_grad(t, s);
                acc[0] += g[0] * den[j];
                acc[1] += g[1] * den[j];
                acc[2] += g[2] * den[j];
            }
            reference[i] = acc;
        }
        // Relative L2 over all 3N components.
        let mut num = 0.0;
        let mut d2 = 0.0;
        for (a, b) in grad.iter().zip(&reference) {
            for k in 0..3 {
                num += (a[k] - b[k]) * (a[k] - b[k]);
                d2 += b[k] * b[k];
            }
        }
        let err = (num / d2).sqrt();
        assert!(err < 2e-2, "gradient relative L2 error {err}");
    }

    #[test]
    fn kernel_independence_yukawa_matches_its_direct_sum() {
        // The headline KIFMM property: swap the kernel, keep everything
        // else — the scheme still converges to that kernel's direct sum.
        use crate::accuracy::direct_sum_with;
        use crate::kernel::YukawaKernel;
        let (pts, den) = random_problem(1200, 9);
        let kernel = YukawaKernel::new(1.5);
        let plan = FmmPlan::with_kernel(kernel, &pts, &den, 40, 4, M2lMethod::Fft);
        let fmm = FmmEvaluator::new().evaluate(&plan);
        let direct = direct_sum_with(&kernel, &pts, &den);
        let err = relative_l2_error(&fmm, &direct);
        assert!(err < 5e-3, "Yukawa FMM vs direct relative L2 error {err}");
        // And it is genuinely a different answer than Laplace.
        let laplace = direct_sum(&pts, &den);
        assert!(relative_l2_error(&direct, &laplace) > 0.05);
    }

    #[test]
    fn potentials_scale_linearly_with_density() {
        let (pts, den) = random_problem(600, 7);
        let plan = FmmPlan::new(&pts, &den, 30, 4, M2lMethod::Fft);
        let base = FmmEvaluator::new().evaluate(&plan);
        let den2: Vec<f64> = den.iter().map(|d| 2.0 * d).collect();
        let plan2 = FmmPlan::new(&pts, &den2, 30, 4, M2lMethod::Fft);
        let doubled = FmmEvaluator::new().evaluate(&plan2);
        let err = relative_l2_error(&doubled, &base.iter().map(|p| 2.0 * p).collect::<Vec<_>>());
        assert!(err < 1e-12, "linearity: {err}");
    }

    #[test]
    fn repeated_evaluations_on_warm_pool_are_bitwise_stable() {
        // One plan evaluated many times: results must be bitwise
        // identical run to run, and the persistent pool must not grow a
        // fresh set of workers per call (pre-pool, 6 evaluations × every
        // parallel region would each have spawned their own threads).
        let (pts, den) = random_problem(900, 33);
        let plan = FmmPlan::new(&pts, &den, 32, 4, M2lMethod::Fft);
        let ev = FmmEvaluator::new();
        let first = ev.evaluate(&plan);
        for _ in 0..5 {
            assert_eq!(ev.evaluate(&plan), first);
        }
        assert!(
            compat::par::pool_workers() <= compat::par::MAX_POOL_WORKERS,
            "worker count is bounded by the pool cap, not by call count"
        );
    }

    #[test]
    fn observed_evaluation_is_bitwise_identical_and_ordered() {
        struct Recorder {
            events: Vec<(EnginePhase, bool)>,
        }
        impl PhaseObserver for Recorder {
            fn on_phase_start(&mut self, phase: EnginePhase) {
                self.events.push((phase, true));
            }
            fn on_phase_end(&mut self, phase: EnginePhase, elapsed_s: f64) {
                assert!(elapsed_s >= 0.0);
                self.events.push((phase, false));
            }
        }
        let (pts, den) = random_problem(1100, 55);
        let plan = FmmPlan::new(&pts, &den, 32, 4, M2lMethod::Fft);
        let mut rec = Recorder { events: Vec::new() };
        let (pot, _) = FmmEvaluator::new().evaluate_observed(&plan, &mut rec);
        assert_eq!(pot, FmmEvaluator::new().evaluate(&plan), "observer changes nothing");
        let expected: Vec<(EnginePhase, bool)> =
            EnginePhase::ALL.iter().flat_map(|&p| [(p, true), (p, false)]).collect();
        assert_eq!(rec.events, expected, "start/end for each phase, in execution order");
    }

    #[test]
    fn a_plan_keeps_no_step_memo_unless_armed() {
        let (pts, den) = random_problem(900, 61);
        let plan = FmmPlan::new(&pts, &den, 32, 4, M2lMethod::Fft);
        let ev = FmmEvaluator::new();
        assert_eq!(ev.evaluate(&plan), ev.evaluate(&plan));
        assert!(plan.step_memo.is_none(), "an unarmed plan evaluated twice holds no memo");
    }

    /// Moves `plan`'s point `j` by `dx` along x and scales its density by
    /// `scale`, in the tree and in the SoA mirror alike.
    fn nudge(plan: &mut FmmPlan, j: usize, dx: f64, scale: f64) {
        plan.tree.points[j][0] += dx;
        plan.soa.x[j] += dx;
        plan.tree.densities[j] *= scale;
        plan.soa.q[j] *= scale;
    }

    #[test]
    fn an_armed_plan_recomputes_what_changed_and_survives_an_unwind() {
        // A clustered cloud, so internal boxes are V sources too and a
        // stale M2M would show.
        let (_, den) = random_problem(1500, 62);
        let pts = crate::distributions::plummer(1500, 0.1, 62);
        let mut armed = FmmPlan::new(&pts, &den, 40, 4, M2lMethod::Fft);
        armed.arm_step_memo();
        let mut plain = FmmPlan::new(&pts, &den, 40, 4, M2lMethod::Fft);
        let ev = FmmEvaluator::new();
        let bits = |plan: &FmmPlan| -> Vec<u64> {
            ev.evaluate(plan).iter().map(|v| v.to_bits()).collect()
        };
        fn lock(plan: &FmmPlan) -> MutexGuard<'_, StepMemo> {
            let memo = plan.step_memo.as_ref().expect("armed");
            memo.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }
        let memo_valid = |plan: &FmmPlan| lock(plan).key.is_some();
        // The leaves the memo holds stale entries for.
        let dirty_leaves = |plan: &FmmPlan| -> Vec<usize> {
            let clean = lock(plan).clean_boxes(plan, MemoKey::of(plan));
            let nodes = plan.tree.nodes.iter().enumerate();
            nodes.filter(|&(ni, node)| node.is_leaf() && !clean[ni]).map(|(ni, _)| ni).collect()
        };
        let leaf_of = |plan: &FmmPlan, j: usize| {
            plan.tree
                .nodes
                .iter()
                .position(|n| n.is_leaf() && (n.point_range.0..n.point_range.1).contains(&j))
        };
        assert_eq!(bits(&armed), bits(&plain), "first evaluation");
        assert!(memo_valid(&armed));
        assert!(dirty_leaves(&armed).is_empty());
        // Points moved inside their leaves and a changed density dirty
        // their leaves only; the rest comes from the memo.
        for (j, dx, scale) in [(17, 1e-7, 1.0), (900, -2e-7, 1.0), (1200, 0.0, -3.0)] {
            nudge(&mut armed, j, dx, scale);
            nudge(&mut plain, j, dx, scale);
            assert_eq!(dirty_leaves(&armed), Vec::from_iter(leaf_of(&armed, j)), "point {j}");
            assert_eq!(bits(&armed), bits(&plain), "point {j} changed");
        }
        // Gradient evaluations bypass the memo and agree with it.
        let with_grad = ev.evaluate_with_gradient(&armed).0;
        assert_eq!(with_grad.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits(&plain));

        // An evaluation that finds the memo taken runs without it and
        // leaves it as it was.
        nudge(&mut armed, 33, 1e-7, 1.0);
        nudge(&mut plain, 33, 1e-7, 1.0);
        {
            let _taken = lock(&armed);
            assert_eq!(bits(&armed), bits(&plain), "memo taken");
        }
        assert_eq!(dirty_leaves(&armed), Vec::from_iter(leaf_of(&armed, 33)));
        assert_eq!(bits(&armed), bits(&plain), "memo free again");

        // An evaluation that unwinds leaves the memo empty, and the next
        // one recomputes everything.
        struct Panicky;
        impl PhaseObserver for Panicky {
            fn on_phase_start(&mut self, _: EnginePhase) {}
            fn on_phase_end(&mut self, phase: EnginePhase, _: f64) {
                assert_ne!(phase, EnginePhase::V, "observer gives up after V");
            }
        }
        nudge(&mut armed, 5, 3e-7, 1.0);
        nudge(&mut plain, 5, 3e-7, 1.0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ev.evaluate_observed(&armed, &mut Panicky)
        }));
        assert!(unwound.is_err());
        assert!(!memo_valid(&armed), "an unwound evaluation leaves no valid entry");
        assert_eq!(bits(&armed), bits(&plain), "after the unwind");
        assert!(memo_valid(&armed));

        // Lists built again, even for the same tree and points, leave
        // every entry stale: the memo is keyed on their stamp.
        armed.lists = InteractionLists::build(&armed.tree);
        let leaves = armed.tree.nodes.iter().filter(|n| n.is_leaf()).count();
        assert_eq!(dirty_leaves(&armed).len(), leaves, "new lists");
        assert_eq!(bits(&armed), bits(&plain), "new lists");

        // A clean leaf's kept U row is reused, not recomputed: a value
        // planted in it reaches the leaf's first target.
        let nodes = &armed.tree.nodes;
        let li = (0..nodes.len())
            .find(|&ni| nodes[ni].is_leaf() && nodes[ni].point_range.0 < nodes[ni].point_range.1)
            .expect("a non-empty leaf");
        lock(&armed).u_rows[li][0] = f64::NAN;
        let first = armed.tree.permutation[nodes[li].point_range.0];
        assert!(ev.evaluate(&armed)[first].is_nan(), "kept row reused");
    }

    #[test]
    fn evaluate_timed_reports_coherent_phase_times() {
        let (pts, den) = random_problem(1200, 41);
        let plan = FmmPlan::new(&pts, &den, 40, 4, M2lMethod::Fft);
        let (pot, t) = FmmEvaluator::new().evaluate_timed(&plan);
        assert_eq!(pot, FmmEvaluator::new().evaluate(&plan), "timing changes nothing");
        assert!(t.total_s > 0.0);
        for phase in [t.up_s, t.v_s, t.x_s, t.down_s, t.near_s] {
            assert!(phase >= 0.0 && phase <= t.total_s);
        }
        let sum = t.up_s + t.v_s + t.x_s + t.down_s + t.near_s;
        assert!(sum <= t.total_s * 1.01, "phases nest inside the total: {sum} vs {}", t.total_s);
    }
}
