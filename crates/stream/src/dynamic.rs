//! Incremental octree maintenance for moving particles.
//!
//! A time-stepped FMM moves its particles a little every step; a naive
//! engine rebuilds the whole plan — tree, interaction lists, operators,
//! FFT spectra — from scratch each time.  [`DynamicOctree`] keeps one
//! [`FmmPlan`] alive across steps and repairs it in place whenever the
//! motion allows, falling back to a full rebuild only when the tree's
//! *structure* actually changes.
//!
//! # The bitwise contract
//!
//! After every [`DynamicOctree::advance`], the maintained tree is
//! **bitwise identical** to `Octree::build` on the moved positions —
//! nodes, point slabs, permutation, levels — and the maintained
//! interaction lists equal a fresh `InteractionLists::build`.  The
//! property tests in this module enforce this at several churn levels
//! and thread counts.  The repair logic leans on two invariants of the
//! builder:
//!
//! * **Slab order.** The builder's stable octant counting sorts leave
//!   each leaf's points in ascending original-index order, and leaves
//!   tile `[0, n)` in DFS order.  An in-place repair therefore knows
//!   exactly where every point belongs: merge each dirty leaf's
//!   remaining members with its arrivals by original index.
//! * **Structure is counts.** A box splits iff it holds more than `Q`
//!   points, so tree *structure* is a pure function of per-box
//!   occupancy.  If no leaf emptied, overflowed, gained a previously
//!   empty sibling box, and no internal box fell to `≤ Q`, the fresh
//!   build would produce the same nodes with the same DFS numbering —
//!   and the U/V/W/X lists, which depend only on structure, are
//!   untouched.  Any violation triggers the rebuild fallback instead of
//!   a "targeted" repair: a structural change renumbers every node
//!   after the mutation point, so the honest repair *is* the rebuild.
//!
//! # The pinned simulation domain
//!
//! `Octree::build` derives its bounding cube from the point extents, so
//! a drifting extreme would change every box center and break bitwise
//! identity against the cached geometry.  The [`MotionModel`] therefore
//! treats the initial extents as the simulation domain: displaced
//! particles clamp to it, and the (at most six) particles currently
//! attaining a coordinate extreme sit out the step.  The extents — and
//! with them the cube — are thus bitwise constant across steps, which
//! the update verifies defensively (any drift forces a rebuild rather
//! than a wrong tree).

use compat::rng::keyed_unit_pair;
use kifmm::evaluator::{FmmPlan, M2lMethod};
use kifmm::{morton, FmmEvaluator, SoaSources};

// Salt constants: one hash channel per motion decision.
const SALT_MOVE: u64 = 1;
const SALT_DISP: u64 = 2; // +dim

/// Migrant fraction above which `advance` rebuilds outright instead of
/// attempting in-place repair.
const REBUILD_CHURN: f64 = 0.02;

/// Seeded, stateless particle motion: every decision is a hash of
/// `(seed, salt, step, particle)` — no RNG stream — so a step's
/// displacement field is bitwise identical at any thread count and can
/// be re-derived for any past step.
#[derive(Debug, Clone, Copy)]
pub struct MotionModel {
    /// Master seed; every draw hashes it in.
    pub seed: u64,
    /// Probability a particle moves in a given step.
    pub churn: f64,
    /// Displacement ceiling per axis, as a fraction of the domain
    /// width (draws are uniform in `±step_frac · width`).
    pub step_frac: f64,
}

impl MotionModel {
    /// A gentle drift: 1% of particles move up to 2% of the domain per
    /// step — mostly intra-leaf motion with occasional migrants.
    pub fn drift(seed: u64) -> Self {
        MotionModel { seed, churn: 0.01, step_frac: 0.02 }
    }

    /// A uniform draw in `[0, 1)` keyed by `(salt, step, particle)`.
    fn unit(&self, salt: u64, step: u64, particle: u64) -> f64 {
        keyed_unit_pair(self.seed, salt, step, particle)
    }

    /// Whether particle `i` moves in `step`.
    pub fn moves(&self, step: u64, i: usize) -> bool {
        self.unit(SALT_MOVE, step, i as u64) < self.churn
    }

    /// The particle's displacement for `step`, before clamping.
    pub fn displacement(&self, step: u64, i: usize, width: f64) -> [f64; 3] {
        let mut d = [0.0; 3];
        for (dim, out) in d.iter_mut().enumerate() {
            let u = self.unit(SALT_DISP + dim as u64, step, i as u64);
            *out = (2.0 * u - 1.0) * self.step_frac * width;
        }
        d
    }
}

/// Why an [`DynamicOctree::advance`] fell back to a full rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// The migrant fraction exceeded the configured churn threshold.
    Churn,
    /// A migrant landed in a box the tree never materialized (it was
    /// empty at build time) — the fresh build would create that node.
    NewBox,
    /// A leaf would exceed `Q` points — the fresh build would split it.
    LeafOverflow,
    /// A leaf would empty — the fresh build would prune it.
    LeafEmptied,
    /// An internal box would fall to `≤ Q` points — the fresh build
    /// would not split it.
    InternalUnderflow,
    /// The bounding cube of the moved positions drifted (defensive;
    /// the pinned-domain motion model should make this unreachable).
    CubeDrift,
}

impl RebuildReason {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RebuildReason::Churn => "churn",
            RebuildReason::NewBox => "new-box",
            RebuildReason::LeafOverflow => "leaf-overflow",
            RebuildReason::LeafEmptied => "leaf-emptied",
            RebuildReason::InternalUnderflow => "internal-underflow",
            RebuildReason::CubeDrift => "cube-drift",
        }
    }
}

/// What one [`DynamicOctree::advance`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The tree was repaired in place: positions rewritten, migrants
    /// re-bucketed into their destination leaves, slab ranges repaired;
    /// structure and interaction lists untouched.
    InPlace {
        /// Particles that moved this step.
        moved: usize,
        /// Movers that crossed a leaf boundary.
        migrants: usize,
        /// Leaves whose membership changed.
        dirty_leaves: usize,
    },
    /// The whole plan was rebuilt from the moved positions.
    Rebuilt {
        /// Particles that moved this step.
        moved: usize,
        /// Movers that crossed a leaf boundary (up to the point the
        /// structural check bailed).
        migrants: usize,
        /// What forced the rebuild.
        reason: RebuildReason,
    },
}

/// Running tallies over a [`DynamicOctree`]'s lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicStats {
    /// Steps advanced.
    pub steps: u64,
    /// Steps resolved by in-place repair.
    pub in_place: u64,
    /// Steps that fell back to a full rebuild.
    pub rebuilds: u64,
    /// Total particles moved.
    pub moved: u64,
    /// Total leaf-crossing migrants re-bucketed (in-place steps only).
    pub migrants: u64,
}

/// Construction parameters for a [`DynamicOctree`].
#[derive(Debug, Clone, Copy)]
pub struct DynamicConfig {
    /// Max points per leaf (`Q`).
    pub q: usize,
    /// KIFMM surface order.
    pub p: usize,
    /// V-list evaluation method.
    pub method: M2lMethod,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig { q: 64, p: 4, method: M2lMethod::Fft }
    }
}

/// An FMM plan maintained incrementally across particle-motion steps.
pub struct DynamicOctree {
    plan: FmmPlan,
    /// Positions in original input order — the motion state.
    positions: Vec<[f64; 3]>,
    /// Densities in original input order.
    densities: Vec<f64>,
    cfg: DynamicConfig,
    /// Pinned simulation domain (the initial extents; see module docs).
    domain_lo: [f64; 3],
    domain_hi: [f64; 3],
    /// `point_leaf[original index]` = owning leaf's node index.
    point_leaf: Vec<usize>,
    step: u64,
    stats: DynamicStats,
}

impl DynamicOctree {
    /// Builds the initial plan over `points`/`densities`.
    ///
    /// # Panics
    /// Panics if the inputs are empty or of mismatched length (the
    /// underlying builder's contract).
    pub fn new(points: &[[f64; 3]], densities: &[f64], cfg: DynamicConfig) -> Self {
        let plan = FmmPlan::new(points, densities, cfg.q, cfg.p, cfg.method);
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in points {
            for d in 0..3 {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        let point_leaf = point_leaf_of(&plan);
        DynamicOctree {
            plan,
            positions: points.to_vec(),
            densities: densities.to_vec(),
            cfg,
            domain_lo: lo,
            domain_hi: hi,
            point_leaf,
            step: 0,
            stats: DynamicStats::default(),
        }
    }

    /// The maintained plan (tree, lists, operators, FFT state).
    pub fn plan(&self) -> &FmmPlan {
        &self.plan
    }

    /// The current positions, in original input order.
    pub fn positions(&self) -> &[[f64; 3]] {
        &self.positions
    }

    /// The densities, in original input order.
    pub fn densities(&self) -> &[f64] {
        &self.densities
    }

    /// Lifetime tallies.
    pub fn stats(&self) -> DynamicStats {
        self.stats
    }

    /// Evaluates potentials at the current positions (original order).
    pub fn evaluate(&self) -> Vec<f64> {
        FmmEvaluator::new().evaluate(&self.plan)
    }

    /// Advances one motion step and repairs or rebuilds the plan.
    pub fn advance(&mut self, motion: &MotionModel) -> UpdateOutcome {
        self.step += 1;
        self.stats.steps += 1;
        let n = self.positions.len();
        let width = (0..3).map(|d| self.domain_hi[d] - self.domain_lo[d]).fold(0.0f64, f64::max);

        // 1. Motion: displace selected non-anchor particles, clamped to
        // the pinned domain.
        let anchors = self.anchor_set();
        let mut moved: Vec<usize> = Vec::new();
        for i in 0..n {
            if anchors.contains(&i) || !motion.moves(self.step, i) {
                continue;
            }
            let d = motion.displacement(self.step, i, width);
            let p = &mut self.positions[i];
            for dim in 0..3 {
                p[dim] = (p[dim] + d[dim]).clamp(self.domain_lo[dim], self.domain_hi[dim]);
            }
            moved.push(i);
        }
        self.stats.moved += moved.len() as u64;

        // 2. Defensive cube check: the anchor scheme pins the extents,
        // but a wrong tree is never an acceptable failure mode.
        if self.cube_drifted() {
            return self.rebuild(moved.len(), 0, RebuildReason::CubeDrift);
        }

        // 3. Re-bucket: find each mover's destination leaf by octant
        // descent (bitwise the builder's assignment rule).
        let mut migrants: Vec<(usize, usize, usize)> = Vec::new(); // (orig, from, to)
        for &i in &moved {
            let from = self.point_leaf[i];
            match self.descend(self.positions[i]) {
                Some(to) if to == from => {}
                Some(to) => migrants.push((i, from, to)),
                None => {
                    // Landed in a box the tree never materialized.
                    return self.rebuild(moved.len(), migrants.len(), RebuildReason::NewBox);
                }
            }
        }
        if migrants.len() as f64 > REBUILD_CHURN * n as f64 {
            return self.rebuild(moved.len(), migrants.len(), RebuildReason::Churn);
        }

        // 4. Occupancy check: structure is counts (module docs).  Walk
        // each migration up the tree, then test every touched box
        // against the split rule.
        let mut delta: std::collections::HashMap<usize, i64> = std::collections::HashMap::new();
        for &(_, from, to) in &migrants {
            let mut up = Some(from);
            while let Some(ni) = up {
                *delta.entry(ni).or_insert(0) -= 1;
                up = self.plan.tree.nodes[ni].parent;
            }
            let mut up = Some(to);
            while let Some(ni) = up {
                *delta.entry(ni).or_insert(0) += 1;
                up = self.plan.tree.nodes[ni].parent;
            }
        }
        for (&ni, &dc) in &delta {
            let node = &self.plan.tree.nodes[ni];
            let count = node.num_points() as i64 + dc;
            if node.is_leaf() {
                if count == 0 {
                    return self.rebuild(moved.len(), migrants.len(), RebuildReason::LeafEmptied);
                }
                if count > self.cfg.q as i64 {
                    return self.rebuild(moved.len(), migrants.len(), RebuildReason::LeafOverflow);
                }
            } else if ni != 0 && count <= self.cfg.q as i64 {
                return self.rebuild(moved.len(), migrants.len(), RebuildReason::InternalUnderflow);
            }
        }

        // 5. In-place repair.
        let dirty = self.repair(&migrants);
        self.stats.in_place += 1;
        self.stats.migrants += migrants.len() as u64;
        UpdateOutcome::InPlace { moved: moved.len(), migrants: migrants.len(), dirty_leaves: dirty }
    }

    /// For each axis, the first particle attaining the min and the max —
    /// these sit the step out so the extents (and the bounding cube)
    /// stay bitwise pinned.
    fn anchor_set(&self) -> Vec<usize> {
        let mut lo_idx = [0usize; 3];
        let mut hi_idx = [0usize; 3];
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for (i, p) in self.positions.iter().enumerate() {
            for d in 0..3 {
                if p[d] < lo[d] {
                    lo[d] = p[d];
                    lo_idx[d] = i;
                }
                if p[d] > hi[d] {
                    hi[d] = p[d];
                    hi_idx[d] = i;
                }
            }
        }
        let mut set: Vec<usize> = lo_idx.iter().chain(hi_idx.iter()).copied().collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// True when the moved positions' extents left the pinned domain
    /// bounds bitwise.
    fn cube_drifted(&self) -> bool {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in &self.positions {
            for d in 0..3 {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        (0..3).any(|d| {
            lo[d].to_bits() != self.domain_lo[d].to_bits()
                || hi[d].to_bits() != self.domain_hi[d].to_bits()
        })
    }

    /// Octant descent from the root: the leaf owning `p`, or `None`
    /// when the walk reaches a child the tree never materialized.
    fn descend(&self, p: [f64; 3]) -> Option<usize> {
        let tree = &self.plan.tree;
        let mut ni = 0usize;
        loop {
            let node = &tree.nodes[ni];
            if node.is_leaf() {
                return Some(ni);
            }
            let o = morton::point_octant(p, node.center);
            ni = node.children[o]?;
        }
    }

    /// Structure-preserving repair: merge each dirty leaf's membership
    /// by original index, rewrite the permutation window, recompute the
    /// slab ranges, regather the permuted point/density arrays, refresh
    /// the SoA mirror, and bump the tree generation.  Returns the dirty
    /// leaf count.
    fn repair(&mut self, migrants: &[(usize, usize, usize)]) -> usize {
        use std::collections::HashMap;
        let tree = &mut self.plan.tree;
        let mut leavers: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut arrivals: HashMap<usize, Vec<usize>> = HashMap::new();
        for &(i, from, to) in migrants {
            leavers.entry(from).or_default().push(i);
            arrivals.entry(to).or_default().push(i);
            self.point_leaf[i] = to;
        }
        let dirty_leaves = {
            let mut set: Vec<usize> = leavers.keys().chain(arrivals.keys()).copied().collect();
            set.sort_unstable();
            set.dedup();
            set
        };

        if !migrants.is_empty() {
            // The affected window: every slab between the first and the
            // last dirty leaf shifts; migration conserves the total, so
            // everything outside is untouched.
            let win_start =
                dirty_leaves.iter().map(|&l| tree.nodes[l].point_range.0).min().unwrap_or(0);
            let win_end =
                dirty_leaves.iter().map(|&l| tree.nodes[l].point_range.1).max().unwrap_or(0);

            // Rewrite the permutation window leaf by leaf, merging
            // remaining members and arrivals in ascending original
            // index.  Leaves tile the window in *slab* order — which is
            // NOT node-index order (the builder's stack walk numbers a
            // parent's later-octant subtrees before its first octant's
            // descendants) — so enumerate them sorted by old start.
            // Relative slab order of leaves is a structural property,
            // so it is exactly what the fresh build would produce.
            let mut window_leaves: Vec<usize> = (0..tree.nodes.len())
                .filter(|&ni| {
                    let (s, e) = tree.nodes[ni].point_range;
                    tree.nodes[ni].is_leaf() && e > win_start && s < win_end
                })
                .collect();
            window_leaves.sort_by_key(|&ni| tree.nodes[ni].point_range.0);
            let mut new_window: Vec<usize> = Vec::with_capacity(win_end - win_start);
            let mut new_ranges: Vec<(usize, usize)> = Vec::new(); // (node, start)
            for ni in window_leaves {
                let (s, e) = tree.nodes[ni].point_range;
                let start = win_start + new_window.len();
                let gone = leavers.get(&ni);
                let mut incoming: &[usize] = arrivals.get(&ni).map_or(&[], |v| v.as_slice());
                let mut sorted_in;
                if incoming.len() > 1 {
                    sorted_in = incoming.to_vec();
                    sorted_in.sort_unstable();
                    incoming = &sorted_in;
                }
                let mut inc = incoming.iter().copied().peekable();
                for &orig in &tree.permutation[s..e] {
                    if gone.is_some_and(|g| g.contains(&orig)) {
                        continue;
                    }
                    while inc.peek().is_some_and(|&a| a < orig) {
                        new_window.push(inc.next().expect("peeked"));
                    }
                    new_window.push(orig);
                }
                new_window.extend(inc);
                new_ranges.push((ni, start));
            }
            debug_assert_eq!(new_window.len(), win_end - win_start);
            tree.permutation[win_start..win_end].copy_from_slice(&new_window);
            let mut it = new_ranges.iter().peekable();
            while let Some(&(ni, start)) = it.next() {
                let end = it.peek().map_or(win_end, |&&(_, s)| s);
                tree.nodes[ni].point_range = (start, end);
            }
            // Internal ranges span their children; children follow their
            // parents in the node array, so one reverse sweep settles
            // every ancestor of the window.
            for ni in (0..tree.nodes.len()).rev() {
                if tree.nodes[ni].is_leaf() {
                    continue;
                }
                let lo = tree.nodes[ni]
                    .children
                    .iter()
                    .flatten()
                    .map(|&c| tree.nodes[c].point_range.0)
                    .min()
                    .unwrap_or(0);
                let hi = tree.nodes[ni]
                    .children
                    .iter()
                    .flatten()
                    .map(|&c| tree.nodes[c].point_range.1)
                    .max()
                    .unwrap_or(0);
                tree.nodes[ni].point_range = (lo, hi);
            }
        }

        // Regather the permuted arrays from the (possibly unchanged)
        // permutation — movers that stayed in their leaf still changed
        // coordinates — and refresh the coordinate mirrors.
        for j in 0..tree.permutation.len() {
            let orig = tree.permutation[j];
            tree.points[j] = self.positions[orig];
            tree.densities[j] = self.densities[orig];
        }
        if !migrants.is_empty() {
            tree.bump_generation();
        }
        self.plan.soa = SoaSources::from_points(&tree.points, &tree.densities);
        dirty_leaves.len()
    }

    /// Full rebuild fallback: a fresh plan from the moved positions.
    fn rebuild(&mut self, moved: usize, migrants: usize, reason: RebuildReason) -> UpdateOutcome {
        self.plan =
            FmmPlan::new(&self.positions, &self.densities, self.cfg.q, self.cfg.p, self.cfg.method);
        self.point_leaf = point_leaf_of(&self.plan);
        self.stats.rebuilds += 1;
        UpdateOutcome::Rebuilt { moved, migrants, reason }
    }
}

/// `point_leaf[original index]` = leaf node index, from the slabs.
fn point_leaf_of(plan: &FmmPlan) -> Vec<usize> {
    let tree = &plan.tree;
    let mut point_leaf = vec![0usize; tree.points.len()];
    for (ni, node) in tree.nodes.iter().enumerate() {
        if !node.is_leaf() {
            continue;
        }
        let (s, e) = node.point_range;
        for &orig in &tree.permutation[s..e] {
            point_leaf[orig] = ni;
        }
    }
    point_leaf
}

#[cfg(test)]
mod tests {
    use super::*;
    use compat::par;
    use compat::rng::StdRng;
    use kifmm::lists::InteractionLists;
    use kifmm::tree::Octree;

    fn cloud(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
        let den = (0..n).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
        (pts, den)
    }

    /// Full bitwise comparison against the reference builder on the
    /// dynamic tree's current positions.
    fn assert_matches_fresh_build(dyn_tree: &DynamicOctree) {
        let fresh = Octree::build(dyn_tree.positions(), dyn_tree.densities(), dyn_tree.cfg.q);
        let tree = &dyn_tree.plan().tree;
        assert_eq!(tree.nodes.len(), fresh.nodes.len(), "node count");
        for (a, b) in tree.nodes.iter().zip(&fresh.nodes) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.children, b.children);
            assert_eq!(a.point_range, b.point_range, "slab of {:?}", a.id);
            for d in 0..3 {
                assert_eq!(a.center[d].to_bits(), b.center[d].to_bits());
            }
            assert_eq!(a.half_width.to_bits(), b.half_width.to_bits());
        }
        assert_eq!(tree.permutation, fresh.permutation, "permutation");
        assert_eq!(tree.levels, fresh.levels, "levels");
        for (a, b) in tree.points.iter().zip(&fresh.points) {
            for d in 0..3 {
                assert_eq!(a[d].to_bits(), b[d].to_bits(), "point bits");
            }
        }
        for (a, b) in tree.densities.iter().zip(&fresh.densities) {
            assert_eq!(a.to_bits(), b.to_bits(), "density bits");
        }
        let fresh_lists = InteractionLists::build(&fresh);
        let lists = &dyn_tree.plan().lists;
        assert_eq!(lists.u, fresh_lists.u, "U lists");
        assert_eq!(lists.v, fresh_lists.v, "V lists");
        assert_eq!(lists.w, fresh_lists.w, "W lists");
        assert_eq!(lists.x, fresh_lists.x, "X lists");
    }

    #[test]
    fn update_is_bitwise_identical_to_fresh_build_across_churn_and_threads() {
        let (pts, den) = cloud(1200, 9);
        // Churn levels chosen to exercise coordinate-only steps, the
        // migrant repair path, and the rebuild fallback.
        for churn in [0.002, 0.02, 0.25] {
            for threads in [1usize, 2, 4, 8] {
                par::set_thread_count(Some(threads));
                let cfg = DynamicConfig { q: 32, ..DynamicConfig::default() };
                let mut dt = DynamicOctree::new(&pts, &den, cfg);
                let motion = MotionModel { seed: 0x57E4, churn, step_frac: 0.1 };
                for _ in 0..6 {
                    dt.advance(&motion);
                    assert_matches_fresh_build(&dt);
                    // Potentials from the maintained plan must equal a
                    // from-scratch plan's, bit for bit.
                    let incremental = dt.evaluate();
                    let fresh = FmmEvaluator::new().evaluate(&FmmPlan::new(
                        dt.positions(),
                        dt.densities(),
                        cfg.q,
                        cfg.p,
                        cfg.method,
                    ));
                    assert_eq!(incremental.len(), fresh.len());
                    for (a, b) in incremental.iter().zip(&fresh) {
                        assert_eq!(a.to_bits(), b.to_bits(), "potential bits");
                    }
                }
            }
        }
        par::set_thread_count(None);
    }

    #[test]
    fn both_maintenance_paths_are_exercised() {
        let (pts, den) = cloud(1500, 4);
        let cfg = DynamicConfig { q: 32, ..DynamicConfig::default() };

        // Gentle drift stays in place.
        let mut dt = DynamicOctree::new(&pts, &den, cfg);
        let gentle = MotionModel { seed: 7, churn: 0.004, step_frac: 0.02 };
        for _ in 0..10 {
            dt.advance(&gentle);
        }
        assert!(dt.stats().in_place > 0, "gentle drift must repair in place: {:?}", dt.stats());

        // Violent churn rebuilds.
        let mut dt = DynamicOctree::new(&pts, &den, cfg);
        let violent = MotionModel { seed: 7, churn: 0.9, step_frac: 0.5 };
        let outcome = dt.advance(&violent);
        assert!(
            matches!(outcome, UpdateOutcome::Rebuilt { .. }),
            "violent churn must rebuild: {outcome:?}"
        );
        assert_eq!(dt.stats().rebuilds, 1);
    }

    #[test]
    fn motion_is_stateless_and_thread_invariant() {
        let m = MotionModel::drift(0xABCD);
        for step in 1..4u64 {
            for i in 0..64usize {
                assert_eq!(m.moves(step, i), m.moves(step, i));
                let a = m.displacement(step, i, 1.0);
                let b = m.displacement(step, i, 1.0);
                for d in 0..3 {
                    assert_eq!(a[d].to_bits(), b[d].to_bits());
                    assert!(a[d].abs() <= m.step_frac);
                }
            }
        }
    }

    #[test]
    fn update_sequence_is_identical_across_thread_counts() {
        let (pts, den) = cloud(900, 11);
        let motion = MotionModel { seed: 3, churn: 0.05, step_frac: 0.08 };
        let mut reference: Option<(Vec<UpdateOutcome>, Vec<u64>)> = None;
        for threads in [1usize, 2, 4, 8] {
            par::set_thread_count(Some(threads));
            let mut dt = DynamicOctree::new(&pts, &den, DynamicConfig::default());
            let mut outcomes = Vec::new();
            let mut digests = Vec::new();
            for _ in 0..5 {
                outcomes.push(dt.advance(&motion));
                let pot = dt.evaluate();
                digests.push(pot.iter().fold(0xcbf29ce484222325u64, |h, p| {
                    (h ^ p.to_bits()).wrapping_mul(0x100000001b3)
                }));
            }
            match &reference {
                None => reference = Some((outcomes, digests)),
                Some((ro, rd)) => {
                    assert_eq!(&outcomes, ro, "outcomes diverged at {threads} threads");
                    assert_eq!(&digests, rd, "potential digests diverged at {threads} threads");
                }
            }
        }
        par::set_thread_count(None);
    }
}
