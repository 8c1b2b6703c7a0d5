//! KIFMM translation operators.
//!
//! All operators are dense matrices built from kernel evaluations between
//! surface point sets, with the check-to-equivalent inversions done by a
//! truncated-SVD pseudo-inverse (the kernel matrices are severely
//! ill-conditioned by design — that is what gives the scheme its spectral
//! accuracy).
//!
//! * `UC2E(l)` — upward check-to-equivalent solve at level `l`.
//! * `DC2E(l)` — downward check-to-equivalent solve.
//! * `M2M(l, octant)` — child upward-equivalent → parent
//!   upward-equivalent (child at level `l`).
//! * `L2L(l, octant)` — parent downward-equivalent → child
//!   downward-equivalent contribution (child at level `l`).
//! * `M2L(l, offset)` — source upward-equivalent → target downward-check
//!   potentials for a same-level box offset.
//!
//! Operators depend only on (level, relative geometry), never on absolute
//! centers, so one cache serves the whole tree.  The cache is built at
//! plan time on the [`compat::par`] pool — first every level's UC2E/DC2E
//! solve, then the M2M/L2L products that consume them, then the dense
//! M2L set — each stage an order-preserving map of pure per-operator
//! jobs, so the cache is bitwise identical at any thread count.  It is
//! read-only during evaluation.
//!
//! Every operator is stored column-major ([`ColMajor`]): the evaluator
//! applies each one to thousands of vectors, and the column-major loop
//! vectorizes across output rows while summing each row exactly as the
//! row dot product does.

use crate::kernel::Kernel;
use crate::lists::InteractionLists;
use crate::surface::{surface_points, RADIUS_INNER, RADIUS_OUTER};
use crate::tree::Octree;
use compat::par;
use dvfs_linalg::{pseudo_inverse, ColMajor, Matrix};
use std::collections::HashMap;

/// Relative box offset at a common level, in units of the box width.
pub type Offset = (i32, i32, i32);

/// The operator cache for one (kernel, tree, order) triple.
pub struct OperatorCache {
    /// Surface order (nodes per cube edge).
    pub p: usize,
    /// `UC2E(l)` at index `l`.
    uc2e: Vec<ColMajor>,
    /// `DC2E(l)` at index `l`.
    dc2e: Vec<ColMajor>,
    /// `M2M(l, octant)` at index `8 (l − 1) + octant`.
    m2m: Vec<ColMajor>,
    /// `L2L(l, octant)` at index `8 (l − 1) + octant`.
    l2l: Vec<ColMajor>,
    m2l: HashMap<(u8, Offset), ColMajor>,
}

/// Relative SVD truncation for the check→equivalent solves.
const PINV_RTOL: f64 = 1e-12;

impl OperatorCache {
    /// Builds every operator the tree's lists will need, including the
    /// dense M2L matrices.
    pub fn build<K: Kernel>(kernel: &K, tree: &Octree, p: usize) -> Self {
        Self::build_for_method(kernel, tree, &InteractionLists::build(tree), p, true)
    }

    /// Builds the tree-pass operators, and the dense M2L set for the
    /// offsets `lists` realize only when `include_m2l` is set — FFT-method
    /// plans never touch the dense matrices, and for large trees they
    /// dominate both the precompute time and the memory footprint
    /// (hundreds of MB at p = 8).
    pub fn build_for_method<K: Kernel>(
        kernel: &K,
        tree: &Octree,
        lists: &InteractionLists,
        p: usize,
        include_m2l: bool,
    ) -> Self {
        let root_hw = tree.nodes[0].half_width;
        let level_hw = |level: usize| root_hw / (1u64 << level) as f64;
        let levels = tree.depth() as usize + 1;
        // Jobs `0..levels` are UC2E by level, the next `levels` DC2E.
        let mut uc2e = par::par_map_vec((0..2 * levels).collect(), &|job: usize| {
            let hw = level_hw(job % levels);
            if job < levels {
                Self::make_uc2e(kernel, p, hw)
            } else {
                Self::make_dc2e(kernel, p, hw)
            }
        });
        let dc2e = uc2e.split_off(levels);
        // Jobs `8 (l − 1) + octant` are M2M(l, octant) for child levels
        // `l ≥ 1`, the next `children` the matching L2L.
        let children = 8 * (levels - 1);
        let mut m2m = par::par_map_vec((0..2 * children).collect(), &|job: usize| {
            let slot = job % children;
            let (level, octant) = (1 + slot / 8, slot % 8);
            ColMajor::from(if job < children {
                Self::make_m2m(kernel, p, level_hw(level), octant, &uc2e[level - 1])
            } else {
                Self::make_l2l(kernel, p, level_hw(level), octant, &dc2e[level])
            })
        });
        let l2l = m2m.split_off(children);
        // M2L operators for every (level, offset) the V lists realize.
        let mut m2l = HashMap::new();
        if include_m2l {
            let keys = lists.v_offsets(tree);
            let ops = par::par_map_vec(keys.clone(), &|(level, off): (u8, Offset)| {
                ColMajor::from(Self::make_m2l(kernel, p, level_hw(level as usize), off))
            });
            m2l.extend(keys.into_iter().zip(ops));
        }
        let (uc2e, dc2e) = (
            uc2e.into_iter().map(ColMajor::from).collect(),
            dc2e.into_iter().map(ColMajor::from).collect(),
        );
        OperatorCache { p, uc2e, dc2e, m2m, l2l, m2l }
    }

    fn make_uc2e<K: Kernel>(kernel: &K, p: usize, hw: f64) -> Matrix {
        let equiv = surface_points(p, [0.0; 3], hw, RADIUS_INNER);
        let check = surface_points(p, [0.0; 3], hw, RADIUS_OUTER);
        pseudo_inverse(&kernel.matrix(&check, &equiv), PINV_RTOL).expect("uc2e pinv")
    }

    fn make_dc2e<K: Kernel>(kernel: &K, p: usize, hw: f64) -> Matrix {
        let equiv = surface_points(p, [0.0; 3], hw, RADIUS_OUTER);
        let check = surface_points(p, [0.0; 3], hw, RADIUS_INNER);
        pseudo_inverse(&kernel.matrix(&check, &equiv), PINV_RTOL).expect("dc2e pinv")
    }

    /// Child (level `l`, octant) upward-equivalent → parent
    /// upward-equivalent: evaluate child equiv densities on the parent's
    /// check surface, then solve the parent's UC2E system.
    fn make_m2m<K: Kernel>(
        kernel: &K,
        p: usize,
        child_hw: f64,
        octant: usize,
        parent_uc2e: &Matrix,
    ) -> Matrix {
        let parent_hw = child_hw * 2.0;
        let child_center = [
            child_hw * if octant & 1 != 0 { 1.0 } else { -1.0 },
            child_hw * if octant & 2 != 0 { 1.0 } else { -1.0 },
            child_hw * if octant & 4 != 0 { 1.0 } else { -1.0 },
        ];
        let child_equiv = surface_points(p, child_center, child_hw, RADIUS_INNER);
        let parent_check = surface_points(p, [0.0; 3], parent_hw, RADIUS_OUTER);
        let k = kernel.matrix(&parent_check, &child_equiv);
        parent_uc2e.matmul(&k).expect("m2m shapes")
    }

    /// Parent downward-equivalent → child downward-equivalent
    /// contribution: evaluate parent equiv on the child's check surface,
    /// then solve the child's DC2E system.
    fn make_l2l<K: Kernel>(
        kernel: &K,
        p: usize,
        child_hw: f64,
        octant: usize,
        child_dc2e: &Matrix,
    ) -> Matrix {
        let parent_hw = child_hw * 2.0;
        let child_center = [
            child_hw * if octant & 1 != 0 { 1.0 } else { -1.0 },
            child_hw * if octant & 2 != 0 { 1.0 } else { -1.0 },
            child_hw * if octant & 4 != 0 { 1.0 } else { -1.0 },
        ];
        let parent_equiv = surface_points(p, [0.0; 3], parent_hw, RADIUS_OUTER);
        let child_check = surface_points(p, child_center, child_hw, RADIUS_INNER);
        let k = kernel.matrix(&child_check, &parent_equiv);
        child_dc2e.matmul(&k).expect("l2l shapes")
    }

    /// Source upward-equivalent → target downward-check potentials for a
    /// same-level offset (in box widths).
    fn make_m2l<K: Kernel>(kernel: &K, p: usize, hw: f64, off: Offset) -> Matrix {
        let width = 2.0 * hw;
        let src_center = [off.0 as f64 * width, off.1 as f64 * width, off.2 as f64 * width];
        let src_equiv = surface_points(p, src_center, hw, RADIUS_INNER);
        let tgt_check = surface_points(p, [0.0; 3], hw, RADIUS_INNER);
        kernel.matrix(&tgt_check, &src_equiv)
    }

    /// The upward check-to-equivalent solve at `level`.
    pub fn uc2e(&self, level: u8) -> &ColMajor {
        &self.uc2e[level as usize]
    }

    /// The downward check-to-equivalent solve at `level`.
    pub fn dc2e(&self, level: u8) -> &ColMajor {
        &self.dc2e[level as usize]
    }

    /// M2M for a child at `child_level` (at least 1) in `octant`.
    pub fn m2m(&self, child_level: u8, octant: usize) -> &ColMajor {
        &self.m2m[Self::child_slot(child_level, octant)]
    }

    /// L2L for a child at `child_level` (at least 1) in `octant`.
    pub fn l2l(&self, child_level: u8, octant: usize) -> &ColMajor {
        &self.l2l[Self::child_slot(child_level, octant)]
    }

    fn child_slot(child_level: u8, octant: usize) -> usize {
        assert!(child_level >= 1 && octant < 8, "no child operator at ({child_level}, {octant})");
        8 * (child_level as usize - 1) + octant
    }

    /// Dense M2L for a same-level offset, if realized by the tree.
    pub fn m2l(&self, level: u8, off: Offset) -> Option<&ColMajor> {
        self.m2l.get(&(level, off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaplaceKernel;
    use compat::rng::StdRng;

    const P: usize = 6;

    fn random_sources(center: [f64; 3], hw: f64, n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| {
                [
                    center[0] + hw * (2.0 * rng.random::<f64>() - 1.0),
                    center[1] + hw * (2.0 * rng.random::<f64>() - 1.0),
                    center[2] + hw * (2.0 * rng.random::<f64>() - 1.0),
                ]
            })
            .collect();
        let den = (0..n).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
        (pts, den)
    }

    /// Builds an upward-equivalent density for sources in a box at the
    /// origin and returns (equiv points, equiv densities).
    fn p2m(
        kernel: &LaplaceKernel,
        hw: f64,
        sources: &[[f64; 3]],
        densities: &[f64],
    ) -> (Vec<[f64; 3]>, Vec<f64>) {
        let check = surface_points(P, [0.0; 3], hw, RADIUS_OUTER);
        let equiv_pts = surface_points(P, [0.0; 3], hw, RADIUS_INNER);
        let mut check_pot = vec![0.0; check.len()];
        kernel.p2p(&check, sources, densities, &mut check_pot);
        let uc2e = OperatorCache::make_uc2e(kernel, P, hw);
        let equiv_den = uc2e.matvec(&check_pot);
        (equiv_pts, equiv_den)
    }

    #[test]
    fn p2m_reproduces_far_field() {
        let kernel = LaplaceKernel;
        let hw = 0.5;
        let (src, den) = random_sources([0.0; 3], hw, 40, 1);
        let (equiv_pts, equiv_den) = p2m(&kernel, hw, &src, &den);
        // Evaluate at far targets (non-adjacent box distance: 2 widths).
        for t in [[4.0 * hw, 0.0, 0.0], [3.0 * hw, 3.0 * hw, 0.0], [0.0, 0.0, -5.0 * hw]] {
            let mut direct = [0.0];
            kernel.p2p(&[t], &src, &den, &mut direct);
            let mut approx = [0.0];
            kernel.p2p(&[t], &equiv_pts, &equiv_den, &mut approx);
            let rel = (direct[0] - approx[0]).abs() / direct[0].abs().max(1e-30);
            assert!(rel < 1e-4, "P2M far-field error {rel} at {t:?}");
        }
    }

    #[test]
    fn m2m_preserves_far_field() {
        let kernel = LaplaceKernel;
        let child_hw = 0.25;
        let octant = 5; // child center (+, -, +) relative to parent
        let child_center = [child_hw, -child_hw, child_hw];
        let (src, den) = random_sources(child_center, child_hw, 30, 2);
        // Child multipole (centered at child).
        let child_check = surface_points(P, child_center, child_hw, RADIUS_OUTER);
        let mut ccheck = vec![0.0; child_check.len()];
        kernel.p2p(&child_check, &src, &den, &mut ccheck);
        let uc2e_child = OperatorCache::make_uc2e(&kernel, P, child_hw);
        let child_equiv_den = uc2e_child.matvec(&ccheck);
        // Parent multipole via M2M.
        let parent_uc2e = OperatorCache::make_uc2e(&kernel, P, 2.0 * child_hw);
        let m2m = OperatorCache::make_m2m(&kernel, P, child_hw, octant, &parent_uc2e);
        let parent_equiv_den = m2m.matvec(&child_equiv_den);
        let parent_equiv_pts = surface_points(P, [0.0; 3], 2.0 * child_hw, RADIUS_INNER);
        // Compare at a point well separated from the parent.
        let t = [2.0, 1.0, -0.5];
        let mut direct = [0.0];
        kernel.p2p(&[t], &src, &den, &mut direct);
        let mut approx = [0.0];
        kernel.p2p(&[t], &parent_equiv_pts, &parent_equiv_den, &mut approx);
        let rel = (direct[0] - approx[0]).abs() / direct[0].abs();
        assert!(rel < 1e-6, "M2M error {rel}");
    }

    #[test]
    fn m2l_plus_dc2e_reproduces_interior_field() {
        let kernel = LaplaceKernel;
        let hw = 0.5;
        let off: Offset = (3, 1, -2); // V-list style separation
        let width = 2.0 * hw;
        let src_center = [3.0 * width, width, -2.0 * width];
        let (src, den) = random_sources(src_center, hw, 35, 3);
        // Source multipole, shifted: reuse p2m by translating sources.
        let src_local: Vec<[f64; 3]> = src
            .iter()
            .map(|p| [p[0] - src_center[0], p[1] - src_center[1], p[2] - src_center[2]])
            .collect();
        let (_, equiv_den) = p2m(&kernel, hw, &src_local, &den);
        // M2L into the target box at the origin.
        let m2l = OperatorCache::make_m2l(&kernel, P, hw, off);
        let check_pot = m2l.matvec(&equiv_den);
        // Solve for the local (downward-equivalent) density.
        let dc2e = OperatorCache::make_dc2e(&kernel, P, hw);
        let local_den = dc2e.matvec(&check_pot);
        let local_pts = surface_points(P, [0.0; 3], hw, RADIUS_OUTER);
        // Evaluate inside the target box.
        for t in [[0.0; 3], [0.3 * hw, -0.2 * hw, 0.4 * hw], [0.9 * hw, 0.9 * hw, -0.9 * hw]] {
            let mut direct = [0.0];
            kernel.p2p(&[t], &src, &den, &mut direct);
            let mut approx = [0.0];
            kernel.p2p(&[t], &local_pts, &local_den, &mut approx);
            let rel = (direct[0] - approx[0]).abs() / direct[0].abs();
            assert!(rel < 1e-5, "M2L interior error {rel} at {t:?}");
        }
    }

    #[test]
    fn l2l_preserves_interior_field() {
        let kernel = LaplaceKernel;
        let parent_hw = 0.5;
        // Far sources, represented as a parent local expansion.
        let (src, den) = random_sources([5.0, 0.0, 0.0], 0.3, 30, 4);
        let parent_check = surface_points(P, [0.0; 3], parent_hw, RADIUS_INNER);
        let mut pcheck = vec![0.0; parent_check.len()];
        kernel.p2p(&parent_check, &src, &den, &mut pcheck);
        let dc2e_parent = OperatorCache::make_dc2e(&kernel, P, parent_hw);
        let parent_local = dc2e_parent.matvec(&pcheck);
        // Push to a child via L2L.
        let octant = 3;
        let child_hw = parent_hw / 2.0;
        let child_center = [
            child_hw * if octant & 1 != 0 { 1.0 } else { -1.0 },
            child_hw * if octant & 2 != 0 { 1.0 } else { -1.0 },
            child_hw * if octant & 4 != 0 { 1.0 } else { -1.0 },
        ];
        let child_dc2e = OperatorCache::make_dc2e(&kernel, P, child_hw);
        let l2l = OperatorCache::make_l2l(&kernel, P, child_hw, octant, &child_dc2e);
        let child_local = l2l.matvec(&parent_local);
        let child_equiv_pts = surface_points(P, child_center, child_hw, RADIUS_OUTER);
        // Evaluate inside the child.
        let t = [child_center[0] + 0.3 * child_hw, child_center[1], child_center[2]];
        let mut direct = [0.0];
        kernel.p2p(&[t], &src, &den, &mut direct);
        let mut approx = [0.0];
        kernel.p2p(&[t], &child_equiv_pts, &child_local, &mut approx);
        let rel = (direct[0] - approx[0]).abs() / direct[0].abs();
        assert!(rel < 1e-5, "L2L interior error {rel}");
    }

    #[test]
    fn cache_covers_tree_needs() {
        use crate::tree::Octree;
        let mut rng = StdRng::seed_from_u64(5);
        let pts: Vec<[f64; 3]> =
            (0..2000).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
        let tree = Octree::build(&pts, &vec![1.0; 2000], 50);
        let cache = OperatorCache::build(&LaplaceKernel, &tree, 4);
        for level in 0..=tree.depth() {
            let _ = cache.uc2e(level);
            let _ = cache.dc2e(level);
        }
        let lists = crate::lists::InteractionLists::build(&tree);
        for (ti, vl) in lists.v.iter().enumerate() {
            let tid = tree.nodes[ti].id;
            for &si in vl {
                let sid = tree.nodes[si].id;
                let off = (
                    sid.x as i32 - tid.x as i32,
                    sid.y as i32 - tid.y as i32,
                    sid.z as i32 - tid.z as i32,
                );
                assert!(cache.m2l(tid.level, off).is_some(), "missing M2L {off:?}");
            }
        }
        assert!(!cache.m2l.is_empty());
    }
}
