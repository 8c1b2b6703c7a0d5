//! Tree and interaction-list statistics.
//!
//! The cost balance the paper tunes with `Q` is ultimately a statement
//! about these statistics: how many leaves, how long the U and V lists
//! run, how much direct work each leaf carries.  This module summarizes
//! a plan the way FMM papers tabulate their trees.

use crate::lists::InteractionLists;
use crate::tree::Octree;

/// Min/mean/max summary of an integer quantity.  Public because it types
/// three public fields of [`TreeStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMeanMax {
    /// Minimum.
    pub min: usize,
    /// Mean.
    pub mean: f64,
    /// Maximum.
    pub max: usize,
}

impl MinMeanMax {
    fn over(values: impl Iterator<Item = usize> + Clone) -> MinMeanMax {
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0usize;
        let mut n = 0usize;
        for v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
            n += 1;
        }
        if n == 0 {
            MinMeanMax { min: 0, mean: 0.0, max: 0 }
        } else {
            MinMeanMax { min, mean: sum as f64 / n as f64, max }
        }
    }
}

/// Summary statistics of a built tree + lists.
#[derive(Debug, Clone)]
pub struct TreeStats {
    /// Number of points.
    pub points: usize,
    /// Total nodes.
    pub nodes: usize,
    /// Number of leaves.
    pub leaves: usize,
    /// Tree depth.
    pub depth: u8,
    /// Nodes per level, root first.
    pub nodes_per_level: Vec<usize>,
    /// Points per leaf.
    pub points_per_leaf: MinMeanMax,
    /// U-list length over leaves.
    pub u_list_len: MinMeanMax,
    /// V-list length over nodes that have one.
    pub v_list_len: MinMeanMax,
    /// Total W entries (0 for uniform trees).
    pub w_entries: usize,
    /// Total X entries.
    pub x_entries: usize,
    /// Total direct (U-phase) interactions Σ nt·ns.
    pub direct_interactions: u64,
    /// Total M2L translations.
    pub translations: usize,
}

impl TreeStats {
    /// Computes the statistics of `tree` with `lists`.
    pub fn compute(tree: &Octree, lists: &InteractionLists) -> TreeStats {
        let leaves = tree.leaves();
        let mut direct = 0u64;
        for &li in &leaves {
            let nt = tree.nodes[li].num_points() as u64;
            for &ai in &lists.u[li] {
                direct += nt * tree.nodes[ai].num_points() as u64;
            }
        }
        TreeStats {
            points: tree.points.len(),
            nodes: tree.nodes.len(),
            leaves: leaves.len(),
            depth: tree.depth(),
            nodes_per_level: tree.levels.iter().map(|l| l.len()).collect(),
            points_per_leaf: MinMeanMax::over(leaves.iter().map(|&l| tree.nodes[l].num_points())),
            u_list_len: MinMeanMax::over(leaves.iter().map(|&l| lists.u[l].len())),
            v_list_len: MinMeanMax::over(lists.v.iter().filter(|v| !v.is_empty()).map(|v| v.len())),
            w_entries: lists.w.iter().map(|l| l.len()).sum(),
            x_entries: lists.x.iter().map(|l| l.len()).sum(),
            direct_interactions: direct,
            translations: lists.v_pair_count(),
        }
    }

    /// Direct interactions per point — the `O(Q)` factor of the U phase.
    fn direct_per_point(&self) -> f64 {
        self.direct_interactions as f64 / self.points.max(1) as f64
    }

    /// A compact one-paragraph report.
    pub fn summary(&self) -> String {
        format!(
            "N={} nodes={} leaves={} depth={} | pts/leaf {:.1} (max {}) | U {:.1} | V {:.1} (max {}) | W/X {}/{} | direct/pt {:.0} | M2L {}",
            self.points,
            self.nodes,
            self.leaves,
            self.depth,
            self.points_per_leaf.mean,
            self.points_per_leaf.max,
            self.u_list_len.mean,
            self.v_list_len.mean,
            self.v_list_len.max,
            self.w_entries,
            self.x_entries,
            self.direct_per_point(),
            self.translations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{two_clusters, uniform_cube};

    fn stats(pts: &[[f64; 3]], q: usize) -> TreeStats {
        let tree = Octree::build(pts, &vec![1.0; pts.len()], q);
        let lists = InteractionLists::build(&tree);
        TreeStats::compute(&tree, &lists)
    }

    #[test]
    fn totals_are_consistent() {
        let s = stats(&uniform_cube(4000, 3), 64);
        assert_eq!(s.points, 4000);
        assert_eq!(s.nodes_per_level.iter().sum::<usize>(), s.nodes);
        assert_eq!(s.nodes_per_level.len(), s.depth as usize + 1);
        assert!(s.leaves <= s.nodes);
        assert!(s.points_per_leaf.max <= 64);
        assert!(s.points_per_leaf.min >= 1);
        assert_eq!(s.w_entries, s.x_entries);
    }

    #[test]
    fn v_lists_bounded_by_189() {
        let s = stats(&uniform_cube(8000, 32), 32);
        assert!(s.v_list_len.max <= 189);
        assert!(s.translations > 0);
    }

    #[test]
    fn larger_q_means_more_direct_work_per_point() {
        let pts = uniform_cube(8000, 5);
        let small = stats(&pts, 32);
        let large = stats(&pts, 256);
        assert!(large.direct_per_point() > small.direct_per_point());
        assert!(large.leaves < small.leaves);
    }

    #[test]
    fn clustered_points_produce_w_entries() {
        let s = stats(&two_clusters(3000, 0.01, 7), 24);
        assert!(s.w_entries > 0);
        assert!(s.depth >= 4);
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let s = stats(&uniform_cube(1000, 50), 50);
        let text = s.summary();
        assert!(text.contains("N=1000"));
        assert!(text.contains("M2L"));
    }

    #[test]
    fn direct_interactions_match_manual_count() {
        let pts = uniform_cube(500, 11);
        let tree = Octree::build(&pts, &vec![1.0; 500], 40);
        let lists = InteractionLists::build(&tree);
        let s = TreeStats::compute(&tree, &lists);
        let mut manual = 0u64;
        for &li in &tree.leaves() {
            for &ai in &lists.u[li] {
                manual += tree.nodes[li].num_points() as u64 * tree.nodes[ai].num_points() as u64;
            }
        }
        assert_eq!(s.direct_interactions, manual);
    }
}
