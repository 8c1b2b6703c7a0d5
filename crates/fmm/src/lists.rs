//! The U, V, W and X interaction lists (Ying, Biros & Zorin 2004).
//!
//! For each box `B` of the adaptive tree:
//!
//! * **U(B)** (leaves only): `B` itself plus every leaf adjacent to `B`,
//!   at any level.  Handled by direct P2P evaluation.
//! * **V(B)**: children of `B`'s parent's colleagues that are not
//!   adjacent to `B` — the classic 189-box far interaction list at `B`'s
//!   own level.  Handled by M2L translations.
//! * **W(B)** (leaves only): descendants `C` of `B`'s colleagues with
//!   `C` not adjacent to `B` but `parent(C)` adjacent to `B`; `C`'s
//!   multipole is evaluated directly at `B`'s points.
//! * **X(B)**: the dual of W — leaves `C` with `B ∈ W(C)`; `C`'s source
//!   points are evaluated onto `B`'s downward-check surface.

use crate::operators::Offset;
use crate::tree::{next_stamp, Octree};
use compat::par;

/// V-list offsets lie in `[-3, 3]³` — 343 codes per level.
pub(crate) const V_OFFSET_CODES: usize = 7 * 7 * 7;

/// Packs a same-level offset into its dense code, or `None` when outside
/// the `[-3, 3]³` range any V list can realize.
#[inline]
pub(crate) fn v_offset_code(off: Offset) -> Option<usize> {
    let (x, y, z) = off;
    if !(-3..=3).contains(&x) || !(-3..=3).contains(&y) || !(-3..=3).contains(&z) {
        return None;
    }
    Some((((x + 3) * 7 + (y + 3)) * 7 + (z + 3)) as usize)
}

/// The four interaction lists for every node of a tree.
#[derive(Debug, Clone)]
pub struct InteractionLists {
    /// U list per node (empty for internal nodes).  Includes the node
    /// itself.
    pub u: Vec<Vec<usize>>,
    /// V list per node.
    pub v: Vec<Vec<usize>>,
    /// W list per node (empty for internal nodes).
    pub w: Vec<Vec<usize>>,
    /// X list per node.
    pub x: Vec<Vec<usize>>,
    /// A stamp unique to this build in the process (see
    /// [`InteractionLists::stamp`]).
    stamp: u64,
}

impl InteractionLists {
    /// Builds all four lists for `tree`.
    ///
    /// The per-node U/V/W lists are independent read-only functions of
    /// the tree, so they are computed in parallel with
    /// [`par::par_map_vec`], which preserves node order — the result is
    /// identical to the sequential loop.  The X list is the dual of W
    /// and is filled by a cheap sequential pass afterwards (its entries
    /// must appear in ascending leaf order, which the serial scan
    /// guarantees).
    pub fn build(tree: &Octree) -> Self {
        let n = tree.nodes.len();

        let per_node = |ni: usize| -> (Vec<usize>, Vec<usize>, Vec<usize>) {
            let node = &tree.nodes[ni];
            let mut u = Vec::new();
            let mut v = Vec::new();
            let mut w = Vec::new();
            // --- V list: children of parent's colleagues, not adjacent.
            if let Some(pi) = node.parent {
                for ci in tree.colleagues(pi) {
                    for child in tree.nodes[ci].children.iter().flatten() {
                        if !tree.nodes[*child].id.adjacent(&node.id) {
                            v.push(*child);
                        }
                    }
                }
            }

            if node.is_leaf() {
                // --- U list: all adjacent leaves (any level), plus self.
                u = adjacent_leaves(tree, ni);
                u.push(ni);
                u.sort_unstable();
                u.dedup();

                // --- W list: colleague descendants whose parent touches B
                // but which do not themselves.
                for ci in tree.colleagues(ni) {
                    collect_w(tree, ni, ci, &mut w);
                }
            }
            (u, v, w)
        };

        let triples = par::par_map_vec((0..n).collect(), &per_node);
        let mut u = Vec::with_capacity(n);
        let mut v = Vec::with_capacity(n);
        let mut w = Vec::with_capacity(n);
        for (ul, vl, wl) in triples {
            u.push(ul);
            v.push(vl);
            w.push(wl);
        }

        // --- X list: dual of W.
        let mut x = vec![Vec::new(); n];
        for (leaf, wlist) in w.iter().enumerate() {
            for &c in wlist {
                x[c].push(leaf);
            }
        }

        InteractionLists { u, v, w, x, stamp: next_stamp() }
    }

    /// Total number of V translations.
    pub fn v_pair_count(&self) -> usize {
        self.v.iter().map(|l| l.len()).sum()
    }

    /// A stamp of this build, unique in the process: a clone keeps it,
    /// and lists built again (even for the same tree) draw a new one.
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Every distinct `(target level, source offset)` the V lists
    /// realize, in order of first occurrence over targets and their V
    /// lists — the set of M2L operators a plan must precompute.
    pub fn v_offsets(&self, tree: &Octree) -> Vec<(u8, Offset)> {
        let mut seen = vec![[false; V_OFFSET_CODES]; tree.depth() as usize + 1];
        let mut keys = Vec::new();
        for (ti, vl) in self.v.iter().enumerate() {
            let tid = tree.nodes[ti].id;
            for &si in vl {
                let sid = tree.nodes[si].id;
                let off = (
                    sid.x as i32 - tid.x as i32,
                    sid.y as i32 - tid.y as i32,
                    sid.z as i32 - tid.z as i32,
                );
                let code = v_offset_code(off).expect("V offsets lie in [-3, 3]³");
                let slot = &mut seen[tid.level as usize][code];
                if !*slot {
                    *slot = true;
                    keys.push((tid.level, off));
                }
            }
        }
        keys
    }
}

/// All leaves adjacent to leaf `ni` (excluding `ni` itself).
fn adjacent_leaves(tree: &Octree, ni: usize) -> Vec<usize> {
    let id = tree.nodes[ni].id;
    let mut out = Vec::new();
    // Seed with the existing boxes covering the 26 same-level neighbor
    // cells (or their deepest existing ancestors for coarser regions).
    let max = 1i64 << id.level;
    let mut seeds = Vec::new();
    for dx in -1i64..=1 {
        for dy in -1i64..=1 {
            for dz in -1i64..=1 {
                if dx == 0 && dy == 0 && dz == 0 {
                    continue;
                }
                let (nx, ny, nz) = (id.x as i64 + dx, id.y as i64 + dy, id.z as i64 + dz);
                if nx < 0 || ny < 0 || nz < 0 || nx >= max || ny >= max || nz >= max {
                    continue;
                }
                let nid = crate::tree::BoxId {
                    level: id.level,
                    x: nx as u32,
                    y: ny as u32,
                    z: nz as u32,
                };
                if let Some(i) = tree.find_or_ancestor(&nid) {
                    seeds.push(i);
                }
            }
        }
    }
    seeds.sort_unstable();
    seeds.dedup();
    // Expand each seed to its adjacent descendant leaves.
    for seed in seeds {
        collect_adjacent_leaves(tree, ni, seed, &mut out);
    }
    out
}

/// Recursively collects leaves under `cand` that are adjacent to `target`.
fn collect_adjacent_leaves(tree: &Octree, target: usize, cand: usize, out: &mut Vec<usize>) {
    if cand == target || !tree.nodes[cand].id.adjacent(&tree.nodes[target].id) {
        return;
    }
    if tree.nodes[cand].is_leaf() {
        out.push(cand);
        return;
    }
    for child in tree.nodes[cand].children.iter().flatten() {
        collect_adjacent_leaves(tree, target, *child, out);
    }
}

/// Recursively collects W-list members for leaf `target` under the
/// adjacent box `cand` (initially a colleague of `target`).
fn collect_w(tree: &Octree, target: usize, cand: usize, out: &mut Vec<usize>) {
    // Invariant: `cand` is adjacent to `target`.
    for child in tree.nodes[cand].children.iter().flatten() {
        if tree.nodes[*child].id.adjacent(&tree.nodes[target].id) {
            // Still adjacent: if it's a leaf it belongs to U; otherwise
            // keep descending.
            if !tree.nodes[*child].is_leaf() {
                collect_w(tree, target, *child, out);
            }
        } else {
            // Parent adjacent, child not: W member (leaf or not).
            out.push(*child);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Octree;
    use compat::rng::StdRng;

    fn uniform_tree(n: usize, q: usize, seed: u64) -> Octree {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<[f64; 3]> =
            (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
        Octree::build(&pts, &vec![1.0; n], q)
    }

    fn clustered_tree(seed: u64) -> Octree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        for _ in 0..600 {
            pts.push([
                0.2 + rng.random::<f64>() * 0.01,
                0.3 + rng.random::<f64>() * 0.01,
                0.4 + rng.random::<f64>() * 0.01,
            ]);
        }
        for _ in 0..400 {
            pts.push([rng.random(), rng.random(), rng.random()]);
        }
        Octree::build(&pts, &vec![1.0; 1000], 24)
    }

    #[test]
    fn u_lists_contain_self_and_only_leaves() {
        let t = uniform_tree(2000, 50, 1);
        let lists = InteractionLists::build(&t);
        for (ni, node) in t.nodes.iter().enumerate() {
            if node.is_leaf() {
                assert!(lists.u[ni].contains(&ni), "U contains self");
                for &a in &lists.u[ni] {
                    assert!(t.nodes[a].is_leaf());
                    assert!(t.nodes[a].id.adjacent(&node.id));
                }
            } else {
                assert!(lists.u[ni].is_empty());
                assert!(lists.w[ni].is_empty());
            }
        }
    }

    #[test]
    fn u_is_symmetric() {
        let t = clustered_tree(5);
        let lists = InteractionLists::build(&t);
        for (ni, ul) in lists.u.iter().enumerate() {
            for &a in ul {
                assert!(lists.u[a].contains(&ni), "U symmetry broken between {ni} and {a}");
            }
        }
    }

    #[test]
    fn v_members_are_same_level_and_well_separated() {
        let t = uniform_tree(4000, 40, 2);
        let lists = InteractionLists::build(&t);
        for (ni, vl) in lists.v.iter().enumerate() {
            let id = t.nodes[ni].id;
            for &s in vl {
                let sid = t.nodes[s].id;
                assert_eq!(sid.level, id.level, "V is a same-level list");
                assert!(!sid.adjacent(&id), "V members are not adjacent");
                // But their parents are adjacent.
                assert!(sid.parent().unwrap().adjacent(&id.parent().unwrap()));
            }
        }
    }

    #[test]
    fn v_list_bounded_by_189_for_uniform_trees() {
        let t = uniform_tree(8000, 30, 3);
        let lists = InteractionLists::build(&t);
        for vl in &lists.v {
            assert!(vl.len() <= 189, "uniform V list size {} exceeds 189", vl.len());
        }
        // And some boxes deep in the tree should have sizable V lists.
        let max_v = lists.v.iter().map(|l| l.len()).max().unwrap();
        assert!(max_v > 100, "max V size {max_v}");
    }

    #[test]
    fn w_members_parent_adjacent_self_not() {
        let t = clustered_tree(7);
        let lists = InteractionLists::build(&t);
        for (ni, wl) in lists.w.iter().enumerate() {
            let id = t.nodes[ni].id;
            for &c in wl {
                let cid = t.nodes[c].id;
                assert!(cid.level > id.level, "W members are finer than B");
                assert!(!cid.adjacent(&id), "W member must not touch B");
                let parent = t.nodes[t.nodes[c].parent.unwrap()].id;
                assert!(parent.adjacent(&id), "W member's parent touches B");
            }
        }
    }

    #[test]
    fn x_is_dual_of_w() {
        let t = clustered_tree(9);
        let lists = InteractionLists::build(&t);
        for (b, wl) in lists.w.iter().enumerate() {
            for &c in wl {
                assert!(lists.x[c].contains(&b), "X({c}) misses {b}");
            }
        }
        // Conversely every X entry has a matching W entry.
        for (b, xl) in lists.x.iter().enumerate() {
            for &c in xl {
                assert!(lists.w[c].contains(&b));
            }
        }
    }

    #[test]
    fn uniform_tree_has_empty_w_and_x() {
        // A perfectly level-balanced tree has no level mismatches along
        // adjacency boundaries, hence empty W/X lists.
        let t = uniform_tree(4096, 8, 11);
        // Check uniformity first (all leaves same level); if the sample
        // isn't uniform enough, skip the empty-W assertion.
        let leaf_levels: Vec<u8> = t.leaves().iter().map(|&l| t.nodes[l].id.level).collect();
        let uniform = leaf_levels.iter().all(|&l| l == leaf_levels[0]);
        let lists = InteractionLists::build(&t);
        if uniform {
            assert!(lists.w.iter().all(|l| l.is_empty()));
            assert!(lists.x.iter().all(|l| l.is_empty()));
        }
        let _ = lists;
    }

    #[test]
    fn clustered_tree_has_nonempty_w_and_x() {
        let t = clustered_tree(13);
        let lists = InteractionLists::build(&t);
        let w_total: usize = lists.w.iter().map(|l| l.len()).sum();
        assert!(w_total > 0, "adaptive tree must produce W entries");
        assert_eq!(w_total, lists.x.iter().map(|l| l.len()).sum::<usize>());
    }

    #[test]
    fn lists_are_identical_across_thread_counts_and_tree_builders() {
        // The parallel list builder must reproduce the sequential result
        // exactly — same entries, same order — for any worker count, and
        // for trees built by either the sequential or the parallel
        // builder (which are themselves bitwise-identical).
        let mut rng = StdRng::seed_from_u64(23);
        let n = 3000;
        let pts: Vec<[f64; 3]> =
            (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
        let dens = vec![1.0; n];

        compat::par::set_thread_count(Some(1));
        let t_seq = Octree::build_sequential(&pts, &dens, 32);
        let reference = InteractionLists::build(&t_seq);
        for threads in [1usize, 2, 4, 8] {
            compat::par::set_thread_count(Some(threads));
            for tree in [Octree::build_sequential(&pts, &dens, 32), Octree::build(&pts, &dens, 32)]
            {
                let got = InteractionLists::build(&tree);
                assert_eq!(got.u, reference.u, "U lists differ at {threads} threads");
                assert_eq!(got.v, reference.v, "V lists differ at {threads} threads");
                assert_eq!(got.w, reference.w, "W lists differ at {threads} threads");
                assert_eq!(got.x, reference.x, "X lists differ at {threads} threads");
            }
        }
        compat::par::set_thread_count(None);
    }

    #[test]
    fn every_pair_is_covered_exactly_once() {
        // Fundamental FMM correctness invariant: for any target leaf T
        // and source leaf S, the (T, S) interaction is accounted for by
        // exactly one mechanism: U (direct), or an (ancestor(T),
        // ancestor(S)) V translation, or W/X, never several.
        let t = clustered_tree(17);
        let lists = InteractionLists::build(&t);
        let leaves = t.leaves();
        let ancestors = |mut i: usize| {
            let mut chain = vec![i];
            while let Some(p) = t.nodes[i].parent {
                chain.push(p);
                i = p;
            }
            chain
        };
        for &target in leaves.iter().step_by(7) {
            for &source in leaves.iter().step_by(5) {
                let t_anc = ancestors(target);
                let s_anc = ancestors(source);
                let mut coverage = 0;
                // U: direct.
                if lists.u[target].contains(&source) {
                    coverage += 1;
                }
                // V: some ancestor pair (a, b) with b in V(a).
                for &a in &t_anc {
                    for &b in &s_anc {
                        if lists.v[a].contains(&b) {
                            coverage += 1;
                        }
                    }
                }
                // W: source's ancestor-or-self in W(target).
                for &b in &s_anc {
                    if lists.w[target].contains(&b) {
                        coverage += 1;
                    }
                }
                // X: target's ancestor-or-self has source leaf in X list.
                for &a in &t_anc {
                    if lists.x[a].contains(&source) {
                        coverage += 1;
                    }
                }
                assert_eq!(
                    coverage, 1,
                    "pair (leaf {target}, leaf {source}) covered {coverage} times"
                );
            }
        }
    }
}
