//! Adaptive octree construction.
//!
//! Given points in a bounding cube and the user parameter `Q` (maximum
//! points per box), boxes are recursively subdivided while they hold more
//! than `Q` points.  Empty children are pruned.  Points are permuted so
//! every node owns a contiguous index range, which keeps the P2P phases
//! streaming.
//!
//! # Parallel construction
//!
//! [`Octree::build`] refines level-synchronously on the `compat::par`
//! pool while producing output *bitwise identical* to the reference
//! [`Octree::build_sequential`] (a test asserts full structural
//! equality across thread counts).  The determinism argument:
//!
//! * Bucketing a box by octant is a **stable 8-bucket counting sort**
//!   on the point's next Morton digit ([`morton::point_octant`]).  A
//!   stable sort has exactly one output for a given input order, so the
//!   parallel within-box sort — per-chunk histograms, an exclusive
//!   prefix over `(octant, chunk)`, then a per-chunk scatter into
//!   disjoint slots — lands every point at the same index for *any*
//!   chunk count, including the sequential single-chunk case.
//! * Distinct boxes own disjoint `order` ranges, so bucketing boxes of
//!   one level in parallel cannot interact.
//! * The sequential builder numbers nodes by an explicit-stack DFS
//!   (children indexed in octant order at parent pop).  The parallel
//!   builder refines in BFS level order — which fixes the *tree shape*
//!   only — and then replays that exact DFS over the finished shape to
//!   assign final node indices, so `nodes`, `levels`, and every
//!   parent/child link match the sequential numbering.

use crate::morton;
use compat::par;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A box address: refinement level plus integer anchor in the level grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoxId {
    /// Refinement level (root = 0).
    pub level: u8,
    /// Anchor coordinates in `[0, 2^level)`.
    pub x: u32,
    /// Anchor y.
    pub y: u32,
    /// Anchor z.
    pub z: u32,
}

impl BoxId {
    /// The root box.
    pub fn root() -> Self {
        BoxId { level: 0, x: 0, y: 0, z: 0 }
    }

    /// The parent box (None for the root).
    pub fn parent(&self) -> Option<BoxId> {
        if self.level == 0 {
            None
        } else {
            Some(BoxId { level: self.level - 1, x: self.x / 2, y: self.y / 2, z: self.z / 2 })
        }
    }

    /// The child box in `octant`.
    pub fn child(&self, octant: usize) -> BoxId {
        let (x, y, z) = morton::child_anchor(self.x, self.y, self.z, octant);
        BoxId { level: self.level + 1, x, y, z }
    }

    /// Which octant of its parent this box occupies.
    pub fn octant(&self) -> usize {
        morton::octant(self.x, self.y, self.z)
    }

    /// True when the closed cubes of `self` and `other` touch or overlap
    /// (the adjacency relation of the interaction lists).  Works across
    /// levels using exact integer arithmetic.
    pub fn adjacent(&self, other: &BoxId) -> bool {
        // Box spans [anchor, anchor+1] * 2^(L - level) at a common scale L.
        let common = self.level.max(other.level);
        let sa = 1u64 << (common - self.level);
        let sb = 1u64 << (common - other.level);
        let overlap_1d = |a: u32, b: u32, sa: u64, sb: u64| {
            let a0 = a as u64 * sa;
            let a1 = a0 + sa;
            let b0 = b as u64 * sb;
            let b1 = b0 + sb;
            a0 <= b1 && b0 <= a1
        };
        overlap_1d(self.x, other.x, sa, sb)
            && overlap_1d(self.y, other.y, sa, sb)
            && overlap_1d(self.z, other.z, sa, sb)
    }

    /// True when `self` is an ancestor of `other` (or equal).
    pub fn contains(&self, other: &BoxId) -> bool {
        if other.level < self.level {
            return false;
        }
        let shift = other.level - self.level;
        other.x >> shift == self.x && other.y >> shift == self.y && other.z >> shift == self.z
    }
}

/// One tree node.
#[derive(Debug, Clone)]
pub struct Node {
    /// The box address.
    pub id: BoxId,
    /// Parent node index (None for the root).
    pub parent: Option<usize>,
    /// Child node indices by octant (pruned children are None).
    pub children: [Option<usize>; 8],
    /// Contiguous range of owned points in the permuted point array
    /// (covers all descendants for internal nodes).
    pub point_range: (usize, usize),
    /// Box center in problem coordinates.
    pub center: [f64; 3],
    /// Half of the box edge length.
    pub half_width: f64,
}

impl Node {
    /// True when the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.iter().all(|c| c.is_none())
    }

    /// Number of points the node owns.
    pub fn num_points(&self) -> usize {
        self.point_range.1 - self.point_range.0
    }
}

/// The adaptive octree over a point set.
#[derive(Debug, Clone)]
pub struct Octree {
    /// Nodes; index 0 is the root.  Children always appear after their
    /// parent, so a forward scan is a valid top-down order.
    pub nodes: Vec<Node>,
    /// Points permuted into tree order.
    pub points: Vec<[f64; 3]>,
    /// Source densities permuted identically.
    pub densities: Vec<f64>,
    /// `permutation[i]` = original index of permuted point `i`.
    pub permutation: Vec<usize>,
    /// Box-address → node-index lookup.
    index: HashMap<BoxId, usize>,
    /// Node indices grouped by level.
    pub levels: Vec<Vec<usize>>,
    /// The split threshold `Q`.
    pub max_leaf_points: usize,
    /// Stamp of the structure — nodes, box ids, children, levels —
    /// assigned by the build and kept by in-place updates (see
    /// [`Octree::structure`]).
    structure: u64,
    /// Stamp of the current point slabs, replaced by every in-place
    /// update (see [`Octree::generation`]).  Consumers that cache derived
    /// partitions of the point slabs (e.g. the evaluator's
    /// [`crate::schedule::PhaseSchedule`]) key their caches on this so a
    /// mutated tree can never serve stale slab boundaries.
    generation: u64,
}

/// The process-wide source of tree and list stamps.
static STAMPS: AtomicU64 = AtomicU64::new(0);

/// A stamp no earlier call in this process returned.  `Relaxed` is
/// enough: the read-modify-write alone makes each value unique, and a
/// stamp publishes no other data.
pub(crate) fn next_stamp() -> u64 {
    STAMPS.fetch_add(1, Ordering::Relaxed) + 1
}

/// The bounding cube shared by both builders: center and edge length.
///
/// Kept sequential even in the parallel build — a parallel min/max
/// reduction over chunks could order `±0.0` ties differently depending
/// on chunk boundaries, and the cube feeds every box center.
fn bounding_cube(points: &[[f64; 3]]) -> ([f64; 3], f64) {
    // Bounding cube (slightly padded so boundary points stay interior).
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in points {
        for d in 0..3 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let mut width = 0.0f64;
    for d in 0..3 {
        width = width.max(hi[d] - lo[d]);
    }
    let width = if width > 0.0 { width * (1.0 + 1e-12) } else { 1.0 };
    let root_center = [lo[0] + width * 0.5, lo[1] + width * 0.5, lo[2] + width * 0.5];
    (root_center, width)
}

/// Child-box center, the exact expression both builders share.
#[inline]
fn child_center(center: [f64; 3], hw: f64, o: usize) -> [f64; 3] {
    [
        center[0] + hw * 0.5 * if o & 1 != 0 { 1.0 } else { -1.0 },
        center[1] + hw * 0.5 * if o & 2 != 0 { 1.0 } else { -1.0 },
        center[2] + hw * 0.5 * if o & 4 != 0 { 1.0 } else { -1.0 },
    ]
}

/// A node of the in-progress parallel build, indexed in BFS (frontier)
/// order; `Octree::build` renumbers these into the sequential DFS order
/// before constructing the final [`Node`]s.
struct BuildNode {
    id: BoxId,
    parent: Option<usize>,
    children: [Option<usize>; 8],
    point_range: (usize, usize),
    center: [f64; 3],
    half_width: f64,
}

/// Below this many points the parallel build delegates to the
/// sequential builder outright (identical output, no pool overhead).
const PAR_BUILD_MIN_POINTS: usize = 512;

/// Boxes at least this large are bucketed with the *within-box*
/// parallel counting sort; smaller boxes are batched *across* boxes.
const PAR_BOX_MIN_POINTS: usize = 1024;

/// Stable 8-bucket counting sort of `order[start..end]` by octant
/// relative to `center`, sequential form.  `scratch` provides the
/// temporary slot space for the same range.
///
/// # Safety contract (checked by the callers)
/// The caller must own `order[start..end]` and `scratch[start..end]`
/// exclusively; distinct boxes own disjoint ranges, which is what makes
/// batching boxes across the pool sound.
fn bucket_range_seq(
    points: &[[f64; 3]],
    order: par::SendPtr<usize>,
    scratch: par::SendPtr<usize>,
    start: usize,
    end: usize,
    center: [f64; 3],
) -> [usize; 8] {
    let len = end - start;
    // SAFETY: per the contract above, this range is exclusively ours.
    let ord = unsafe { order.slice_mut(start, len) };
    let tmp = unsafe { scratch.slice_mut(start, len) };
    let mut counts = [0usize; 8];
    for &pi in ord.iter() {
        counts[morton::point_octant(points[pi], center)] += 1;
    }
    let mut offs = [0usize; 8];
    let mut acc = 0;
    for o in 0..8 {
        offs[o] = acc;
        acc += counts[o];
    }
    for &pi in ord.iter() {
        let o = morton::point_octant(points[pi], center);
        tmp[offs[o]] = pi;
        offs[o] += 1;
    }
    ord.copy_from_slice(tmp);
    counts
}

/// Parallel stable counting sort of one large box: per-chunk octant
/// histograms, an exclusive prefix laid out in `(octant, chunk)` order,
/// then a parallel scatter into disjoint `scratch` slots.  The output
/// is the unique stable ordering, so it is identical for any chunk
/// count — and identical to [`bucket_range_seq`].
fn bucket_range_par(
    points: &[[f64; 3]],
    order: par::SendPtr<usize>,
    scratch: par::SendPtr<usize>,
    start: usize,
    end: usize,
    center: [f64; 3],
    threads: usize,
) -> [usize; 8] {
    let len = end - start;
    let chunk = len.div_ceil(threads.max(1)).max(1);
    let ranges: Vec<(usize, usize)> =
        (start..end).step_by(chunk).map(|s| (s, (s + chunk).min(end))).collect();
    // Phase 1: histogram each chunk (read-only on `order`).
    let histos: Vec<[usize; 8]> = par::par_map_vec(ranges.clone(), &|(s, e): (usize, usize)| {
        // SAFETY: no one writes `order` during this phase.
        let ord = unsafe { order.slice(s, e - s) };
        let mut h = [0usize; 8];
        for &pi in ord {
            h[morton::point_octant(points[pi], center)] += 1;
        }
        h
    });
    let mut totals = [0usize; 8];
    for h in &histos {
        for o in 0..8 {
            totals[o] += h[o];
        }
    }
    let mut oct_base = [0usize; 8];
    let mut acc = 0;
    for o in 0..8 {
        oct_base[o] = acc;
        acc += totals[o];
    }
    // Exclusive prefix: chunk c's octant-o slots start after every
    // earlier octant and after the octant-o items of earlier chunks —
    // the stable counting-sort layout.
    let mut offsets: Vec<[usize; 8]> = Vec::with_capacity(histos.len());
    let mut running = [0usize; 8];
    for h in &histos {
        let mut offs = [0usize; 8];
        for o in 0..8 {
            offs[o] = start + oct_base[o] + running[o];
            running[o] += h[o];
        }
        offsets.push(offs);
    }
    // Phase 2: scatter each chunk into its disjoint slots.
    let jobs: Vec<((usize, usize), [usize; 8])> = ranges.into_iter().zip(offsets).collect();
    par::par_for_each_init(
        jobs,
        || (),
        |_, ((s, e), mut offs): ((usize, usize), [usize; 8])| {
            // SAFETY: reads come from this chunk's own `order` range;
            // writes go to slot ranges disjoint per (chunk, octant).
            let ord = unsafe { order.slice(s, e - s) };
            for &pi in ord {
                let o = morton::point_octant(points[pi], center);
                unsafe { scratch.slice_mut(offs[o], 1)[0] = pi };
                offs[o] += 1;
            }
        },
    );
    // SAFETY: the scatter finished; we exclusively own both ranges.
    unsafe { order.slice_mut(start, len).copy_from_slice(scratch.slice(start, len)) };
    totals
}

/// Parallel gather `src[order[i]] → out[i]` in contiguous chunks.
fn par_gather<T: Copy + Default + Send + Sync>(src: &[T], order: &[usize]) -> Vec<T> {
    let n = order.len();
    let mut out = vec![T::default(); n];
    let threads = par::num_threads();
    if threads <= 1 || n < PAR_BUILD_MIN_POINTS {
        for (i, &oi) in order.iter().enumerate() {
            out[i] = src[oi];
        }
        return out;
    }
    let base = par::SendPtr::new(out.as_mut_ptr());
    let chunk = n.div_ceil(threads).max(1);
    let ranges: Vec<(usize, usize)> =
        (0..n).step_by(chunk).map(|s| (s, (s + chunk).min(n))).collect();
    par::par_for_each_init(
        ranges,
        || (),
        |_, (s, e): (usize, usize)| {
            // SAFETY: chunks write disjoint `out` ranges.
            let dst = unsafe { base.slice_mut(s, e - s) };
            for (i, &oi) in order[s..e].iter().enumerate() {
                dst[i] = src[oi];
            }
        },
    );
    out
}

impl Octree {
    /// Builds the tree over `points` (with per-point `densities`),
    /// splitting boxes holding more than `max_leaf_points` points.
    ///
    /// Refines level-synchronously on the `compat::par` pool; the
    /// result — node numbering, box ids, permutation, everything — is
    /// bitwise identical to [`Octree::build_sequential`] (see the
    /// module docs for the determinism argument).
    ///
    /// # Panics
    /// Panics if the inputs are empty or of mismatched length.
    pub fn build(points: &[[f64; 3]], densities: &[f64], max_leaf_points: usize) -> Self {
        assert!(!points.is_empty(), "empty point set");
        assert_eq!(points.len(), densities.len(), "one density per point");
        assert!(max_leaf_points >= 1, "Q must be at least 1");
        let n = points.len();
        let threads = par::num_threads();
        if threads <= 1 || n < PAR_BUILD_MIN_POINTS {
            return Self::build_sequential(points, densities, max_leaf_points);
        }

        let (root_center, width) = bounding_cube(points);
        let mut order: Vec<usize> = (0..n).collect();
        let mut scratch = vec![0usize; n];
        let order_ptr = par::SendPtr::new(order.as_mut_ptr());
        let scratch_ptr = par::SendPtr::new(scratch.as_mut_ptr());

        let mut bnodes = vec![BuildNode {
            id: BoxId::root(),
            parent: None,
            children: [None; 8],
            point_range: (0, n),
            center: root_center,
            half_width: width * 0.5,
        }];
        // Level-synchronous refinement over the frontier of oversized
        // boxes.  Each box owns a disjoint `order` range, so one level's
        // boxes bucket independently; large boxes parallelize *within*
        // the box instead.
        let mut frontier = vec![0usize];
        while !frontier.is_empty() {
            let mut split: Vec<usize> = Vec::new();
            for &b in &frontier {
                let (s, e) = bnodes[b].point_range;
                if e - s > max_leaf_points && bnodes[b].id.level < morton::MAX_LEVEL {
                    split.push(b);
                }
            }
            if split.is_empty() {
                break;
            }
            let mut counts = vec![[0usize; 8]; split.len()];
            let mut small: Vec<usize> = Vec::new();
            for (k, &b) in split.iter().enumerate() {
                let (s, e) = bnodes[b].point_range;
                if e - s >= PAR_BOX_MIN_POINTS {
                    counts[k] = bucket_range_par(
                        points,
                        order_ptr,
                        scratch_ptr,
                        s,
                        e,
                        bnodes[b].center,
                        threads,
                    );
                } else {
                    small.push(k);
                }
            }
            if !small.is_empty() {
                let jobs: Vec<(usize, usize, [f64; 3])> = small
                    .iter()
                    .map(|&k| {
                        let (s, e) = bnodes[split[k]].point_range;
                        (s, e, bnodes[split[k]].center)
                    })
                    .collect();
                let small_counts =
                    par::par_map_vec(jobs, &|(s, e, c): (usize, usize, [f64; 3])| {
                        bucket_range_seq(points, order_ptr, scratch_ptr, s, e, c)
                    });
                for (&k, c) in small.iter().zip(small_counts) {
                    counts[k] = c;
                }
            }
            // Child creation is sequential and cheap: a handful of
            // arithmetic per non-empty child, in (box, octant) order.
            let mut next = Vec::new();
            for (k, &b) in split.iter().enumerate() {
                let (start, end) = bnodes[b].point_range;
                let center = bnodes[b].center;
                let hw = bnodes[b].half_width;
                let parent_id = bnodes[b].id;
                let mut cursor = start;
                for o in 0..8 {
                    let cnt = counts[k][o];
                    if cnt == 0 {
                        continue;
                    }
                    let ci = bnodes.len();
                    bnodes.push(BuildNode {
                        id: parent_id.child(o),
                        parent: Some(b),
                        children: [None; 8],
                        point_range: (cursor, cursor + cnt),
                        center: child_center(center, hw, o),
                        half_width: hw * 0.5,
                    });
                    bnodes[b].children[o] = Some(ci);
                    next.push(ci);
                    cursor += cnt;
                }
                debug_assert_eq!(cursor, end);
            }
            frontier = next;
        }
        drop(scratch);

        // Renumber the BFS build order into the sequential builder's
        // DFS numbering: children receive consecutive indices in octant
        // order when their parent is popped, and are pushed in octant
        // order (so the deepest-last octant is refined first) — exactly
        // the explicit-stack walk of `build_sequential`.
        let m = bnodes.len();
        let mut new_of_build = vec![usize::MAX; m];
        let mut build_of_new = Vec::with_capacity(m);
        new_of_build[0] = 0;
        build_of_new.push(0usize);
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            for o in 0..8 {
                if let Some(c) = bnodes[b].children[o] {
                    new_of_build[c] = build_of_new.len();
                    build_of_new.push(c);
                    stack.push(c);
                }
            }
        }
        let nodes: Vec<Node> = build_of_new
            .iter()
            .map(|&b| {
                let bn = &bnodes[b];
                Node {
                    id: bn.id,
                    parent: bn.parent.map(|p| new_of_build[p]),
                    children: std::array::from_fn(|o| bn.children[o].map(|c| new_of_build[c])),
                    point_range: bn.point_range,
                    center: bn.center,
                    half_width: bn.half_width,
                }
            })
            .collect();

        let permuted_points = par_gather(points, &order);
        let permuted_densities = par_gather(densities, &order);

        let mut index = HashMap::with_capacity(nodes.len());
        let mut levels: Vec<Vec<usize>> = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            index.insert(node.id, i);
            let l = node.id.level as usize;
            if levels.len() <= l {
                levels.resize(l + 1, Vec::new());
            }
            levels[l].push(i);
        }

        let stamp = next_stamp();
        Octree {
            nodes,
            points: permuted_points,
            densities: permuted_densities,
            permutation: order,
            index,
            levels,
            max_leaf_points,
            structure: stamp,
            generation: stamp,
        }
    }

    /// The single-threaded reference builder ([`Octree::build`] must
    /// match it bit for bit — the determinism suite compares full
    /// structures across thread counts).
    ///
    /// # Panics
    /// Panics if the inputs are empty or of mismatched length.
    pub fn build_sequential(
        points: &[[f64; 3]],
        densities: &[f64],
        max_leaf_points: usize,
    ) -> Self {
        assert!(!points.is_empty(), "empty point set");
        assert_eq!(points.len(), densities.len(), "one density per point");
        assert!(max_leaf_points >= 1, "Q must be at least 1");

        let (root_center, width) = bounding_cube(points);

        let mut order: Vec<usize> = (0..points.len()).collect();
        let mut nodes = Vec::new();
        nodes.push(Node {
            id: BoxId::root(),
            parent: None,
            children: [None; 8],
            point_range: (0, points.len()),
            center: root_center,
            half_width: width * 0.5,
        });

        // Iterative refinement (explicit stack keeps children after
        // parents in `nodes`).
        let mut stack = vec![0usize];
        while let Some(ni) = stack.pop() {
            let (start, end) = nodes[ni].point_range;
            if end - start <= max_leaf_points || nodes[ni].id.level >= morton::MAX_LEVEL {
                continue;
            }
            let center = nodes[ni].center;
            let hw = nodes[ni].half_width;
            // Bucket the node's points by octant (stable three-way via
            // counting sort over 8 buckets).
            let mut buckets: [Vec<usize>; 8] = Default::default();
            for &pi in &order[start..end] {
                buckets[morton::point_octant(points[pi], center)].push(pi);
            }
            let mut cursor = start;
            let parent_id = nodes[ni].id;
            for (o, bucket) in buckets.iter().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                let child_start = cursor;
                for &pi in bucket {
                    order[cursor] = pi;
                    cursor += 1;
                }
                let child_id = parent_id.child(o);
                let child_index = nodes.len();
                nodes.push(Node {
                    id: child_id,
                    parent: Some(ni),
                    children: [None; 8],
                    point_range: (child_start, cursor),
                    center: child_center(center, hw, o),
                    half_width: hw * 0.5,
                });
                nodes[ni].children[o] = Some(child_index);
                stack.push(child_index);
            }
            debug_assert_eq!(cursor, end);
        }

        let permuted_points: Vec<[f64; 3]> = order.iter().map(|&i| points[i]).collect();
        let permuted_densities: Vec<f64> = order.iter().map(|&i| densities[i]).collect();

        let mut index = HashMap::with_capacity(nodes.len());
        let mut levels: Vec<Vec<usize>> = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            index.insert(n.id, i);
            let l = n.id.level as usize;
            if levels.len() <= l {
                levels.resize(l + 1, Vec::new());
            }
            levels[l].push(i);
        }

        let stamp = next_stamp();
        Octree {
            nodes,
            points: permuted_points,
            densities: permuted_densities,
            permutation: order,
            index,
            levels,
            max_leaf_points,
            structure: stamp,
            generation: stamp,
        }
    }

    /// A stamp of the tree's point slabs — which points each node owns
    /// and where its range lies — unique in the process: a build draws a
    /// fresh one and every in-place mutation ([`Octree::bump_generation`])
    /// replaces it.  Derived caches (phase schedules, the plan's profile
    /// memo) compare this against the stamp they were built for, so
    /// neither a mutated tree nor another tree swapped into a plan can
    /// serve them stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A stamp of the tree's structure — its nodes, box ids, children
    /// and levels — unique in the process: a build draws a fresh one and
    /// in-place mutation keeps it, because such a mutation may move
    /// points and slab ranges but never the structure.  What depends on
    /// the structure alone (the V phase's counters) keys on this.
    pub fn structure(&self) -> u64 {
        self.structure
    }

    /// Records an in-place mutation of the tree's point slabs or ranges.
    ///
    /// Anything that moves points between slabs — rewrites `permutation`
    /// or a node's `point_range` — without rebuilding the tree (the
    /// streaming engine's incremental update does) must call this so
    /// generation-keyed caches are invalidated.  Rewriting coordinates
    /// or densities in place while every point keeps its slot needs no
    /// bump: no generation-keyed cache reads them (the streaming engine
    /// refreshes the plan's SoA mirror itself).  Such an update must keep
    /// the structure ([`Octree::structure`]); a structural change is a
    /// rebuild.
    pub fn bump_generation(&mut self) {
        self.generation = next_stamp();
    }

    /// Node index of a box address, if the box exists.
    pub fn find(&self, id: &BoxId) -> Option<usize> {
        self.index.get(id).copied()
    }

    /// The deepest existing ancestor-or-self of a box address.
    pub fn find_or_ancestor(&self, id: &BoxId) -> Option<usize> {
        let mut cur = *id;
        loop {
            if let Some(i) = self.find(&cur) {
                return Some(i);
            }
            cur = cur.parent()?;
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Depth of the tree (max level present).
    pub fn depth(&self) -> u8 {
        (self.levels.len() - 1) as u8
    }

    /// Indices of all leaf nodes.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].is_leaf()).collect()
    }

    /// The existing same-level neighbors (colleagues) of node `ni`,
    /// excluding itself.
    pub fn colleagues(&self, ni: usize) -> Vec<usize> {
        let id = self.nodes[ni].id;
        let max = 1i64 << id.level;
        let mut out = Vec::new();
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
                    let nid = BoxId { level: id.level, x: nx as u32, y: ny as u32, z: nz as u32 };
                    if let Some(i) = self.find(&nid) {
                        out.push(i);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compat::rng::StdRng;

    fn random_points(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect()
    }

    fn build(n: usize, q: usize) -> Octree {
        let pts = random_points(n, 42);
        let den = vec![1.0; n];
        Octree::build(&pts, &den, q)
    }

    #[test]
    fn all_leaves_respect_q() {
        let t = build(2000, 50);
        for n in &t.nodes {
            if n.is_leaf() {
                assert!(n.num_points() <= 50, "leaf holds {}", n.num_points());
                assert!(n.num_points() > 0, "empty leaves are pruned");
            }
        }
    }

    #[test]
    fn leaves_partition_the_points() {
        let t = build(1234, 40);
        let mut covered = vec![false; 1234];
        for &li in &t.leaves() {
            let (s, e) = t.nodes[li].point_range;
            for i in s..e {
                assert!(!covered[i], "point {i} owned by two leaves");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn permutation_is_a_bijection_and_consistent() {
        let pts = random_points(500, 7);
        let den: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let t = Octree::build(&pts, &den, 30);
        let mut seen = vec![false; 500];
        for (i, &orig) in t.permutation.iter().enumerate() {
            assert!(!seen[orig]);
            seen[orig] = true;
            assert_eq!(t.points[i], pts[orig]);
            assert_eq!(t.densities[i], den[orig]);
        }
    }

    #[test]
    fn children_follow_parents() {
        let t = build(3000, 60);
        for (i, n) in t.nodes.iter().enumerate() {
            if let Some(p) = n.parent {
                assert!(p < i, "top-down scan order");
                assert!(t.nodes[p].id.contains(&n.id));
            }
        }
    }

    #[test]
    fn points_lie_inside_their_boxes() {
        let t = build(800, 25);
        for n in &t.nodes {
            let (s, e) = n.point_range;
            for p in &t.points[s..e] {
                for d in 0..3 {
                    assert!(
                        (p[d] - n.center[d]).abs() <= n.half_width * (1.0 + 1e-9),
                        "point escapes box"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_points_build_nearly_uniform_tree() {
        let t = build(4096, 64);
        // 4096/64 = 64 boxes minimum; uniform points should reach level 2–3.
        assert!(t.depth() >= 2);
        assert!(t.num_leaves() >= 64);
    }

    #[test]
    fn single_box_when_q_large() {
        let t = build(100, 1000);
        assert_eq!(t.nodes.len(), 1);
        assert!(t.nodes[0].is_leaf());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn adjacency_same_level() {
        let a = BoxId { level: 2, x: 1, y: 1, z: 1 };
        assert!(a.adjacent(&BoxId { level: 2, x: 2, y: 2, z: 2 }), "corner touch");
        assert!(a.adjacent(&a), "self-adjacent");
        assert!(!a.adjacent(&BoxId { level: 2, x: 3, y: 1, z: 1 }), "gap of one box");
    }

    #[test]
    fn adjacency_across_levels() {
        let coarse = BoxId { level: 1, x: 0, y: 0, z: 0 };
        let fine_inside = BoxId { level: 3, x: 1, y: 2, z: 3 };
        assert!(coarse.adjacent(&fine_inside), "containment counts as touching");
        let fine_touching = BoxId { level: 3, x: 4, y: 0, z: 0 };
        assert!(coarse.adjacent(&fine_touching));
        let fine_far = BoxId { level: 3, x: 6, y: 0, z: 0 };
        assert!(!coarse.adjacent(&fine_far));
    }

    #[test]
    fn find_or_ancestor_walks_up() {
        let t = build(100, 30);
        let deep = BoxId { level: 9, x: 100, y: 200, z: 300 };
        let found = t.find_or_ancestor(&deep).unwrap();
        assert!(t.nodes[found].id.contains(&deep));
    }

    #[test]
    fn colleagues_are_adjacent_same_level() {
        let t = build(5000, 40);
        for &ni in &t.levels[t.depth() as usize - 1] {
            for c in t.colleagues(ni) {
                assert_eq!(t.nodes[c].id.level, t.nodes[ni].id.level);
                assert!(t.nodes[c].id.adjacent(&t.nodes[ni].id));
                assert_ne!(c, ni);
            }
        }
    }

    #[test]
    fn clustered_points_build_deep_adaptive_tree() {
        // Two tight clusters force deep refinement locally.
        let mut pts = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            pts.push([
                0.1 + rng.random::<f64>() * 1e-3,
                0.1 + rng.random::<f64>() * 1e-3,
                0.1 + rng.random::<f64>() * 1e-3,
            ]);
        }
        for _ in 0..500 {
            pts.push([rng.random(), rng.random(), rng.random()]);
        }
        let t = Octree::build(&pts, &vec![1.0; 1000], 32);
        assert!(t.depth() >= 5, "clusters force depth, got {}", t.depth());
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn empty_input_rejected() {
        let _ = Octree::build(&[], &[], 10);
    }

    fn assert_trees_identical(a: &Octree, b: &Octree, what: &str) {
        assert_eq!(a.nodes.len(), b.nodes.len(), "{what}: node count");
        for (i, (na, nb)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            assert_eq!(na.id, nb.id, "{what}: node {i} id");
            assert_eq!(na.parent, nb.parent, "{what}: node {i} parent");
            assert_eq!(na.children, nb.children, "{what}: node {i} children");
            assert_eq!(na.point_range, nb.point_range, "{what}: node {i} range");
            for d in 0..3 {
                assert_eq!(
                    na.center[d].to_bits(),
                    nb.center[d].to_bits(),
                    "{what}: node {i} center[{d}]"
                );
            }
            assert_eq!(na.half_width.to_bits(), nb.half_width.to_bits(), "{what}: node {i} hw");
        }
        assert_eq!(a.permutation, b.permutation, "{what}: permutation");
        assert_eq!(a.levels, b.levels, "{what}: levels");
        for (pa, pb) in a.points.iter().zip(&b.points) {
            for d in 0..3 {
                assert_eq!(pa[d].to_bits(), pb[d].to_bits(), "{what}: permuted point");
            }
        }
        for (da, db) in a.densities.iter().zip(&b.densities) {
            assert_eq!(da.to_bits(), db.to_bits(), "{what}: permuted density");
        }
    }

    #[test]
    fn parallel_build_is_bitwise_identical_to_sequential() {
        // Uniform (hits the across-box batch path), big-Q (hits the
        // within-box parallel sort on the root), and clustered (deep
        // adaptive refinement, mixed paths + MAX_LEVEL guard).
        let uniform = random_points(3000, 11);
        let mut clustered = random_points(600, 12);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..1400 {
            clustered.push([
                0.25 + rng.random::<f64>() * 1e-4,
                0.5 + rng.random::<f64>() * 1e-4,
                0.75 + rng.random::<f64>() * 1e-4,
            ]);
        }
        for (pts, q, what) in [
            (&uniform, 32usize, "uniform"),
            (&uniform, 2000, "big-q"),
            (&clustered, 16, "clustered"),
        ] {
            let den: Vec<f64> = (0..pts.len()).map(|i| i as f64 * 0.5 - 1.0).collect();
            let seq = Octree::build_sequential(pts, &den, q);
            for threads in [1usize, 2, 3, 4, 8] {
                compat::par::set_thread_count(Some(threads));
                let par_tree = Octree::build(pts, &den, q);
                assert_trees_identical(&par_tree, &seq, &format!("{what}@{threads}"));
            }
            compat::par::set_thread_count(None);
        }
    }
}
