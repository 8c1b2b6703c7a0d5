//! FFT-accelerated M2L (the V-list phase).
//!
//! Because the KIFMM's equivalent/check surface points are the boundary
//! nodes of a regular `p³` lattice, the M2L operator for a same-level box
//! offset `t` is a discrete convolution: the check potential at target
//! node `g_i` is `Σ_j K(g_i − g_j − c(t)) · q_j`, and `g_i − g_j` ranges
//! over a `(2p−1)³` difference lattice.  Embedding densities in an
//! `m = 2p` cube and precomputing one kernel tableau spectrum per unique
//! offset turns every translation into a pointwise spectral
//! multiply-accumulate, with one forward FFT per source box and one
//! inverse FFT per target box.
//!
//! This is the paper's "the V list approximates interactions with far
//! neighbors through FFTs and vector additions" — an intrinsically
//! low-arithmetic-intensity, bandwidth-bound computation, in contrast to
//! the compute-bound U list.

use crate::kernel::Kernel;
use crate::lists::{v_offset_code, InteractionLists, V_OFFSET_CODES};
use crate::operators::Offset;
use crate::surface::{surface_lattice_coords, RADIUS_INNER};
use crate::tree::Octree;
use compat::par;
use dvfs_fft::{fft3_inplace, ifft3_inplace, Complex, FftPlan, Spectrum3};

/// Sentinel for "no spectrum" in the dense index.
const NO_SPECTRUM: u32 = u32::MAX;

/// A kernel-tableau spectrum stored as split real/imaginary planes over
/// the compact Hermitian half-grid.
///
/// The frequency-domain multiply-accumulate is the V phase's hot loop,
/// and it is memory-bandwidth-bound: each translation streams the source
/// spectrum, the kernel spectrum, and the accumulator.  Two layout
/// choices cut that traffic:
///
/// * **Split planes.** Separate `re`/`im` arrays turn the complex
///   multiply into four independent FMA streams with no interleaving
///   shuffles.
/// * **Hermitian half-grid.** Every spectrum here comes from a real
///   signal (kernel tableaus and embedded densities), so
///   `F(-k) = conj(F(k))` and only `z ∈ [0, m/2]` needs to be stored —
///   `(m/2 + 1)/m` of the grid, compacted so the savings are real cache
///   lines, not just skipped lanes.  The full cube is reconstructed once
///   per target right before the inverse transform.
struct SplitSpectrum {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SplitSpectrum {
    /// Compacts a full `m³` spectrum to the `z <= m/2` half-grid.
    fn from_complex(freq: &[Complex], m: usize) -> Self {
        let h = m / 2;
        let hlen = m * m * (h + 1);
        let mut re = Vec::with_capacity(hlen);
        let mut im = Vec::with_capacity(hlen);
        for x in 0..m {
            for y in 0..m {
                for z in 0..=h {
                    let v = freq[x * m * m + y * m + z];
                    re.push(v.re);
                    im.push(v.im);
                }
            }
        }
        SplitSpectrum { re, im }
    }
}

/// Precomputed FFT M2L state for one (kernel, tree, order) triple.
pub struct FftM2l {
    /// Surface order.
    pub p: usize,
    /// Convolution grid edge (`2p`).
    pub m: usize,
    plan: FftPlan,
    coords: Vec<(usize, usize, usize)>,
    /// Spectrum payloads, addressed through `index`.
    spectra: Vec<SplitSpectrum>,
    /// The `(level, offset)` key of each entry in `spectra` — kept for
    /// introspection and tests.
    keys: Vec<(u8, Offset)>,
    /// Dense `level → offset-code → handle` table.  The V accumulate
    /// runs once per (target, source) pair, so the lookup must be two
    /// array indexes, not a hash.
    index: Vec<[u32; V_OFFSET_CODES]>,
}

impl FftM2l {
    /// Builds kernel-tableau spectra for every (level, offset) realized
    /// by the tree's V lists, building the lists first.
    pub fn build<K: Kernel>(kernel: &K, tree: &Octree, p: usize) -> Self {
        Self::build_with_lists(kernel, tree, &InteractionLists::build(tree), p)
    }

    /// Like [`FftM2l::build`], for the tree's already-built `lists`.
    ///
    /// The keys are collected serially in first-occurrence order
    /// ([`InteractionLists::v_offsets`]) and their spectra computed on
    /// the pool by an order-preserving map, so the arena is identical
    /// at any thread count.
    pub fn build_with_lists<K: Kernel>(
        kernel: &K,
        tree: &Octree,
        lists: &InteractionLists,
        p: usize,
    ) -> Self {
        assert!(p.is_power_of_two() && p >= 2, "surface order must be a power of two");
        let m = 2 * p;
        let plan = FftPlan::new(m).expect("m = 2p is a power of two");
        let coords = surface_lattice_coords(p);
        let root_hw = tree.nodes[0].half_width;
        let keys = lists.v_offsets(tree);
        let spectra = par::par_map_vec(keys.clone(), &|(level, off): (u8, Offset)| {
            let hw = root_hw / (1u64 << level) as f64;
            let tableau = Self::kernel_tableau(kernel, p, m, hw, off);
            let spec = Spectrum3::new(&tableau, m, &plan).expect("tableau spectrum");
            SplitSpectrum::from_complex(spec.as_slice(), m)
        });
        let mut index = vec![[NO_SPECTRUM; V_OFFSET_CODES]; tree.depth() as usize + 1];
        for (handle, &(level, off)) in keys.iter().enumerate() {
            let code = v_offset_code(off).expect("V offsets lie in [-3, 3]³");
            index[level as usize][code] = handle as u32;
        }
        FftM2l { p, m, plan, coords, spectra, keys, index }
    }

    /// The `(level, offset)` key of every realized spectrum, in build
    /// order (parallel to the internal spectrum arena).
    pub fn keys(&self) -> &[(u8, Offset)] {
        &self.keys
    }

    /// Resolves a `(level, offset)` key to its spectrum, if realized.
    #[inline]
    fn lookup(&self, level: u8, off: Offset) -> Option<&SplitSpectrum> {
        let code = v_offset_code(off)?;
        let row = self.index.get(level as usize)?;
        let h = row[code];
        if h == NO_SPECTRUM {
            None
        } else {
            Some(&self.spectra[h as usize])
        }
    }

    /// The circular kernel tableau for one offset: `T[d] = K(d·s − c)`
    /// where `d` spans `[−(p−1), p−1]³`, `s` is the surface lattice
    /// spacing, and `c` is the source-box center offset.
    fn kernel_tableau<K: Kernel>(
        kernel: &K,
        p: usize,
        m: usize,
        hw: f64,
        off: Offset,
    ) -> Vec<Complex> {
        let spacing = 2.0 * RADIUS_INNER * hw / (p - 1) as f64;
        let width = 2.0 * hw;
        let c = [off.0 as f64 * width, off.1 as f64 * width, off.2 as f64 * width];
        let mut tableau = vec![Complex::ZERO; m * m * m];
        let range = (p as i64 - 1).max(0);
        for dx in -range..=range {
            for dy in -range..=range {
                for dz in -range..=range {
                    let x = [
                        dx as f64 * spacing - c[0],
                        dy as f64 * spacing - c[1],
                        dz as f64 * spacing - c[2],
                    ];
                    let v = kernel.eval(x, [0.0; 3]);
                    let ix = ((dx + m as i64) % m as i64) as usize;
                    let iy = ((dy + m as i64) % m as i64) as usize;
                    let iz = ((dz + m as i64) % m as i64) as usize;
                    tableau[ix * m * m + iy * m + iz] = Complex::real(v);
                }
            }
        }
        tableau
    }

    /// Grid cells per cube (`m³`).
    pub fn grid_len(&self) -> usize {
        self.m * self.m * self.m
    }

    /// Number of precomputed spectra.
    pub fn spectrum_count(&self) -> usize {
        self.spectra.len()
    }

    /// Embeds a source box's equivalent densities in the convolution grid
    /// and returns its forward transform (done once per source box).
    pub fn source_spectrum(&self, equiv_densities: &[f64]) -> Vec<Complex> {
        assert_eq!(equiv_densities.len(), self.coords.len());
        let m = self.m;
        let mut grid = vec![Complex::ZERO; self.grid_len()];
        for (&(i, j, k), &q) in self.coords.iter().zip(equiv_densities) {
            grid[i * m * m + j * m + k] = Complex::real(q);
        }
        fft3_inplace(&mut grid, m, &self.plan).expect("forward fft");
        grid
    }

    /// Like [`FftM2l::source_spectrum`], but writes the transform into a
    /// caller-provided buffer of length [`FftM2l::grid_len`] — the
    /// allocation-free form the evaluator's spectrum arena uses.
    pub fn source_spectrum_into(&self, equiv_densities: &[f64], grid: &mut [Complex]) {
        assert_eq!(equiv_densities.len(), self.coords.len());
        assert_eq!(grid.len(), self.grid_len());
        let m = self.m;
        grid.fill(Complex::ZERO);
        for (&(i, j, k), &q) in self.coords.iter().zip(equiv_densities) {
            grid[i * m * m + j * m + k] = Complex::real(q);
        }
        fft3_inplace(grid, m, &self.plan).expect("forward fft");
    }

    /// Compact Hermitian half-grid length: `m · m · (m/2 + 1)`.
    ///
    /// All split-plane spectra ([`FftM2l::source_spectrum_half_into`],
    /// [`FftM2l::accumulate_split`], …) use this layout: `z` restricted
    /// to `[0, m/2]` with stride `m/2 + 1`, valid because every signal
    /// involved is real so `F(-k) = conj(F(k))`.
    pub fn half_len(&self) -> usize {
        self.m * self.m * (self.m / 2 + 1)
    }

    #[inline]
    fn half_idx(m: usize, x: usize, y: usize, z: usize) -> usize {
        let h1 = m / 2 + 1;
        (x * m + y) * h1 + z
    }

    /// Forward-transforms one box's (real) equivalent densities into
    /// split half-grid planes `r`/`i` (length [`FftM2l::half_len`]),
    /// using `scratch` (length [`FftM2l::grid_len`]) for the complex
    /// transform.
    pub fn source_spectrum_half_into(
        &self,
        equiv_densities: &[f64],
        scratch: &mut [Complex],
        r: &mut [f64],
        i: &mut [f64],
    ) {
        self.source_spectrum_into(equiv_densities, scratch);
        let m = self.m;
        let h = m / 2;
        assert_eq!(r.len(), self.half_len());
        assert_eq!(i.len(), self.half_len());
        for x in 0..m {
            for y in 0..m {
                for z in 0..=h {
                    let v = scratch[x * m * m + y * m + z];
                    let hi = Self::half_idx(m, x, y, z);
                    r[hi] = v.re;
                    i[hi] = v.im;
                }
            }
        }
    }

    /// Two-for-one forward transform straight to split half-grids: the
    /// spectra of `d1` and `d2` land in `(r1, i1)` and `(r2, i2)` (each
    /// of length [`FftM2l::half_len`]), with `scratch` holding the packed
    /// complex grid.  One complex FFT transforms both real inputs; the
    /// conjugate-symmetry separation is evaluated only on the stored
    /// half-grid.
    #[allow(clippy::too_many_arguments)]
    pub fn source_spectrum_half_pair_into(
        &self,
        d1: &[f64],
        d2: &[f64],
        scratch: &mut [Complex],
        r1: &mut [f64],
        i1: &mut [f64],
        r2: &mut [f64],
        i2: &mut [f64],
    ) {
        assert_eq!(d1.len(), self.coords.len());
        assert_eq!(d2.len(), self.coords.len());
        assert_eq!(scratch.len(), self.grid_len());
        let hlen = self.half_len();
        assert_eq!(r1.len(), hlen);
        assert_eq!(i1.len(), hlen);
        assert_eq!(r2.len(), hlen);
        assert_eq!(i2.len(), hlen);
        let m = self.m;
        let h = m / 2;
        scratch.fill(Complex::ZERO);
        for ((&(i, j, k), &a), &b) in self.coords.iter().zip(d1).zip(d2) {
            scratch[i * m * m + j * m + k] = Complex::new(a, b);
        }
        fft3_inplace(scratch, m, &self.plan).expect("forward fft");
        // Split by conjugate symmetry (`F1 = (F[k] + conj(F[−k]))/2`,
        // `F2 = (F[k] − conj(F[−k]))/(2i)`), only where stored.
        for x in 0..m {
            let nx = (m - x) % m;
            for y in 0..m {
                let ny = (m - y) % m;
                for z in 0..=h {
                    let nz = (m - z) % m;
                    let fk = scratch[x * m * m + y * m + z];
                    let fnk = scratch[nx * m * m + ny * m + nz].conj();
                    let hi = Self::half_idx(m, x, y, z);
                    let sum = fk + fnk;
                    r1[hi] = sum.re * 0.5;
                    i1[hi] = sum.im * 0.5;
                    let diff = fk - fnk;
                    r2[hi] = diff.im * 0.5;
                    i2[hi] = -diff.re * 0.5;
                }
            }
        }
    }

    /// Like [`FftM2l::finish`], but inverse-transforms `acc` in place and
    /// *adds* the surface-node values into `out` (length = surface point
    /// count) — letting the evaluator accumulate straight into its
    /// `down_check` arena slice.
    pub fn finish_acc_into(&self, acc: &mut [Complex], out: &mut [f64]) {
        assert_eq!(out.len(), self.coords.len());
        assert_eq!(acc.len(), self.grid_len());
        let m = self.m;
        ifft3_inplace(acc, m, &self.plan).expect("inverse fft");
        for (&(i, j, k), o) in self.coords.iter().zip(out.iter_mut()) {
            *o += acc[i * m * m + j * m + k].re;
        }
    }

    /// Accumulates one translation in the frequency domain:
    /// `acc += spectrum(level, off) ⊙ src`.
    ///
    /// Returns false (and leaves `acc` untouched) when the offset has no
    /// precomputed spectrum — callers fall back to the dense operator.
    pub fn accumulate(
        &self,
        level: u8,
        off: Offset,
        src_spectrum: &[Complex],
        acc: &mut [Complex],
    ) -> bool {
        let Some(spec) = self.lookup(level, off) else { return false };
        let n = self.grid_len();
        assert_eq!(src_spectrum.len(), n);
        assert_eq!(acc.len(), n);
        let m = self.m;
        let h = m / 2;
        for x in 0..m {
            for y in 0..m {
                for z in 0..m {
                    // Reconstruct the kernel value from the stored
                    // half-grid (`K(-k) = conj(K(k))` — the tableau is
                    // real).
                    let k = if z <= h {
                        let hi = Self::half_idx(m, x, y, z);
                        Complex::new(spec.re[hi], spec.im[hi])
                    } else {
                        let hi = Self::half_idx(m, (m - x) % m, (m - y) % m, m - z);
                        Complex::new(spec.re[hi], -spec.im[hi])
                    };
                    let i = x * m * m + y * m + z;
                    let s = src_spectrum[i];
                    acc[i].re += s.re * k.re - s.im * k.im;
                    acc[i].im += s.re * k.im + s.im * k.re;
                }
            }
        }
        true
    }

    /// The split-plane twin of [`FftM2l::accumulate`]: source and
    /// accumulator are separate re/im half-grids of length
    /// [`FftM2l::half_len`].  This is the V phase's hot loop — four
    /// independent FMA streams over compacted arrays, no interleaving
    /// shuffles and ~40% fewer bytes than the full cube.
    pub fn accumulate_split(
        &self,
        level: u8,
        off: Offset,
        src_re: &[f64],
        src_im: &[f64],
        acc_re: &mut [f64],
        acc_im: &mut [f64],
    ) -> bool {
        let Some(spec) = self.lookup(level, off) else { return false };
        let n = self.half_len();
        let kr = &spec.re[..n];
        let ki = &spec.im[..n];
        let sr = &src_re[..n];
        let si = &src_im[..n];
        let ar = &mut acc_re[..n];
        let ai = &mut acc_im[..n];
        for i in 0..n {
            ar[i] += sr[i] * kr[i] - si[i] * ki[i];
            ai[i] += sr[i] * ki[i] + si[i] * kr[i];
        }
        true
    }

    /// Expands a split half-grid accumulator to the full complex cube
    /// (by Hermitian symmetry, into the caller's `scratch`),
    /// inverse-transforms it, and *adds* the surface-node values into
    /// `out` — the split-path twin of [`FftM2l::finish_acc_into`].
    pub fn finish_split_acc_into(
        &self,
        acc_re: &[f64],
        acc_im: &[f64],
        scratch: &mut [Complex],
        out: &mut [f64],
    ) {
        assert_eq!(acc_re.len(), self.half_len());
        assert_eq!(acc_im.len(), self.half_len());
        assert_eq!(scratch.len(), self.grid_len());
        let m = self.m;
        let h = m / 2;
        for x in 0..m {
            for y in 0..m {
                for z in 0..=h {
                    let hi = Self::half_idx(m, x, y, z);
                    scratch[x * m * m + y * m + z] = Complex::new(acc_re[hi], acc_im[hi]);
                }
                for z in (h + 1)..m {
                    let hi = Self::half_idx(m, (m - x) % m, (m - y) % m, m - z);
                    scratch[x * m * m + y * m + z] = Complex::new(acc_re[hi], -acc_im[hi]);
                }
            }
        }
        self.finish_acc_into(scratch, out);
    }

    /// Two-for-one inverse: finishes *two* targets' split half-grid
    /// accumulators with a single inverse transform.
    ///
    /// Both accumulators come from (nearly) Hermitian spectra, so their
    /// inverse transforms are real up to rounding; packing `C = A + i·B`
    /// and inverse-transforming once yields `ifft(A)` in the real part
    /// and `ifft(B)` in the imaginary part.  Surface-node values are
    /// *added* into `out_a` / `out_b`.  Each output absorbs the other's
    /// rounding-level imaginary residue (~1e-16 relative) — far below
    /// the scheme's truncation error, and deterministic as long as the
    /// caller pairs targets in a fixed order.
    #[allow(clippy::too_many_arguments)]
    pub fn finish_split_acc_pair_into(
        &self,
        a_re: &[f64],
        a_im: &[f64],
        b_re: &[f64],
        b_im: &[f64],
        scratch: &mut [Complex],
        out_a: &mut [f64],
        out_b: &mut [f64],
    ) {
        let hlen = self.half_len();
        assert_eq!(a_re.len(), hlen);
        assert_eq!(a_im.len(), hlen);
        assert_eq!(b_re.len(), hlen);
        assert_eq!(b_im.len(), hlen);
        assert_eq!(scratch.len(), self.grid_len());
        assert_eq!(out_a.len(), self.coords.len());
        assert_eq!(out_b.len(), self.coords.len());
        let m = self.m;
        let h = m / 2;
        // C(k) = A(k) + i·B(k), with A and B Hermitian-expanded on the fly:
        // stored half (z <= h) directly, mirrored half via conj.
        for x in 0..m {
            for y in 0..m {
                for z in 0..=h {
                    let hi = Self::half_idx(m, x, y, z);
                    scratch[x * m * m + y * m + z] =
                        Complex::new(a_re[hi] - b_im[hi], a_im[hi] + b_re[hi]);
                }
                for z in (h + 1)..m {
                    let hi = Self::half_idx(m, (m - x) % m, (m - y) % m, m - z);
                    scratch[x * m * m + y * m + z] =
                        Complex::new(a_re[hi] + b_im[hi], -a_im[hi] + b_re[hi]);
                }
            }
        }
        ifft3_inplace(scratch, m, &self.plan).expect("inverse fft");
        for (&(i, j, k), (oa, ob)) in self.coords.iter().zip(out_a.iter_mut().zip(out_b.iter_mut()))
        {
            let c = scratch[i * m * m + j * m + k];
            *oa += c.re;
            *ob += c.im;
        }
    }

    /// Transforms *two* boxes' (real) equivalent densities with a single
    /// complex FFT — the classic two-for-one trick: transform
    /// `d1 + i·d2` and separate the spectra using conjugate symmetry
    /// (`F1[k] = (F[k] + conj(F[−k]))/2`, `F2[k] = (F[k] − conj(F[−k]))/(2i)`).
    ///
    /// Halves the forward-transform cost of the V phase; the result is
    /// identical (to rounding) to two [`FftM2l::source_spectrum`] calls.
    pub fn source_spectrum_pair(&self, d1: &[f64], d2: &[f64]) -> (Vec<Complex>, Vec<Complex>) {
        assert_eq!(d1.len(), self.coords.len());
        assert_eq!(d2.len(), self.coords.len());
        let m = self.m;
        let mut grid = vec![Complex::ZERO; self.grid_len()];
        for ((&(i, j, k), &a), &b) in self.coords.iter().zip(d1).zip(d2) {
            grid[i * m * m + j * m + k] = Complex::new(a, b);
        }
        fft3_inplace(&mut grid, m, &self.plan).expect("forward fft");
        // Split by conjugate symmetry: index negation mod m per axis.
        let len = self.grid_len();
        let mut f1 = vec![Complex::ZERO; len];
        let mut f2 = vec![Complex::ZERO; len];
        for x in 0..m {
            let nx = (m - x) % m;
            for y in 0..m {
                let ny = (m - y) % m;
                for z in 0..m {
                    let nz = (m - z) % m;
                    let fk = grid[x * m * m + y * m + z];
                    let fnk = grid[nx * m * m + ny * m + nz].conj();
                    let idx = x * m * m + y * m + z;
                    f1[idx] = (fk + fnk).scale(0.5);
                    // (F[k] − conj(F[−k])) / (2i) = −i/2 · (F[k] − conj(F[−k])).
                    let diff = fk - fnk;
                    f2[idx] = Complex::new(diff.im * 0.5, -diff.re * 0.5);
                }
            }
        }
        (f1, f2)
    }

    /// Inverse-transforms an accumulated frequency-domain grid and
    /// extracts the check potentials at the surface nodes.
    pub fn finish(&self, mut acc: Vec<Complex>) -> Vec<f64> {
        let m = self.m;
        ifft3_inplace(&mut acc, m, &self.plan).expect("inverse fft");
        self.coords.iter().map(|&(i, j, k)| acc[i * m * m + j * m + k].re).collect()
    }

    /// A zeroed frequency-domain accumulator.
    pub fn new_accumulator(&self) -> Vec<Complex> {
        vec![Complex::ZERO; self.grid_len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaplaceKernel;
    use crate::operators::OperatorCache;
    use crate::tree::Octree;
    use compat::rng::StdRng;

    fn small_tree(seed: u64) -> Octree {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<[f64; 3]> =
            (0..3000).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
        Octree::build(&pts, &vec![1.0; 3000], 60)
    }

    #[test]
    fn fft_m2l_matches_dense_m2l() {
        // The decisive correctness test: for every (level, offset) the
        // tree realizes, the spectral path must reproduce the dense
        // operator's check potentials.
        let kernel = LaplaceKernel;
        let tree = small_tree(1);
        let p = 4;
        let fft = FftM2l::build(&kernel, &tree, p);
        let ops = OperatorCache::build(&kernel, &tree, p);
        let mut rng = StdRng::seed_from_u64(9);
        let ns = crate::surface::surface_point_count(p);
        let densities: Vec<f64> = (0..ns).map(|_| rng.random::<f64>() - 0.5).collect();
        let src_spec = fft.source_spectrum(&densities);
        let mut tested = 0;
        for &(level, off) in fft.keys.iter().take(24) {
            let dense = ops.m2l(level, off).expect("dense twin exists");
            let mut expected = vec![0.0; ns];
            dense.apply_into(&densities, &mut expected);
            let mut acc = fft.new_accumulator();
            assert!(fft.accumulate(level, off, &src_spec, &mut acc));
            let got = fft.finish(acc);
            for (g, e) in got.iter().zip(&expected) {
                assert!(
                    (g - e).abs() < 1e-10 * (1.0 + e.abs()),
                    "level {level} off {off:?}: {g} vs {e}"
                );
            }
            tested += 1;
        }
        assert!(tested > 0);
    }

    #[test]
    fn accumulation_is_linear() {
        let kernel = LaplaceKernel;
        let tree = small_tree(2);
        let p = 4;
        let fft = FftM2l::build(&kernel, &tree, p);
        let &(level, off) = fft.keys.first().expect("non-empty");
        let ns = crate::surface::surface_point_count(p);
        let d1: Vec<f64> = (0..ns).map(|i| i as f64).collect();
        let d2: Vec<f64> = (0..ns).map(|i| (i * i % 7) as f64).collect();
        let s1 = fft.source_spectrum(&d1);
        let s2 = fft.source_spectrum(&d2);
        // Two sources accumulated into one grid == sum of individual runs.
        let mut acc = fft.new_accumulator();
        fft.accumulate(level, off, &s1, &mut acc);
        fft.accumulate(level, off, &s2, &mut acc);
        let combined = fft.finish(acc);
        let mut acc1 = fft.new_accumulator();
        fft.accumulate(level, off, &s1, &mut acc1);
        let r1 = fft.finish(acc1);
        let mut acc2 = fft.new_accumulator();
        fft.accumulate(level, off, &s2, &mut acc2);
        let r2 = fft.finish(acc2);
        for i in 0..ns {
            assert!((combined[i] - r1[i] - r2[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn two_for_one_spectra_match_individual_transforms() {
        let kernel = LaplaceKernel;
        let tree = small_tree(8);
        let p = 4;
        let fft = FftM2l::build(&kernel, &tree, p);
        let ns = crate::surface::surface_point_count(p);
        let mut rng = StdRng::seed_from_u64(77);
        let d1: Vec<f64> = (0..ns).map(|_| rng.random::<f64>() - 0.5).collect();
        let d2: Vec<f64> = (0..ns).map(|_| 2.0 * rng.random::<f64>()).collect();
        let (f1, f2) = fft.source_spectrum_pair(&d1, &d2);
        let r1 = fft.source_spectrum(&d1);
        let r2 = fft.source_spectrum(&d2);
        for i in 0..f1.len() {
            assert!((f1[i].re - r1[i].re).abs() < 1e-10 && (f1[i].im - r1[i].im).abs() < 1e-10);
            assert!((f2[i].re - r2[i].re).abs() < 1e-10 && (f2[i].im - r2[i].im).abs() < 1e-10);
        }
    }

    #[test]
    fn into_variants_match_allocating_forms_bitwise() {
        let kernel = LaplaceKernel;
        let tree = small_tree(6);
        let p = 4;
        let fft = FftM2l::build(&kernel, &tree, p);
        let ns = crate::surface::surface_point_count(p);
        let mut rng = StdRng::seed_from_u64(21);
        let d1: Vec<f64> = (0..ns).map(|_| rng.random::<f64>() - 0.5).collect();

        // source_spectrum_into ≡ source_spectrum.
        let alloc = fft.source_spectrum(&d1);
        let mut into = vec![Complex::new(3.0, 4.0); fft.grid_len()]; // stale garbage
        fft.source_spectrum_into(&d1, &mut into);
        for (a, b) in alloc.iter().zip(&into) {
            assert_eq!(a.re, b.re);
            assert_eq!(a.im, b.im);
        }

        // finish_acc_into accumulates exactly finish()'s values.
        let &(level, off) = fft.keys.first().expect("non-empty");
        let mut acc = fft.new_accumulator();
        assert!(fft.accumulate(level, off, &alloc, &mut acc));
        let expected = fft.finish(acc.clone());
        let mut out: Vec<f64> = (0..ns).map(|i| i as f64).collect();
        fft.finish_acc_into(&mut acc, &mut out);
        for (i, (o, e)) in out.iter().zip(&expected).enumerate() {
            assert_eq!(*o, i as f64 + e, "accumulates on top of prior contents");
        }
    }

    #[test]
    fn half_grid_split_path_matches_full_grid_path() {
        // The production V pipeline (half-grid split spectra, split
        // accumulate, Hermitian expansion) must agree with the reference
        // full-grid complex pipeline.
        let kernel = LaplaceKernel;
        let tree = small_tree(6);
        let p = 4;
        let fft = FftM2l::build(&kernel, &tree, p);
        let ns = crate::surface::surface_point_count(p);
        let hlen = fft.half_len();
        assert!(hlen < fft.grid_len());
        let mut rng = StdRng::seed_from_u64(22);
        let d1: Vec<f64> = (0..ns).map(|_| rng.random::<f64>() - 0.5).collect();
        let d2: Vec<f64> = (0..ns).map(|_| rng.random::<f64>() + 0.25).collect();

        // Half spectra: the single form stores exactly the full
        // transform's z <= m/2 entries; the pair form matches the
        // allocating pair split on those entries bitwise.
        let mut scratch = vec![Complex::ZERO; fft.grid_len()];
        let (mut r1, mut i1) = (vec![0.0; hlen], vec![0.0; hlen]);
        let (mut r2, mut i2) = (vec![0.0; hlen], vec![0.0; hlen]);
        fft.source_spectrum_half_pair_into(
            &d1,
            &d2,
            &mut scratch,
            &mut r1,
            &mut i1,
            &mut r2,
            &mut i2,
        );
        let (f1, f2) = fft.source_spectrum_pair(&d1, &d2);
        let m = fft.m;
        let h = m / 2;
        for x in 0..m {
            for y in 0..m {
                for z in 0..=h {
                    let full = x * m * m + y * m + z;
                    let half = FftM2l::half_idx(m, x, y, z);
                    assert_eq!(f1[full].re, r1[half]);
                    assert_eq!(f1[full].im, i1[half]);
                    assert_eq!(f2[full].re, r2[half]);
                    assert_eq!(f2[full].im, i2[half]);
                }
            }
        }
        let (mut rs, mut is) = (vec![0.0; hlen], vec![0.0; hlen]);
        fft.source_spectrum_half_into(&d1, &mut scratch, &mut rs, &mut is);
        let full1 = fft.source_spectrum(&d1);
        for x in 0..m {
            for y in 0..m {
                for z in 0..=h {
                    let hi = FftM2l::half_idx(m, x, y, z);
                    assert_eq!(full1[x * m * m + y * m + z].re, rs[hi]);
                    assert_eq!(full1[x * m * m + y * m + z].im, is[hi]);
                }
            }
        }

        // Split accumulate + Hermitian finish ≈ full-grid accumulate +
        // finish (the half path drops the rounding-level Hermitian
        // asymmetry of the kernel spectrum, so tolerance, not bits).
        let &(level, off) = fft.keys.first().expect("non-empty");
        let (mut acc_re, mut acc_im) = (vec![0.0; hlen], vec![0.0; hlen]);
        assert!(fft.accumulate_split(level, off, &r1, &i1, &mut acc_re, &mut acc_im));
        assert!(fft.accumulate_split(level, off, &r2, &i2, &mut acc_re, &mut acc_im));
        let mut got = vec![0.0; ns];
        fft.finish_split_acc_into(&acc_re, &acc_im, &mut scratch, &mut got);
        let mut acc = fft.new_accumulator();
        assert!(fft.accumulate(level, off, &f1, &mut acc));
        assert!(fft.accumulate(level, off, &f2, &mut acc));
        let expected = fft.finish(acc);
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-10 * (1.0 + e.abs()), "{g} vs {e}");
        }

        // Two-for-one inverse: one packed transform finishes two
        // accumulators, matching the single-target path to rounding.
        let (mut b_re, mut b_im) = (vec![0.0; hlen], vec![0.0; hlen]);
        assert!(fft.accumulate_split(level, off, &r2, &i2, &mut b_re, &mut b_im));
        let mut single_a = vec![0.0; ns];
        fft.finish_split_acc_into(&acc_re, &acc_im, &mut scratch, &mut single_a);
        let mut single_b = vec![0.0; ns];
        fft.finish_split_acc_into(&b_re, &b_im, &mut scratch, &mut single_b);
        let mut pair_a = vec![0.0; ns];
        let mut pair_b = vec![0.0; ns];
        fft.finish_split_acc_pair_into(
            &acc_re,
            &acc_im,
            &b_re,
            &b_im,
            &mut scratch,
            &mut pair_a,
            &mut pair_b,
        );
        for i in 0..ns {
            assert!((pair_a[i] - single_a[i]).abs() < 1e-12 * (1.0 + single_a[i].abs()));
            assert!((pair_b[i] - single_b[i]).abs() < 1e-12 * (1.0 + single_b[i].abs()));
        }
    }

    #[test]
    fn unknown_offset_reports_false() {
        let kernel = LaplaceKernel;
        let tree = small_tree(3);
        let fft = FftM2l::build(&kernel, &tree, 4);
        let src = fft.source_spectrum(&vec![0.0; crate::surface::surface_point_count(4)]);
        let mut acc = fft.new_accumulator();
        assert!(!fft.accumulate(7, (9, 9, 9), &src, &mut acc));
    }

    #[test]
    fn spectra_cover_all_v_offsets() {
        let kernel = LaplaceKernel;
        let tree = small_tree(4);
        let fft = FftM2l::build(&kernel, &tree, 4);
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
                assert!(fft.lookup(tid.level, off).is_some());
            }
        }
        // At most 7³ − 3³ = 316 offsets per level exist.
        assert!(fft.spectrum_count() <= 316 * (tree.depth() as usize + 1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_order_rejected() {
        let tree = small_tree(5);
        let _ = FftM2l::build(&LaplaceKernel, &tree, 3);
    }
}
