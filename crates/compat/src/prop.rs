//! A property-testing microframework with seeded generators and
//! failure-case shrinking.
//!
//! Replaces `proptest` for the workspace's test suites: the macro
//! surface (`proptest!`, `prop_assert!`, `prop_assert_eq!`,
//! `prop_oneof!`) and the strategy combinators the tests use
//! (`prop_map`, `prop_filter`, `prop_flat_map`, `collection::vec`,
//! `array::uniform7`, `option::of`, `bool::ANY`, `Just`, ranges and
//! tuples/arrays of strategies) are drop-in compatible.
//!
//! Each test's generator is seeded from an FNV-1a hash of the test's
//! full path, so runs are deterministic across machines and
//! invocations while distinct tests draw independent streams.  On
//! failure the input is shrunk by binary search (scalars), tail
//! truncation (collections), and per-component descent (tuples) before
//! the panic reports the minimal failing case.

// The core lives in an inner module because this module declares a
// child module named `bool`, which would otherwise shadow the
// primitive type throughout the file.
pub use self::imp::*;

mod imp {
    use crate::rng::StdRng;
    use std::rc::Rc;

    // -----------------------------------------------------------------
    // Core traits
    // -----------------------------------------------------------------

    /// A generated value plus the state needed to shrink it.
    pub trait ValueTree {
        /// The value's type.
        type Value;

        /// The value at the current shrink position.
        fn current(&self) -> Self::Value;

        /// Moves one step toward a simpler value; `false` when exhausted.
        fn simplify(&mut self) -> bool;

        /// Backs off the last simplification (the simpler value passed
        /// the test); `false` when there is nowhere to return to.
        fn complicate(&mut self) -> bool;
    }

    /// A boxed, type-erased shrink tree.
    pub type BoxTree<T> = Box<dyn ValueTree<Value = T>>;

    /// A recipe for generating (and shrinking) values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value from `rng`, packaged with its shrink state.
        fn new_tree(&self, rng: &mut StdRng) -> BoxTree<Self::Value>;

        /// Transforms generated values with `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            U: 'static,
            F: Fn(Self::Value) -> U + 'static,
        {
            Map { source: self, f: Rc::new(f) }
        }

        /// Discards generated values rejected by `pred`.
        ///
        /// `whence` labels the filter in the panic raised when the
        /// rejection rate makes generation infeasible.
        fn prop_filter<F>(self, whence: impl Into<String>, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool + 'static,
        {
            Filter { source: self, whence: whence.into(), pred: Rc::new(pred) }
        }

        /// Derives a second strategy from each generated value.
        ///
        /// Shrinking only descends into the derived strategy's tree —
        /// the outer value stays fixed, which keeps dependent pairs
        /// (such as a length and a vector of that length) consistent.
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2 + 'static,
        {
            FlatMap { source: self, f }
        }

        /// Erases the strategy's concrete type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// A type-erased strategy (what `prop_oneof!` arms become).
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_tree(&self, rng: &mut StdRng) -> BoxTree<T> {
            self.0.new_tree(rng)
        }
    }

    // -----------------------------------------------------------------
    // Scalar strategies: Just, integer ranges, float ranges
    // -----------------------------------------------------------------

    /// A strategy producing one fixed value (never shrinks).
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    struct JustTree<T: Clone>(T);

    impl<T: Clone> ValueTree for JustTree<T> {
        type Value = T;
        fn current(&self) -> T {
            self.0.clone()
        }
        fn simplify(&mut self) -> bool {
            false
        }
        fn complicate(&mut self) -> bool {
            false
        }
    }

    impl<T: Clone + 'static> Strategy for Just<T> {
        type Value = T;
        fn new_tree(&self, _rng: &mut StdRng) -> BoxTree<T> {
            Box::new(JustTree(self.0.clone()))
        }
    }

    /// Integer types an `IntTree` can represent (all fit in `i128`).
    pub trait IntValue: Copy + 'static {
        /// Converts from the tree's internal representation.
        fn from_i128(x: i128) -> Self;
        /// Converts into the tree's internal representation.
        fn to_i128(self) -> i128;
    }

    macro_rules! int_value {
        ($($t:ty),*) => {$(
            impl IntValue for $t {
                #[inline]
                fn from_i128(x: i128) -> $t { x as $t }
                #[inline]
                fn to_i128(self) -> i128 { self as i128 }
            }
        )*};
    }
    int_value!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Binary-search shrinker for integers: halves the distance to the
    /// range's lower bound while the test keeps failing.
    struct IntTree<T> {
        lo: i128,
        curr: i128,
        hi: i128,
        _t: std::marker::PhantomData<T>,
    }

    impl<T: IntValue> ValueTree for IntTree<T> {
        type Value = T;
        fn current(&self) -> T {
            T::from_i128(self.curr)
        }
        fn simplify(&mut self) -> bool {
            if self.curr == self.lo {
                return false;
            }
            self.hi = self.curr;
            self.curr = self.lo + (self.curr - self.lo) / 2;
            true
        }
        fn complicate(&mut self) -> bool {
            if self.curr >= self.hi {
                return false;
            }
            self.lo = self.curr + 1;
            self.curr = self.lo + (self.hi - self.lo) / 2;
            true
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_tree(&self, rng: &mut StdRng) -> BoxTree<$t> {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let v = rng.random_range(self.start..self.end);
                    Box::new(IntTree::<$t> {
                        lo: self.start.to_i128(),
                        curr: v.to_i128(),
                        hi: v.to_i128(),
                        _t: std::marker::PhantomData,
                    })
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Bisection shrinker for floats: midpoints toward the range's
    /// lower bound, step-capped so the search always terminates.
    struct F64Tree {
        lo: f64,
        curr: f64,
        hi: f64,
        steps: u32,
    }

    impl ValueTree for F64Tree {
        type Value = f64;
        fn current(&self) -> f64 {
            self.curr
        }
        fn simplify(&mut self) -> bool {
            if self.steps >= 64 || self.curr == self.lo {
                return false;
            }
            let candidate = self.lo + (self.curr - self.lo) / 2.0;
            if candidate == self.curr {
                return false;
            }
            self.steps += 1;
            self.hi = self.curr;
            self.curr = candidate;
            true
        }
        fn complicate(&mut self) -> bool {
            if self.steps >= 64 {
                return false;
            }
            let candidate = self.curr + (self.hi - self.curr) / 2.0;
            if candidate == self.curr {
                return false;
            }
            self.steps += 1;
            self.lo = self.curr;
            self.curr = candidate;
            true
        }
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn new_tree(&self, rng: &mut StdRng) -> BoxTree<f64> {
            assert!(self.start < self.end, "empty float range strategy");
            let v = rng.random_range(self.start..self.end);
            Box::new(F64Tree { lo: self.start, curr: v, hi: v, steps: 0 })
        }
    }

    // -----------------------------------------------------------------
    // Combinators: Map, Filter, FlatMap, Union
    // -----------------------------------------------------------------

    /// The strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: Rc<F>,
    }

    struct MapTree<T, F> {
        inner: BoxTree<T>,
        f: Rc<F>,
    }

    impl<T, U, F: Fn(T) -> U> ValueTree for MapTree<T, F> {
        type Value = U;
        fn current(&self) -> U {
            (self.f)(self.inner.current())
        }
        fn simplify(&mut self) -> bool {
            self.inner.simplify()
        }
        fn complicate(&mut self) -> bool {
            self.inner.complicate()
        }
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        S::Value: 'static,
        U: 'static,
        F: Fn(S::Value) -> U + 'static,
    {
        type Value = U;
        fn new_tree(&self, rng: &mut StdRng) -> BoxTree<U> {
            Box::new(MapTree { inner: self.source.new_tree(rng), f: Rc::clone(&self.f) })
        }
    }

    /// The strategy returned by [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        source: S,
        whence: String,
        pred: Rc<F>,
    }

    struct FilterTree<T, F> {
        inner: BoxTree<T>,
        pred: Rc<F>,
    }

    impl<T, F: Fn(&T) -> bool> ValueTree for FilterTree<T, F> {
        type Value = T;
        fn current(&self) -> T {
            self.inner.current()
        }
        fn simplify(&mut self) -> bool {
            // Only accept simplifications that still satisfy the
            // filter; step back immediately when one does not.
            if self.inner.simplify() {
                if (self.pred)(&self.inner.current()) {
                    true
                } else {
                    let _ = self.inner.complicate();
                    false
                }
            } else {
                false
            }
        }
        fn complicate(&mut self) -> bool {
            self.inner.complicate()
        }
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        S::Value: 'static,
        F: Fn(&S::Value) -> bool + 'static,
    {
        type Value = S::Value;
        fn new_tree(&self, rng: &mut StdRng) -> BoxTree<S::Value> {
            for _ in 0..256 {
                let tree = self.source.new_tree(rng);
                if (self.pred)(&tree.current()) {
                    return Box::new(FilterTree { inner: tree, pred: Rc::clone(&self.pred) });
                }
            }
            panic!("prop_filter `{}` rejected 256 consecutive draws", self.whence);
        }
    }

    /// The strategy returned by [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2 + 'static,
    {
        type Value = S2::Value;
        fn new_tree(&self, rng: &mut StdRng) -> BoxTree<S2::Value> {
            let outer = self.source.new_tree(rng).current();
            (self.f)(outer).new_tree(rng)
        }
    }

    /// Chooses uniformly among alternative strategies (`prop_oneof!`).
    pub struct Union<T>(Vec<BoxedStrategy<T>>);

    impl<T> Union<T> {
        /// Builds a union over `arms` (must be non-empty).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union(arms)
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_tree(&self, rng: &mut StdRng) -> BoxTree<T> {
            let idx = rng.random_range(0..self.0.len());
            self.0[idx].new_tree(rng)
        }
    }

    // -----------------------------------------------------------------
    // Compound strategies: tuples and arrays
    // -----------------------------------------------------------------

    /// Shrinks tuples one component at a time, resuming at the
    /// component last worked on.
    macro_rules! tuple_strategy {
        ($tree:ident: $($S:ident . $idx:tt),+) => {
            struct $tree<$($S),+> {
                trees: ($(BoxTree<$S>,)+),
                last: usize,
            }

            impl<$($S: 'static),+> ValueTree for $tree<$($S),+> {
                type Value = ($($S,)+);
                fn current(&self) -> Self::Value {
                    ($(self.trees.$idx.current(),)+)
                }
                fn simplify(&mut self) -> bool {
                    let n = [$($idx),+].len();
                    for off in 0..n {
                        let i = (self.last + off) % n;
                        let moved = match i {
                            $($idx => self.trees.$idx.simplify(),)+
                            _ => unreachable!(),
                        };
                        if moved {
                            self.last = i;
                            return true;
                        }
                    }
                    false
                }
                fn complicate(&mut self) -> bool {
                    match self.last {
                        $($idx => self.trees.$idx.complicate(),)+
                        _ => false,
                    }
                }
            }

            impl<$($S),+> Strategy for ($($S,)+)
            where
                $($S: Strategy, $S::Value: 'static,)+
            {
                type Value = ($($S::Value,)+);
                fn new_tree(&self, rng: &mut StdRng) -> BoxTree<Self::Value> {
                    Box::new($tree { trees: ($(self.$idx.new_tree(rng),)+), last: 0 })
                }
            }
        };
    }

    tuple_strategy!(Tuple1Tree: A.0);
    tuple_strategy!(Tuple2Tree: A.0, B.1);
    tuple_strategy!(Tuple3Tree: A.0, B.1, C.2);
    tuple_strategy!(Tuple4Tree: A.0, B.1, C.2, D.3);
    tuple_strategy!(Tuple5Tree: A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(Tuple6Tree: A.0, B.1, C.2, D.3, E.4, F.5);
    tuple_strategy!(Tuple7Tree: A.0, B.1, C.2, D.3, E.4, F.5, G.6);
    tuple_strategy!(Tuple8Tree: A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

    struct ArrayTree<T, const N: usize> {
        trees: Vec<BoxTree<T>>,
        last: usize,
    }

    impl<T: 'static, const N: usize> ValueTree for ArrayTree<T, N> {
        type Value = [T; N];
        fn current(&self) -> [T; N] {
            std::array::from_fn(|i| self.trees[i].current())
        }
        fn simplify(&mut self) -> bool {
            for off in 0..N {
                let i = (self.last + off) % N;
                if self.trees[i].simplify() {
                    self.last = i;
                    return true;
                }
            }
            false
        }
        fn complicate(&mut self) -> bool {
            self.trees[self.last].complicate()
        }
    }

    impl<S, const N: usize> Strategy for [S; N]
    where
        S: Strategy,
        S::Value: 'static,
    {
        type Value = [S::Value; N];
        fn new_tree(&self, rng: &mut StdRng) -> BoxTree<[S::Value; N]> {
            Box::new(ArrayTree::<S::Value, N> {
                trees: self.iter().map(|s| s.new_tree(rng)).collect(),
                last: 0,
            })
        }
    }

    // -----------------------------------------------------------------
    // Runner
    // -----------------------------------------------------------------

    /// Per-test configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
        /// Cap on shrink iterations after the first failure.
        pub max_shrink_iters: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases (other fields default).
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases, ..Default::default() }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256, max_shrink_iters: 1024 }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property does not hold for this input.
        Fail(String),
        /// The input should not count toward the case budget.
        Reject(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejection with the given reason.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    pub(super) fn fnv1a(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn run_one<V, F>(test: &F, value: V) -> Result<(), TestCaseError>
    where
        F: Fn(V) -> Result<(), TestCaseError>,
    {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| test(value))) {
            Ok(outcome) => outcome,
            Err(payload) => {
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "test panicked".to_string()
                };
                Err(TestCaseError::Fail(format!("panic: {msg}")))
            }
        }
    }

    /// Drives one property: generates `config.cases` inputs from a
    /// deterministic per-test seed, runs `test` on each, and on failure
    /// shrinks before panicking with the minimal failing input.
    pub fn run_proptest<S, F>(config: &ProptestConfig, name: &str, strategy: &S, test: F)
    where
        S: Strategy,
        S::Value: std::fmt::Debug,
        F: Fn(S::Value) -> Result<(), TestCaseError>,
    {
        let mut rng = StdRng::seed_from_u64(fnv1a(name));
        let mut rejects = 0u32;
        let mut case = 0u32;
        while case < config.cases {
            let mut tree = strategy.new_tree(&mut rng);
            match run_one(&test, tree.current()) {
                Ok(()) => {
                    case += 1;
                }
                Err(TestCaseError::Reject(why)) => {
                    rejects += 1;
                    assert!(
                        rejects < 4 * config.cases.max(64),
                        "{name}: too many rejected inputs (last: {why})"
                    );
                }
                Err(TestCaseError::Fail(first_msg)) => {
                    // Shrink: simplify while the test still fails, back
                    // off when a simplification passes, and keep the
                    // smallest input that failed.
                    let mut best_value = tree.current();
                    let mut best_msg = first_msg;
                    let mut iters = 0u32;
                    let mut last_failed = true;
                    while iters < config.max_shrink_iters {
                        iters += 1;
                        let moved = if last_failed { tree.simplify() } else { tree.complicate() };
                        if !moved {
                            break;
                        }
                        match run_one(&test, tree.current()) {
                            Err(TestCaseError::Fail(msg)) => {
                                best_value = tree.current();
                                best_msg = msg;
                                last_failed = true;
                            }
                            _ => {
                                last_failed = false;
                            }
                        }
                    }
                    panic!(
                        "proptest `{name}` failed after {case} passing case(s)\n\
                         minimal failing input: {best_value:#?}\n\
                         error: {best_msg}"
                    );
                }
            }
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{BoxTree, Strategy, ValueTree};
    use crate::rng::StdRng;

    /// A uniformly random boolean (shrinks toward `false`).
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The canonical boolean strategy, `proptest::bool::ANY`-style.
    pub const ANY: Any = Any;

    struct BoolTree {
        curr: core::primitive::bool,
        orig: core::primitive::bool,
    }

    impl ValueTree for BoolTree {
        type Value = core::primitive::bool;
        fn current(&self) -> core::primitive::bool {
            self.curr
        }
        fn simplify(&mut self) -> core::primitive::bool {
            if self.curr {
                self.curr = false;
                true
            } else {
                false
            }
        }
        fn complicate(&mut self) -> core::primitive::bool {
            if self.curr != self.orig {
                self.curr = self.orig;
                true
            } else {
                false
            }
        }
    }

    impl Strategy for Any {
        type Value = core::primitive::bool;
        fn new_tree(&self, rng: &mut StdRng) -> BoxTree<core::primitive::bool> {
            let v: core::primitive::bool = rng.random();
            Box::new(BoolTree { curr: v, orig: v })
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::{BoxTree, Strategy, ValueTree};
    use crate::rng::StdRng;

    /// The strategy returned by [`of`].
    pub struct OptionStrategy<S>(S);

    struct OptionTree<T> {
        inner: BoxTree<T>,
        present: bool,
        orig_present: bool,
    }

    impl<T> ValueTree for OptionTree<T> {
        type Value = Option<T>;
        fn current(&self) -> Option<T> {
            if self.present {
                Some(self.inner.current())
            } else {
                None
            }
        }
        fn simplify(&mut self) -> bool {
            if self.present {
                if self.inner.simplify() {
                    true
                } else {
                    self.present = false;
                    true
                }
            } else {
                false
            }
        }
        fn complicate(&mut self) -> bool {
            if !self.present && self.orig_present {
                self.present = true;
                true
            } else if self.present {
                self.inner.complicate()
            } else {
                false
            }
        }
    }

    /// Generates `None` half the time, `Some(element)` otherwise.
    /// Shrinks `Some` values inward and then to `None`.
    pub fn of<S: Strategy>(element: S) -> OptionStrategy<S> {
        OptionStrategy(element)
    }

    impl<S> Strategy for OptionStrategy<S>
    where
        S: Strategy,
        S::Value: 'static,
    {
        type Value = Option<S::Value>;
        fn new_tree(&self, rng: &mut StdRng) -> BoxTree<Option<S::Value>> {
            let present = rng.random_bool(0.5);
            Box::new(OptionTree { inner: self.0.new_tree(rng), present, orig_present: present })
        }
    }
}

/// Fixed-size arrays of one repeated strategy.
pub mod array {
    use super::Strategy;

    /// Seven independent draws from `element`, as a `[T; 7]`.
    pub fn uniform7<S: Strategy + Clone>(element: S) -> [S; 7] {
        std::array::from_fn(|_| element.clone())
    }
}

/// Collection strategies.
pub mod collection {
    use super::{BoxTree, Strategy, ValueTree};
    use crate::rng::StdRng;

    /// A half-open length range for [`vec`](fn@vec); converts from `usize`
    /// (exact length) and `Range<usize>`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        /// Minimum length (inclusive).
        pub lo: usize,
        /// Maximum length (exclusive).
        pub hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// The strategy returned by [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector of `size` draws from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Shrinks by truncating the tail toward the minimum length, then
    /// by shrinking the surviving elements in turn.
    struct VecTree<T> {
        trees: Vec<BoxTree<T>>,
        len: usize,
        min_len: usize,
        elem: usize,
        last_was_len: bool,
    }

    impl<T: 'static> ValueTree for VecTree<T> {
        type Value = Vec<T>;
        fn current(&self) -> Vec<T> {
            self.trees[..self.len].iter().map(|t| t.current()).collect()
        }
        fn simplify(&mut self) -> bool {
            if self.len > self.min_len {
                self.len -= 1;
                self.last_was_len = true;
                return true;
            }
            while self.elem < self.len {
                if self.trees[self.elem].simplify() {
                    self.last_was_len = false;
                    return true;
                }
                self.elem += 1;
            }
            false
        }
        fn complicate(&mut self) -> bool {
            if self.last_was_len {
                // The shorter vector passed: the dropped element
                // mattered.  Restore it and stop length shrinking.
                self.len += 1;
                self.min_len = self.len;
                true
            } else if self.elem < self.len {
                self.trees[self.elem].complicate()
            } else {
                false
            }
        }
    }

    impl<S> Strategy for VecStrategy<S>
    where
        S: Strategy,
        S::Value: 'static,
    {
        type Value = Vec<S::Value>;
        fn new_tree(&self, rng: &mut StdRng) -> BoxTree<Vec<S::Value>> {
            let len = if self.size.lo + 1 == self.size.hi {
                self.size.lo
            } else {
                rng.random_range(self.size.lo..self.size.hi)
            };
            let trees = (0..len).map(|_| self.element.new_tree(rng)).collect();
            Box::new(VecTree { trees, len, min_len: self.size.lo, elem: 0, last_was_len: false })
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests: each `fn name(pat in strategy, ...) { .. }`
/// becomes a `#[test]` that generates inputs, checks the body, and
/// shrinks failures.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($config); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::prop::ProptestConfig::default()); $($rest)*);
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr); $(#[$meta:meta])* fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::prop::run_proptest(
                &$config,
                concat!(module_path!(), "::", stringify!($name)),
                &($($strat,)+),
                |($($pat,)+)| -> ::std::result::Result<(), $crate::prop::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_impl!(($config); $($rest)*);
    };
    (($config:expr);) => {};
}

/// Fails the current property case when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::prop::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current property case when the operands differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` != `{:?}`", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Picks uniformly among alternative strategies with a common value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::prop::Union::new(vec![$($crate::prop::Strategy::boxed($arm)),+])
    };
}

/// The flat import surface mirroring `proptest::prelude`.
pub mod prelude {
    pub use super::{BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, Union};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{collection, fnv1a, run_proptest};
    use crate::rng::StdRng;

    #[test]
    fn generation_is_deterministic_per_name() {
        let strat = collection::vec(0u64..1000, 3usize..10);
        let draw = |name: &str| {
            let mut rng = StdRng::seed_from_u64(fnv1a(name));
            strat.new_tree(&mut rng).current()
        };
        assert_eq!(draw("a::b"), draw("a::b"));
        assert_ne!(draw("a::b"), draw("a::c"));
    }

    #[test]
    fn shrinking_finds_boundary_counterexample() {
        // Property `x < 500` over 0..10_000 must shrink to exactly 500.
        let failure = std::panic::catch_unwind(|| {
            run_proptest(
                &ProptestConfig::with_cases(64),
                "shrink_to_500",
                &(0u32..10_000,),
                |(x,)| {
                    crate::prop_assert!(x < 500, "x = {x}");
                    Ok(())
                },
            );
        })
        .expect_err("property must fail");
        let msg = failure.downcast_ref::<String>().expect("panic carries a String");
        assert!(msg.contains("minimal failing input"), "{msg}");
        assert!(msg.contains("x = 500"), "should shrink to the boundary: {msg}");
    }

    #[test]
    fn vec_shrinks_toward_min_length() {
        let failure = std::panic::catch_unwind(|| {
            run_proptest(
                &ProptestConfig::with_cases(64),
                "vec_len",
                &(collection::vec(0u8..10, 0usize..20),),
                |(v,)| {
                    crate::prop_assert!(v.len() < 5, "len = {}", v.len());
                    Ok(())
                },
            );
        })
        .expect_err("property must fail");
        let msg = failure.downcast_ref::<String>().expect("panic carries a String");
        // The minimal counterexample is any 5-element vector.
        assert!(msg.contains("len = 5"), "{msg}");
    }

    #[test]
    fn filter_constrains_generation() {
        run_proptest(
            &ProptestConfig::with_cases(128),
            "filter",
            &((0u32..100).prop_filter("even", |x| x % 2 == 0),),
            |(x,)| {
                crate::prop_assert!(x % 2 == 0);
                Ok(())
            },
        );
    }

    #[test]
    fn flat_map_keeps_dependent_values_consistent() {
        run_proptest(
            &ProptestConfig::with_cases(64),
            "flat_map",
            &((1usize..8).prop_flat_map(|n| (Just(n), collection::vec(0.0f64..1.0, n))),),
            |((n, v),)| {
                crate::prop_assert_eq!(n, v.len());
                Ok(())
            },
        );
    }

    #[test]
    fn oneof_covers_all_arms() {
        let strat = crate::prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[strat.new_tree(&mut rng).current() as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_surface_round_trips(
            a in 0u32..100,
            b in -1.0f64..1.0,
            flag in crate::prop::bool::ANY,
            opt in crate::prop::option::of(0usize..9),
            arr in crate::prop::array::uniform7(0.0f64..1.0),
        ) {
            prop_assert!(a < 100);
            prop_assert!((-1.0..1.0).contains(&b));
            let _ = flag;
            if let Some(x) = opt {
                prop_assert!(x < 9);
            }
            for x in arr {
                prop_assert!((0.0..1.0).contains(&x), "arr member {x}");
            }
            if a == u32::MAX {
                return Ok(());
            }
        }
    }
}
