//! Offline stand-in for `rayon`.
//!
//! The workspace builds with no network and no vendored registry, so —
//! like the sibling `rand`, `proptest` and `criterion` shims — this
//! crate implements exactly the API subset the repo uses: parallel
//! iteration over owned collections and slices with order-preserving
//! `map(..).collect()`, `rayon::join`, `current_num_threads`, and a
//! `ThreadPoolBuilder`/`ThreadPool::install` pair for pinning the
//! worker count. Swapping back to the real crate is a one-line change
//! in the root `Cargo.toml`.
//!
//! Scheduling model: items are claimed one at a time from a shared
//! queue by `current_num_threads()` scoped `std` threads (dynamic load
//! balancing, like rayon's work stealing for coarse tasks), and results
//! are reassembled in input order, so `collect()` is deterministic
//! regardless of interleaving. With one worker the driver degenerates
//! to a plain serial loop on the calling thread.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    /// Worker-count override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads parallel operations will use: the
/// innermost [`ThreadPool::install`] override, else `RAYON_NUM_THREADS`,
/// else `std::thread::available_parallelism()`.
pub fn current_num_threads() -> usize {
    if let Some(n) = POOL_THREADS.with(Cell::get) {
        return n.max(1);
    }
    if let Some(n) = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().expect("rayon::join closure panicked");
        (ra, rb)
    })
}

/// Error type of [`ThreadPoolBuilder::build`] (never produced here).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the worker count (0 means "use the default").
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Builds the pool.
    ///
    /// # Errors
    /// Never fails in the shim; the `Result` mirrors rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A handle that scopes parallel operations to a fixed worker count.
///
/// The shim holds no persistent workers; [`ThreadPool::install`] simply
/// pins [`current_num_threads`] for the closure's dynamic extent, and
/// scoped threads are spawned per operation.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    /// Runs `f` with this pool's worker count in force.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.num_threads.unwrap_or_else(current_num_threads);
        let prev = POOL_THREADS.with(|c| c.replace(Some(n)));
        let out = f();
        POOL_THREADS.with(|c| c.set(prev));
        out
    }

    /// Worker count operations under [`ThreadPool::install`] will use.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads.unwrap_or_else(current_num_threads)
    }
}

/// Order-preserving parallel map driver: every combinator bottoms out
/// here. Items are claimed from a shared queue; results carry their
/// input index and are reassembled in order.
fn drive<T: Send, R: Send>(items: Vec<T>, f: &(dyn Fn(T) -> R + Sync)) -> Vec<R> {
    let n = items.len();
    let workers = current_num_threads().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let next = queue.lock().expect("queue poisoned").next();
                        match next {
                            Some((i, item)) => local.push((i, f(item))),
                            None => break,
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("rayon worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

pub mod iter {
    //! The parallel-iterator subset: `into_par_iter`/`par_iter` on
    //! vectors and slices, `map`, `for_each`, and `collect` into `Vec`.

    use super::drive;

    /// A parallel iterator over owned items.
    pub struct IntoParIter<T: Send> {
        items: Vec<T>,
    }

    /// A parallel iterator produced by [`ParallelIterator::map`].
    pub struct Map<I, F> {
        base: I,
        f: F,
    }

    /// Types convertible into a parallel iterator over owned items.
    pub trait IntoParallelIterator {
        /// Item type.
        type Item: Send;
        /// Iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Converts `self` into a parallel iterator.
        fn into_par_iter(self) -> Self::Iter;
    }

    /// Types whose references yield a parallel iterator (`par_iter`).
    pub trait IntoParallelRefIterator<'a> {
        /// Item type (a shared reference).
        type Item: Send + 'a;
        /// Iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Parallel iterator over `&self`'s items.
        fn par_iter(&'a self) -> Self::Iter;
    }

    /// The operations shared by every parallel iterator.
    pub trait ParallelIterator: Sized {
        /// Item type.
        type Item: Send;

        /// Consumes the iterator into a `Vec`, preserving input order.
        fn into_vec(self) -> Vec<Self::Item>;

        /// Maps every item through `f` (evaluated on the workers).
        fn map<R: Send, F>(self, f: F) -> Map<Self, F>
        where
            F: Fn(Self::Item) -> R + Sync + Send,
        {
            Map { base: self, f }
        }

        /// Runs `f` on every item.
        fn for_each<F>(self, f: F)
        where
            F: Fn(Self::Item) + Sync + Send,
        {
            let _ = self.map(f).into_vec();
        }

        /// Collects into `C` (via `Vec`, preserving input order).
        fn collect<C: FromParallelVec<Self::Item>>(self) -> C {
            C::from_parallel_vec(self.into_vec())
        }

        /// Number of items (consumes the iterator).
        fn count(self) -> usize {
            self.into_vec().len()
        }
    }

    /// `collect()` target types.
    pub trait FromParallelVec<T> {
        /// Builds `Self` from the order-preserved result vector.
        fn from_parallel_vec(v: Vec<T>) -> Self;
    }

    impl<T> FromParallelVec<T> for Vec<T> {
        fn from_parallel_vec(v: Vec<T>) -> Self {
            v
        }
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        type Iter = IntoParIter<T>;
        fn into_par_iter(self) -> IntoParIter<T> {
            IntoParIter { items: self }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = &'a T;
        type Iter = IntoParIter<&'a T>;
        fn par_iter(&'a self) -> Self::Iter {
            IntoParIter {
                items: self.iter().collect(),
            }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = &'a T;
        type Iter = IntoParIter<&'a T>;
        fn par_iter(&'a self) -> Self::Iter {
            IntoParIter {
                items: self.iter().collect(),
            }
        }
    }

    impl<T: Send> ParallelIterator for IntoParIter<T> {
        type Item = T;
        fn into_vec(self) -> Vec<T> {
            self.items
        }
    }

    impl<I, R, F> ParallelIterator for Map<I, F>
    where
        I: ParallelIterator,
        R: Send,
        F: Fn(I::Item) -> R + Sync + Send,
    {
        type Item = R;
        fn into_vec(self) -> Vec<R> {
            drive(self.base.into_vec(), &self.f)
        }
    }
}

pub mod prelude {
    //! Glob-import surface matching `rayon::prelude`.
    pub use crate::iter::{
        FromParallelVec, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..100).collect();
        let out: Vec<u64> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_slice() {
        let v = vec![1u32, 2, 3];
        let out: Vec<u32> = v.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn install_pins_worker_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        let nested = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            assert_eq!(current_num_threads(), 3);
            nested.install(|| assert_eq!(current_num_threads(), 1));
            assert_eq!(current_num_threads(), 3);
        });
    }

    #[test]
    fn parallel_equals_serial() {
        let pool4 = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let pool1 = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let work = || -> Vec<u64> {
            (0u64..64)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|x| x.wrapping_mul(0x9e37_79b9).rotate_left(7))
                .collect()
        };
        assert_eq!(pool4.install(work), pool1.install(work));
    }
}
