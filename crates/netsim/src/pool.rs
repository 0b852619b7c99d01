//! A deterministic `std::thread` worker pool for embarrassingly parallel
//! simulation work.
//!
//! The experiment harness and the market simulator both fan independent
//! jobs (experiment arms, pre-drawn exchange sessions) across threads and
//! reassemble the results **in submission order**, so the output of
//! [`parallel_map`] is bit-identical for every thread count — parallelism
//! changes wall-clock time, never results. [`parallel_fold`] is the same
//! loop without the output vector: it folds each result on the calling
//! thread as soon as its turn comes, in submission order. The build
//! environment has no crates.io access, so this is plain
//! `std::thread::scope` + channels rather than rayon.
//!
//! Thread-count resolution is layered: an explicit per-call request wins,
//! then a process-wide override ([`set_default_threads`], set e.g. by the
//! `repro --threads` flag), then the `TRUSTEX_THREADS` environment
//! variable, then [`std::thread::available_parallelism`].
//!
//! # Examples
//!
//! ```
//! use trustex_netsim::pool::parallel_map;
//! let squares = parallel_map(4, (0..100u64).collect(), |i, x| (i as u64) + x * x);
//! assert_eq!(squares[7], 7 + 49);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
use std::thread;

/// Process-wide default thread count; 0 means "not set".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default thread count (0 clears the override,
/// falling back to `TRUSTEX_THREADS` / detected parallelism).
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::SeqCst);
}

/// The process-wide default thread count: the [`set_default_threads`]
/// override if set, else `TRUSTEX_THREADS` if parseable and non-zero,
/// else the detected hardware parallelism (at least 1).
pub fn default_threads() -> usize {
    let forced = DEFAULT_THREADS.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    static ENV: OnceLock<usize> = OnceLock::new();
    let env = *ENV.get_or_init(|| {
        std::env::var("TRUSTEX_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0)
    });
    if env > 0 {
        return env;
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves a requested thread count: 0 means "use the default".
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        default_threads()
    } else {
        requested
    }
}

/// Maps `f` over `items` on up to `threads` worker threads and returns
/// the results **in input order** — bit-identical to the sequential map
/// for any thread count. `f` receives `(index, item)`.
///
/// Jobs are pulled from a shared queue, so uneven job costs balance
/// across workers. A panic in any job propagates to the caller.
pub fn parallel_map<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let out = Vec::with_capacity(items.len());
    parallel_fold(threads, items, f, out, |mut out, v| {
        out.push(v);
        out
    })
}

/// Maps `f` over `items` on up to `threads` worker threads and folds the
/// results into `init` with `fold` **in input order**, on the calling
/// thread, while later jobs still run — bit-identical to
/// `items.map(f).fold(init, fold)` for any thread count, including for
/// a `fold` whose result depends on association (a float sum). `f`
/// receives `(index, item)`.
///
/// A result is folded as soon as every earlier one has been; only the
/// results that finish ahead of their turn are held, in a reorder
/// window behind the fold's cursor. Jobs are pulled from a shared
/// queue, so uneven job costs balance across workers. A panic in any
/// job propagates to the caller.
///
/// # Examples
///
/// ```
/// use trustex_netsim::pool::parallel_fold;
/// let sum = parallel_fold(4, (1..=100u64).collect(), |_, x| x * x, 0, |acc, sq| acc + sq);
/// assert_eq!(sum, 338_350);
/// ```
pub fn parallel_fold<I, T, A, F, G>(threads: usize, items: Vec<I>, f: F, init: A, mut fold: G) -> A
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
    G: FnMut(A, T) -> A,
{
    let n = items.len();
    let workers = resolve_threads(threads).min(n.max(1));
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .fold(init, |acc, (i, x)| fold(acc, f(i, x)));
    }

    let (job_tx, job_rx) = mpsc::channel::<(usize, I)>();
    for pair in items.into_iter().enumerate() {
        job_tx.send(pair).expect("queue jobs");
    }
    drop(job_tx);
    let job_rx = Mutex::new(job_rx);
    let (res_tx, res_rx) = mpsc::channel::<(usize, T)>();

    thread::scope(|scope| {
        for _ in 0..workers {
            let res_tx = res_tx.clone();
            let job_rx = &job_rx;
            let f = &f;
            scope.spawn(move || loop {
                // Hold the queue lock only for the pop, not the job.
                let job = job_rx.lock().expect("job queue lock").try_recv();
                match job {
                    Ok((i, x)) => {
                        if res_tx.send((i, f(i, x))).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            });
        }
        drop(res_tx);
        // `early[i]` holds result `i` while an earlier one is missing.
        let mut early: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut next = 0;
        let mut acc = init;
        for (i, v) in res_rx {
            if i != next {
                early[i] = Some(v);
                continue;
            }
            acc = fold(acc, v);
            next += 1;
            while let Some(v) = early.get_mut(next).and_then(Option::take) {
                acc = fold(acc, v);
                next += 1;
            }
        }
        assert_eq!(next, n, "every job delivers exactly one result");
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(threads, items.clone(), |_, x| x * 3 + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn index_matches_position() {
        let got = parallel_map(4, vec!['a', 'b', 'c'], |i, c| format!("{i}{c}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn empty_input() {
        let got: Vec<u8> = parallel_map(8, Vec::<u8>::new(), |_, x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn uneven_job_costs_balance() {
        // Front-loaded heavy jobs must not perturb output order.
        let items: Vec<u64> = (0..64).collect();
        let got = parallel_map(8, items, |_, x| {
            let spins = if x < 4 { 20_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in got.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    /// Spins for a cost that depends on `i`, so jobs finish out of
    /// submission order on real threads, then returns `x`.
    fn uneven(i: usize, x: f64) -> f64 {
        let spins = if i.is_multiple_of(7) {
            20_000
        } else {
            10 * (i % 3)
        };
        let mut acc = i as u64;
        for _ in 0..spins {
            acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        std::hint::black_box(acc);
        x
    }

    /// A float sum depends on association (`1e16 + 1.0` rounds back to
    /// `1e16`), so any fold out of item order shows in the bits.
    #[test]
    fn fold_is_the_sequential_fold_bit_for_bit() {
        let items: Vec<f64> = (0..203)
            .map(|i| match i % 4 {
                0 => 1e16,
                1 => 1.0 + i as f64 / 1024.0,
                2 => -1e16,
                _ => 1.0,
            })
            .collect();
        let expected = items.iter().fold(0.0f64, |acc, x| acc + x);
        let reassociated = items
            .chunks(2)
            .fold(0.0f64, |acc, pair| acc + pair.iter().sum::<f64>());
        assert_ne!(
            expected.to_bits(),
            reassociated.to_bits(),
            "input is association-blind"
        );
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_fold(threads, items.clone(), uneven, 0.0f64, |acc, x| acc + x);
            assert_eq!(got.to_bits(), expected.to_bits(), "threads={threads}");
            let empty = parallel_fold(threads, Vec::<f64>::new(), uneven, -0.0f64, |a, x| a + x);
            assert_eq!(empty.to_bits(), (-0.0f64).to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn resolve_threads_layers() {
        assert_eq!(resolve_threads(5), 5);
        set_default_threads(3);
        assert_eq!(resolve_threads(0), 3);
        set_default_threads(0);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = parallel_map(2, vec![1u32, 2, 3, 4], |_, x| {
            assert!(x != 3, "boom");
            x
        });
    }
}
