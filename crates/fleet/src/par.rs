//! Order-preserving parallel map over scoped std threads.
//!
//! A fan-out with no external thread-pool dependency. The scheduler
//! prices a batch's unpriced jobs and walks a job's missing
//! `(member, seed)` units through it, the figure runner (`wm_experiments::runner::execute`)
//! walks every distinct sweep request's units through it, and the GEMV
//! sweeps map their points over it. Work is distributed through a
//! shared claim queue, so uneven item costs still balance across
//! workers.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// Map `f` over `items` in parallel, preserving input order in the output.
///
/// Spawns up to `available_parallelism` scoped workers (bounded by the
/// item count). Panics in `f` propagate to the caller.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| loop {
                let next = queue
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .pop_front();
                match next {
                    None => break,
                    Some((idx, item)) => {
                        let out = f(item);
                        results.lock().unwrap_or_else(PoisonError::into_inner)[idx] = Some(out);
                    }
                }
            }));
        }
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        // audit:allow(panic-paths): a panicking worker already resumed its unwind above, so every index was claimed
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), |x: i32| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(parallel_map(Vec::<i32>::new(), |x| x), Vec::<i32>::new());
        assert_eq!(parallel_map(vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn balances_uneven_work() {
        // Front-loaded costs: a static split would leave one worker with
        // almost everything; the claim queue balances dynamically. We just
        // assert correctness — balance shows up as perfbench's wall clock.
        let out = parallel_map((0..64u64).collect(), |x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x * 2
        });
        assert_eq!(out, (0..64u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn propagates_panics() {
        let _ = parallel_map(vec![1, 2, 3], |x: i32| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }
}
