//! Ordered fan-out of independent statistics over scoped threads.
//!
//! A render's statistics (the three bootstrap CIs, the four Table 4
//! horizons, the Table 5 and Table 6 blocks) share no state, so they can
//! run on separate threads. Each result depends only on its own input and
//! results come back in input order, so output is bit-identical at every
//! thread count (DESIGN.md §2).

use std::sync::atomic::{AtomicUsize, Ordering};

/// `f` applied to every item, in input order, on at most `threads`
/// threads (0 = one per core, as the campaign resolves it). With one
/// thread, or one item, everything runs inline on the caller. Otherwise
/// the caller and `threads - 1` scoped workers claim items from a shared
/// counter, so a long item does not hold back the short ones queued
/// behind it. A panic in `f` propagates to the caller.
pub(crate) fn fan_out<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = match threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    // The counter only hands out indices; results travel back through
    // `join`, which orders them after the work, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break done };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (1..threads).map(|_| s.spawn(claim)).collect();
        let mine = claim();
        for done in workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .chain([mine])
        {
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            assert_eq!(fan_out(&items, threads, |x| x * x + 1), serial, "{threads}");
        }
        assert!(fan_out(&[] as &[u64], 4, |x| *x).is_empty());
    }

    #[test]
    fn items_really_run_concurrently() {
        // Both items wait on one two-party barrier: this finishes only if
        // two threads hold an item at the same time.
        let barrier = Barrier::new(2);
        let out = fan_out(&[1, 2], 2, |x| {
            barrier.wait();
            x * 10
        });
        assert_eq!(out, [10, 20]);
    }

    #[test]
    fn one_thread_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = fan_out(&[(); 3], 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn a_worker_panic_reaches_the_caller() {
        fan_out(&(0..8).collect::<Vec<u32>>(), 3, |&x| {
            assert!(x != 5, "item {x}");
            x
        });
    }
}
