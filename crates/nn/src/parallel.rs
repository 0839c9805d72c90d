//! Data-parallel helpers built on `std::thread::scope` (no extra deps).
//!
//! Training in the paper runs on a GPU; here it is data-parallel over CPU
//! threads. Every layer is stateless, so workers share one model: a batch's
//! chunks of queries run their forward and backward passes on separate
//! threads, then each parameter's gradient is folded over the chunks in
//! batch order (`layers::Grads::fold`). No sum depends on the thread count.

/// Maps `f` over `items` with up to `threads` worker threads, preserving
/// order. With `threads <= 1` runs inline.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut slots: Vec<(&T, Option<R>)> = items.iter().map(|item| (item, None)).collect();
    for_each_run(
        &mut slots,
        1,
        &mut vec![(); threads.max(1)],
        |_, run, ()| {
            for (item, out) in run {
                *out = Some(f(item));
            }
        },
    );
    slots
        .into_iter()
        .map(|(_, out)| out.expect("worker filled slot"))
        .collect()
}

/// Runs `f(first, run, state)` over runs of consecutive `items`, one run
/// per state, each a whole number of `unit` items, and `first` the index of
/// its first item: inline when there is one run, else each run on a thread
/// of its own.
///
/// # Panics
///
/// Panics if `states` is empty.
pub fn for_each_run<T, S, F>(items: &mut [T], unit: usize, states: &mut [S], f: F)
where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    assert!(!states.is_empty(), "a run needs a state");
    let units = items.len() / unit.max(1);
    let runs = states.len().min(units).max(1);
    let run = units.div_ceil(runs).max(1) * unit.max(1);
    if runs == 1 {
        f(0, items, &mut states[0]);
        return;
    }
    // Telemetry only — a no-op two-atomic-load probe unless the binary
    // installed a trace recorder.
    let _span = deepsplit_obs::span("parallel_map");
    std::thread::scope(|s| {
        for ((i, part), state) in items.chunks_mut(run).enumerate().zip(states) {
            let f = &f;
            s.spawn(move || f(i * run, part, state));
        }
    });
}

/// A sensible default worker count for this machine.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// How a thread budget splits across a two-level fan-out: `outer` worker
/// threads across independent tasks, each of which may itself run `inner`
/// threads. `outer * inner <= budget` always holds, so nested `parallel_map`
/// calls never oversubscribe the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Worker threads across tasks.
    pub outer: usize,
    /// Threads available to each task's own parallelism.
    pub inner: usize,
}

/// Splits `budget` threads between `items` independent tasks and each task's
/// inner parallelism.
///
/// With more tasks than threads every task runs single-threaded (the clamp
/// the defense sweep previously hard-coded); as the task count shrinks —
/// fewer cells, or most cells resolved from a model-store cache — the spare
/// budget flows back into per-task parallelism instead of idling.
pub fn split_budget(items: usize, budget: usize) -> ThreadPlan {
    let budget = budget.max(1);
    let outer = budget.min(items.max(1));
    ThreadPlan {
        outer,
        inner: (budget / outer).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_inline() {
        let items = vec![1, 2, 3];
        let out = parallel_map(&items, 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = Vec::new();
        let out = parallel_map(&items, 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn for_each_run_covers_every_item_once_in_whole_units() {
        for states in 1..5 {
            let mut items: Vec<usize> = vec![0; 12];
            let mut seen = vec![Vec::new(); states];
            for_each_run(&mut items, 2, &mut seen, |first, run, seen| {
                assert_eq!(first % 2, 0, "runs start on a unit");
                assert_eq!(run.len() % 2, 0, "runs hold whole units");
                for (at, item) in run.iter_mut().enumerate() {
                    *item += first + at;
                    seen.push(first + at);
                }
            });
            assert_eq!(items, (0..12).collect::<Vec<_>>(), "{states} states");
            let mut all: Vec<usize> = seen.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..12).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_threads_than_items() {
        let items = vec![5];
        let out = parallel_map(&items, 16, |&x| x * x);
        assert_eq!(out, vec![25]);
    }

    #[test]
    fn split_budget_never_oversubscribes() {
        for items in 0..20 {
            for budget in 0..20 {
                let plan = split_budget(items, budget);
                assert!(plan.outer >= 1 && plan.inner >= 1);
                assert!(plan.outer * plan.inner <= budget.max(1), "{plan:?}");
                assert!(plan.outer <= items.max(1));
            }
        }
    }

    #[test]
    fn split_budget_reclaims_spare_threads() {
        // Saturated fan-out: tasks each get one thread.
        assert_eq!(split_budget(24, 8), ThreadPlan { outer: 8, inner: 1 });
        // Two tasks on eight threads: four threads each, not one.
        assert_eq!(split_budget(2, 8), ThreadPlan { outer: 2, inner: 4 });
        // One task owns the whole budget.
        assert_eq!(split_budget(1, 8), ThreadPlan { outer: 1, inner: 8 });
        // Degenerate inputs stay sane.
        assert_eq!(split_budget(0, 0), ThreadPlan { outer: 1, inner: 1 });
    }
}
