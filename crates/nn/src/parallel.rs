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
    for_each_mut(&mut slots, threads, |(item, out)| *out = Some(f(item)));
    slots
        .into_iter()
        .map(|(_, out)| out.expect("worker filled slot"))
        .collect()
}

/// Runs `f` on every item with up to `threads` worker threads, each owning
/// a contiguous run of items. With `threads <= 1` runs inline.
pub(crate) fn for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    // Telemetry only — a no-op two-atomic-load probe unless the binary
    // installed a trace recorder.
    let _span = deepsplit_obs::span("parallel_map");
    let run = items.len().div_ceil(threads.min(items.len()));
    std::thread::scope(|s| {
        for part in items.chunks_mut(run) {
            let f = &f;
            s.spawn(move || part.iter_mut().for_each(f));
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
    fn for_each_mut_visits_every_item_once() {
        for threads in [1, 2, 3, 8] {
            let mut items: Vec<u64> = (0..10).collect();
            for_each_mut(&mut items, threads, |x| *x = *x * 3 + 1);
            assert_eq!(items, (0..10).map(|x| x * 3 + 1).collect::<Vec<_>>());
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
