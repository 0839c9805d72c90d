//! Poison-tolerant lock helpers shared by the serve stack and the model
//! store.
//!
//! A `Mutex` is poisoned when a thread panics while holding it; after that,
//! every `.lock().expect(…)` panics too — one crashed worker permanently
//! bricks the LRU, the metrics and the in-flight table. None of those
//! structures hold multi-step invariants across a panic point (each critical
//! section either completes or leaves the map/deque merely stale), so
//! recovering the guard is strictly better than wedging the service.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
pub fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn mutex_recovers_after_a_panicked_holder() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().expect("first lock");
            panic!("poison it");
        })
        .join();
        assert!(m.lock().is_err(), "lock is poisoned");
        let mut guard = lock_or_recover(&m);
        assert_eq!(*guard, 7, "state survives the panic");
        *guard = 8;
        drop(guard);
        assert_eq!(*lock_or_recover(&m), 8);
    }
}
