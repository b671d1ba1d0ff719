//! What the latch, mailbox, in-flight and dirty-flag protocols are written in:
//! atomics, `unpark` / `park_timeout`, a mutex — the `std` items themselves
//! outside `cfg(test)`, with the mutex's poisoning ignored. Under it every
//! operation is first a yield point of [`crate::explore`] (a no-op on a
//! thread no explorer drives), and `lock` asserts on every path any test
//! takes: never two locks at once.

pub(crate) use std::sync::atomic::Ordering;
#[cfg(not(test))]
pub(crate) use {
    std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64},
    std::thread::{current, park_timeout, Thread},
};

/// `std::sync::Mutex` whose `lock` ignores poisoning. A node thread that
/// panics is reported as `NodePanicked`, and its `Inbox` still closes the
/// mailbox as it unwinds, in a `Drop` that must not panic. What the locks
/// guard (queues, failure lists) is changed by whole pushes and drains, so
/// it stays readable for the rest of the run.
#[cfg(not(test))]
#[derive(Default)]
pub(crate) struct Mutex<T>(std::sync::Mutex<T>);
#[cfg(not(test))]
impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
pub(crate) use model::*;
#[cfg(test)]
mod model {
    use crate::explore;
    use std::sync::atomic::{self, Ordering};
    use std::sync::{PoisonError, TryLockError};
    macro_rules! atomic {
        ($name:ident, $value:ty $(, $rmw:ident)*) => {
            #[derive(Default)]
            pub(crate) struct $name(pub(crate) atomic::$name);
            #[allow(dead_code, reason = "mirrors std; not every method has a caller")]
            impl $name {
                pub(crate) fn new(value: $value) -> Self { $name(atomic::$name::new(value)) }
                pub(crate) fn load(&self, order: Ordering) -> $value { explore::step(); self.0.load(order) }
                pub(crate) fn store(&self, value: $value, order: Ordering) { explore::step(); self.0.store(value, order) }
                $(pub(crate) fn $rmw(&self, value: $value, order: Ordering) -> $value { explore::step(); self.0.$rmw(value, order) })*
            }
        };
    }
    atomic!(AtomicBool, bool, swap);
    atomic!(AtomicI64, i64, fetch_add, fetch_sub);
    atomic!(AtomicU64, u64, fetch_add);
    thread_local!(pub(crate) static HELD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });

    /// `std::sync::Mutex`, poisoning ignored. An explored thread that finds
    /// it held blocks in the explorer, not in the OS, so a lock cycle is a
    /// deadlock it can see.
    #[derive(Default)]
    pub(crate) struct Mutex<T>(pub(crate) std::sync::Mutex<T>);
    pub(crate) struct MutexGuard<'a, T>(std::sync::MutexGuard<'a, T>);
    impl<T> Mutex<T> {
        pub(crate) fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }
        pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
            assert!(!HELD.get() || std::thread::panicking(), "two locks held");
            explore::step();
            let guard = loop {
                match self.0.try_lock() {
                    Ok(guard) => break guard,
                    Err(TryLockError::Poisoned(poisoned)) => break poisoned.into_inner(),
                    Err(TryLockError::WouldBlock) if explore::blocked() => {}
                    Err(TryLockError::WouldBlock) => {
                        break self.0.lock().unwrap_or_else(PoisonError::into_inner)
                    }
                }
            };
            HELD.set(true);
            MutexGuard(guard)
        }
    }
    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }
    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }
    impl<T> Drop for MutexGuard<'_, T> {
        /// Lock waiters retry at this thread's next yield point at the earliest.
        fn drop(&mut self) {
            HELD.set(false);
            explore::released();
        }
    }

    /// `std::thread::Thread`, and which explored thread it is, if one.
    pub(crate) struct Thread(std::thread::Thread, Option<usize>);
    impl Thread {
        pub(crate) fn unpark(&self) {
            match self.1 {
                Some(explored) => explore::unpark(explored),
                None => self.0.unpark(),
            }
        }
    }
    pub(crate) fn current() -> Thread {
        Thread(std::thread::current(), explore::register())
    }
    /// Never times out when explored: a lost wake-up is a deadlock there.
    pub(crate) fn park_timeout(timeout: std::time::Duration) {
        if !explore::park() {
            std::thread::park_timeout(timeout);
        }
    }
}
