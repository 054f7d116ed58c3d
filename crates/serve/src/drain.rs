//! Graceful-shutdown signalling.
//!
//! [`DrainFlag`] is the one-way "stop admitting work" latch shared by
//! the accept loop, every connection, and the signal handler; the server
//! polls it and runs the drain sequence (stop accepting → finish the
//! requests in hand → terminal replies → final full checkpoint → exit)
//! once it trips.
//!
//! [`install_sigterm_handler`] arms a SIGTERM handler that trips a
//! process-global latch.  The handler only stores into an `AtomicBool` —
//! the entire async-signal-safe budget — and the server threads do all
//! actual work outside signal context.  The binding to `signal(2)` is a
//! direct `extern "C"` declaration because the image has no `libc`
//! crate; on non-Unix targets the function is a no-op and only the
//! in-band `Drain` request can trigger a drain.

use dynscan_core::sync::atomic::{AtomicBool, Ordering};
use dynscan_core::sync::Arc;

/// A one-way latch: once tripped it stays tripped.
#[derive(Clone, Default)]
pub struct DrainFlag {
    tripped: Arc<AtomicBool>,
}

impl DrainFlag {
    /// A fresh, untripped latch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the latch.
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::SeqCst);
    }

    /// Whether the latch has tripped (directly or via a signal this
    /// latch was armed for).
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst) || sigterm_received()
    }
}

// Deliberately std, not the sync facade: a signal handler writes this
// from async-signal context, where the model checker's decision points
// (which take locks) must never run.  The handler's whole effect is one
// lock-free atomic store, and readers only poll.
static SIGTERM_RECEIVED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Whether the process has received SIGTERM since
/// [`install_sigterm_handler`] ran.
pub fn sigterm_received() -> bool {
    SIGTERM_RECEIVED.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod imp {
    use super::SIGTERM_RECEIVED;
    use std::ffi::c_int;
    use std::sync::atomic::Ordering;

    const SIGTERM: c_int = 15;

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }

    extern "C" fn on_sigterm(_signum: c_int) {
        // The handler's entire async-signal-safe budget: one lock-free
        // atomic store into a static.  No allocation, no locks, no
        // formatting, no panicking operation — any of those could
        // deadlock or corrupt state if the signal lands while the
        // interrupted thread holds the allocator or a mutex.  Even the
        // drain latch itself is read elsewhere; the handler touches
        // nothing but this flag.
        SIGTERM_RECEIVED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is a direct binding of POSIX signal(2) (the
        // image has no libc crate); the signature matches the C
        // prototype (`void (*signal(int, void (*)(int)))(int)` — the
        // return value, the previous handler, is intentionally
        // discarded, so declaring it `usize` is ABI-compatible on the
        // targets we build).  `on_sigterm` is `extern "C"`, never
        // unwinds (a single atomic store), and stays within the
        // async-signal-safe budget documented above, which is what
        // signal(2) requires of a handler.  Installing is idempotent
        // and data-race-free: the kernel serialises handler swaps.
        unsafe {
            signal(SIGTERM, on_sigterm);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Arm the process-global SIGTERM latch (idempotent).  Call once at
/// server start; every [`DrainFlag`] then also observes the signal.
pub fn install_sigterm_handler() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_is_one_way_and_shared() {
        let flag = DrainFlag::new();
        let clone = flag.clone();
        assert!(!flag.is_tripped());
        clone.trip();
        assert!(flag.is_tripped());
        assert!(clone.is_tripped());
    }
}
