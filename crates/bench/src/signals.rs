//! SIGINT/SIGTERM latching for `dse`, without a bindings crate.
//!
//! `signal(2)` has had this signature on every POSIX system for
//! decades, so it is declared by hand. The handler does one atomic
//! store; the fill polls [`termination_requested`] between batches
//! (it is a [`musa_store::FillOptions::cancel`]) and `dse` exits 130.
//! On non-unix targets termination is simply never requested.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_term(_sig: i32) {
    // Only async-signal-safe work here: one atomic store.
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

/// Install SIGINT/SIGTERM handlers that set the termination flag.
/// Idempotent; call once near process start.
pub fn install_term_handlers() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SAFETY: `signal(2)` takes a signal number and a handler
        // address; `on_term` is an `extern "C" fn(i32)` that lives for
        // the whole program and does only an atomic store, which is
        // async-signal-safe. The previous handlers are not needed.
        unsafe {
            signal(SIGINT, on_term as *const () as usize);
            signal(SIGTERM, on_term as *const () as usize);
        }
    }
}

/// `true` once SIGINT or SIGTERM has been received.
pub fn termination_requested() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}
