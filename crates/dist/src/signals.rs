//! Minimal, dependency-free signal plumbing for the pool.
//!
//! The supervisor needs exactly three primitives: notice SIGINT /
//! SIGTERM (to drain gracefully), send SIGTERM to a worker (polite
//! stop), and send SIGKILL (the deadline watchdog). Rather than pull
//! in a bindings crate for three syscalls, the libc entry points are
//! declared by hand — `signal(2)` and `kill(2)` have had these exact
//! signatures on every POSIX system for decades. On non-unix targets
//! everything compiles to inert stubs: termination is simply never
//! requested and signals cannot be sent, which degrades the pool to
//! "workers are never killed early" rather than failing the build.

#[cfg(unix)]
mod imp {
    use std::sync::atomic::{AtomicBool, Ordering};

    const SIGINT: i32 = 2;
    const SIGKILL: i32 = 9;
    const SIGTERM: i32 = 15;

    static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn kill(pid: i32, sig: i32) -> i32;
    }

    extern "C" fn on_term(_sig: i32) {
        // Only async-signal-safe work here: one atomic store.
        TERM_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install_term_handlers() {
        unsafe {
            signal(SIGINT, on_term as *const () as usize);
            signal(SIGTERM, on_term as *const () as usize);
        }
    }

    pub fn termination_requested() -> bool {
        TERM_REQUESTED.load(Ordering::SeqCst)
    }

    pub fn reset_termination() {
        TERM_REQUESTED.store(false, Ordering::SeqCst);
    }

    pub fn send_term(pid: u32) -> bool {
        pid <= i32::MAX as u32 && unsafe { kill(pid as i32, SIGTERM) } == 0
    }

    pub fn send_kill(pid: u32) -> bool {
        pid <= i32::MAX as u32 && unsafe { kill(pid as i32, SIGKILL) } == 0
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install_term_handlers() {}
    pub fn termination_requested() -> bool {
        false
    }
    pub fn reset_termination() {}
    pub fn send_term(_pid: u32) -> bool {
        false
    }
    pub fn send_kill(_pid: u32) -> bool {
        false
    }
}

/// Install SIGINT/SIGTERM handlers that set the termination flag.
/// Idempotent; call once near process start (both the supervisor and
/// its workers do).
pub fn install_term_handlers() {
    imp::install_term_handlers();
}

/// `true` once SIGINT or SIGTERM has been received. Matches the
/// signature of [`musa_store::FillOptions::cancel`], so the
/// single-process fill polls this directly.
pub fn termination_requested() -> bool {
    imp::termination_requested()
}

/// Clear the termination flag (tests only — the flag is process-global
/// and a signal test must not leak into later tests).
pub fn reset_termination() {
    imp::reset_termination()
}

/// Politely ask a worker to finish its current point and exit.
pub fn send_term(pid: u32) -> bool {
    imp::send_term(pid)
}

/// Kill a worker immediately (deadline watchdog, drain timeout).
pub fn send_kill(pid: u32) -> bool {
    imp::send_kill(pid)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn sigterm_to_self_sets_the_flag() {
        install_term_handlers();
        reset_termination();
        assert!(!termination_requested());
        assert!(send_term(std::process::id()));
        // Delivery is asynchronous but to our own pid it is effectively
        // immediate; spin briefly to be safe.
        for _ in 0..1000 {
            if termination_requested() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(termination_requested());
        reset_termination();
    }

    #[test]
    fn kill_rejects_absurd_pids() {
        assert!(!send_kill(u32::MAX));
        assert!(!send_term(u32::MAX));
    }
}
