//! Pinning the calling thread to one CPU at a time.
//!
//! On the shared machine each virtual CPU slows down in its own phases
//! (a busy neighbour on the same core), and a phase can outlast a run.
//! A single-threaded run that times its passes on each of the process's
//! CPUs in turn gives the fastest-of-passes timing (`perfbench::best`) a
//! quiet CPU to find even when one CPU stays slow for the whole run.
//!
//! Linux on x86-64 only, through the raw `sched_getaffinity` and
//! `sched_setaffinity` system calls, for CPUs 0 to 63; elsewhere
//! [`Cpus::of_process`] finds no CPUs and the thread is never pinned.

/// The CPUs the process may run on, as found at start-up.
#[derive(Debug, Clone, Copy)]
pub struct Cpus {
    mask: u64,
}

impl Cpus {
    /// The calling thread's allowed CPUs (none where they cannot be
    /// read).
    pub fn of_process() -> Self {
        Cpus {
            mask: sys::get().unwrap_or(0),
        }
    }

    /// Number of allowed CPUs.
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Pin the calling thread to the `i`-th allowed CPU (modulo their
    /// number). Does nothing with fewer than two CPUs.
    pub fn pin(&self, i: usize) {
        if self.len() < 2 {
            return;
        }
        let nth = (0..64)
            .filter(|b| self.mask & (1 << b) != 0)
            .nth(i % self.len())
            .expect("i % len is below the number of set bits");
        sys::set(1 << nth);
    }

    /// Let the calling thread run on every allowed CPU again.
    pub fn unpin(&self) {
        if self.len() >= 2 {
            sys::set(self.mask);
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::arch::asm;

    const SCHED_SETAFFINITY: usize = 203;
    const SCHED_GETAFFINITY: usize = 204;

    /// A three-argument Linux system call on the calling thread.
    ///
    /// # Safety
    /// `mask` must point to eight bytes the kernel may read, and write
    /// for `sched_getaffinity`.
    unsafe fn affinity(call: usize, mask: *mut u64) -> isize {
        let ret: isize;
        // SAFETY: the affinity calls read or write exactly `len` = 8
        // bytes at `mask` and touch no other memory; `syscall` clobbers
        // only rcx and r11 besides rax.
        unsafe {
            asm!(
                "syscall",
                inlateout("rax") call as isize => ret,
                in("rdi") 0usize,
                in("rsi") 8usize,
                in("rdx") mask,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// The calling thread's affinity mask; `None` on error, including
    /// a machine with more than 64 possible CPUs.
    pub fn get() -> Option<u64> {
        let mut mask = 0u64;
        // SAFETY: `mask` is eight writable bytes.
        let copied = unsafe { affinity(SCHED_GETAFFINITY, &mut mask) };
        (copied > 0).then_some(mask)
    }

    /// Set the calling thread's affinity mask; whether it took.
    pub fn set(mut mask: u64) -> bool {
        // SAFETY: `mask` is eight readable bytes.
        unsafe { affinity(SCHED_SETAFFINITY, &mut mask) == 0 }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub fn get() -> Option<u64> {
        None
    }

    pub fn set(_mask: u64) -> bool {
        false
    }
}
