//! One CPU for the whole process.
//!
//! On a shared 2-vCPU box an unpinned one-connection `/predict` loop is
//! bimodal (≈59k vs ≈26k entries/s) depending on whether the client and
//! the worker that spin-peeks for the next keep-alive request land on one
//! core or two. Pinned, the same loop repeats within ±1.4%. So every
//! number this benchmark gates is a per-core number, and a run that
//! cannot pin is an error, not a silent unpinned run.
//!
//! `std` already links libc, so the calls are declared here instead of
//! adding a dependency.

use std::io;

/// `cpu_set_t` is 1024 bits on Linux.
const MASK_WORDS: usize = 16;
type CpuMask = [u64; MASK_WORDS];

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The affinity mask the process started with (to undo the pin for the
/// informational unpinned pass of the traced run).
#[derive(Debug, Clone, Copy)]
pub struct Unpinned(CpuMask);

fn set_affinity(mask: &CpuMask) -> io::Result<()> {
    // SAFETY: `mask` points to MASK_WORDS * 8 readable bytes, the size
    // passed; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Pins the calling thread — and every thread it spawns afterwards — to
/// the CPU it is running on. Call first thing in `main`. Returns the CPU
/// and the mask to hand to [`unpin`].
pub fn pin_to_current_cpu() -> io::Result<(usize, Unpinned)> {
    let mut before: CpuMask = [0; MASK_WORDS];
    // SAFETY: `before` is MASK_WORDS * 8 writable bytes, the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), before.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: no arguments, no memory touched.
    let cpu = unsafe { sched_getcpu() };
    if cpu < 0 || cpu as usize >= MASK_WORDS * 64 {
        return Err(io::Error::other(format!("sched_getcpu returned {cpu}")));
    }
    let cpu = cpu as usize;
    let mut mask: CpuMask = [0; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&mask)?;
    Ok((cpu, Unpinned(before)))
}

/// Restores the start-up mask on the calling thread; threads spawned from
/// it afterwards are unpinned too.
pub fn unpin(before: Unpinned) -> io::Result<()> {
    set_affinity(&before.0)
}

const M_MMAP_THRESHOLD: i32 = -3;
const M_ARENA_MAX: i32 = -8;

/// Makes the allocator's high-water mark a function of the program, not
/// of thread timing. With glibc's defaults `peak_rss_mb` on
/// `predict_batch64_wal` moved between 61 and 75 MB over identical runs:
/// each thread gets its own arena, and the threshold above which a block
/// is mapped and returned on free adapts to whichever large block was
/// freed first. One arena (on one CPU more buy nothing) and a fixed
/// threshold brought that to 46.3–46.6 MB with the rate unchanged. Call
/// first thing in `main`, on both sides of any comparison.
pub fn steady_allocator() {
    // SAFETY: plain integer arguments; glibc documents both parameters.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) == 1 && mallopt(M_MMAP_THRESHOLD, 256 * 1024) == 1 };
    assert!(ok, "mallopt refused a documented parameter");
}
