//! What is left of the kernel pool. Every kernel runs on its caller's
//! thread, so the width is 1. The benchmark's `config:` line prints
//! `pool::global().width()`; this stub exists only for that line, and
//! goes with the benchmark change that drops its `kernel_pool_width`
//! field.

/// The kernel width: one thread, the caller's.
#[derive(Debug)]
pub struct Pool;

impl Pool {
    /// Always 1: no kernel fans out.
    pub fn width(&self) -> usize {
        1
    }
}

/// The one [`Pool`].
pub fn global() -> &'static Pool {
    &Pool
}
