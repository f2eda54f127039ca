// Known-bad fixture: raw allocator plumbing outside the profiler.
use std::alloc::{GlobalAlloc, Layout, System};

/// # Safety
/// Same contract as [`GlobalAlloc::alloc`].
pub unsafe fn raw_bytes(layout: Layout) -> *mut u8 {
    unsafe { System.alloc(layout) }
}

/// # Safety
/// Same contract as [`std::alloc::dealloc`].
pub unsafe fn raw_free(p: *mut u8, layout: Layout) {
    unsafe { std::alloc::dealloc(p, layout) }
}
