//! Layer-traced replay of a sequential `tin-cli run` job; see
//! `tin_perfbench::traced`. The counting allocator gives the checkpoint
//! peak-allocation figure; it makes each allocation a little dearer, which
//! shows in the measured tracing overhead.

use tin_memstats::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn main() -> std::process::ExitCode {
    tin_perfbench::traced::main()
}
