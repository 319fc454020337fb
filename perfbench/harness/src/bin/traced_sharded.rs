//! Layer-traced replay of a sharded `tin-cli run` job; see
//! `tin_perfbench::traced`. It keeps the system allocator: the counting
//! allocator's shared counters would make the worker threads contend on
//! every allocation.

fn main() -> std::process::ExitCode {
    tin_perfbench::traced::main()
}
