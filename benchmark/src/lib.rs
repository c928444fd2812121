//! The repo benchmark. See `README.md` beside this crate's manifest.

pub mod alloc;
pub mod checks;
pub mod cli;
pub mod layers;
pub mod querygen;
pub mod report;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workload;

#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
