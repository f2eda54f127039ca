//! Known-bad fixtures, one invariant per module. Each module must make
//! `cargo clippy -- -D warnings` fail under the workspace `clippy.toml`.

// The same panic-hygiene attribute `core` and `rowsgd` carry.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod alloc_hygiene_bad;
pub mod determinism_iteration_bad;
pub mod determinism_time_bad;
pub mod metering_bad;
pub mod panic_hygiene_bad;
pub mod wildcard_handler_bad;
