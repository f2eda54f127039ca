//! Known-bad fixture: receive loops that swallow variants with a `_` or a
//! bare-binding catch-all. A new wire variant must fail the build until
//! every handler names it.

pub enum Msg {
    Alpha { x: u32 },
    Beta(u8),
    Gamma,
    Delta,
}

#[deny(clippy::wildcard_enum_match_arm)]
pub fn handle(m: Msg) -> u32 {
    match m {
        Msg::Alpha { x } => x,
        Msg::Gamma => 0,
        _ => 1,
    }
}

#[deny(clippy::wildcard_enum_match_arm)]
pub fn handle_binding(m: Msg) -> u32 {
    match m {
        Msg::Alpha { x } => x,
        other => u32::from(matches!(other, Msg::Beta(_))),
    }
}
