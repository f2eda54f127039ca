//! Known-good protocol fixture: every `Msg` variant appears explicitly
//! at every configured site — struct, tuple, and unit shapes all named,
//! including a grouped log-and-drop arm in the handler (grouping is
//! fine; only wildcards are not coverage).

pub enum Msg {
    Alpha { x: u32 },
    Beta(u8),
    Gamma,
}

pub fn encode_body(m: &Msg) -> Vec<u8> {
    match m {
        Msg::Alpha { x } => x.to_le_bytes().to_vec(),
        Msg::Beta(b) => vec![*b],
        Msg::Gamma => Vec::new(),
    }
}

pub fn decode_body(tag: u8) -> Option<Msg> {
    match tag {
        0 => Some(Msg::Alpha { x: 0 }),
        1 => Some(Msg::Beta(0)),
        2 => Some(Msg::Gamma),
        _ => None,
    }
}

pub fn handle(m: Msg) {
    match m {
        Msg::Alpha { .. } => {}
        other @ (Msg::Beta(..) | Msg::Gamma) => {
            let _ = other;
        }
    }
}
