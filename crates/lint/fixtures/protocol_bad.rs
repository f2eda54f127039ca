//! Known-bad protocol fixture: `Msg::Beta` is declared but missing from
//! every configured site — the encode match hides it behind a
//! wildcard, the decoder never constructs it, and the handler
//! loop swallows it with `_ =>`. The lint must name the variant at each
//! site; wildcard arms are not coverage.

pub enum Msg {
    Alpha { x: u32 },
    Beta(u8),
    Gamma,
}

pub fn encode_body(m: &Msg) -> Vec<u8> {
    match m {
        Msg::Alpha { x } => x.to_le_bytes().to_vec(),
        Msg::Gamma => Vec::new(),
        _ => vec![0],
    }
}

pub fn decode_body(tag: u8) -> Option<Msg> {
    match tag {
        0 => Some(Msg::Alpha { x: 0 }),
        2 => Some(Msg::Gamma),
        _ => None,
    }
}

pub fn handle(m: Msg) {
    match m {
        Msg::Alpha { .. } => {}
        Msg::Gamma => {}
        _ => {}
    }
}
