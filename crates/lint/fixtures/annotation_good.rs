// Known-good fixture: well-formed allows suppress the finding on the next
// line or on their own line, and show up in the suppression summary.
use std::sync::Mutex;

pub struct Wire;

impl Wire {
    pub fn send(&self, _v: usize) {}
}

pub struct W {
    writer: Mutex<Vec<u8>>,
}

pub fn serialized(w: &W, wire: &Wire) {
    let g = w.writer.lock();
    // lint: allow(blocking-under-lock) fixture: the writer mutex is the write serialization point
    wire.send(g.len());
    wire.send(0); // lint: allow(blocking-under-lock) fixture: same-line form
}
