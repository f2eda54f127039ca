//! Known-bad blocking-under-lock fixture: `bad` calls `send` while the
//! `slots` guard is live, `bad_in_args` blocks inside the argument list
//! of a call whose temporary guard spans the whole statement, and
//! `bad_prefixed` writes a prefixed frame under a bound writer guard.

use std::sync::Mutex;

pub struct Tx;

impl Tx {
    pub fn send(&self, _v: u32) {}
}

pub fn write_frame(_w: &mut Vec<u32>, _v: u32) {}

pub fn write_prefixed_frame(_w: &mut Vec<u32>, _buf: &[u8]) {}

pub struct Q {
    slots: Mutex<Vec<u32>>,
    writer: Mutex<Vec<u32>>,
}

pub fn bad(q: &Q, tx: &Tx) {
    let guard = q.slots.lock();
    tx.send(guard.len() as u32);
}

pub fn bad_in_args(q: &Q) {
    write_frame(&mut *q.slots.lock(), 7);
}

pub fn bad_prefixed(q: &Q, buf: &[u8]) {
    let mut stream = q.writer.lock();
    write_prefixed_frame(&mut *stream, buf);
}
