// Known-bad fixture: panics and unwraps in a message loop.
pub enum Kind {
    Work,
    Stop,
}

pub fn mailbox_loop(inbox: &mut Vec<Option<Kind>>, parts: &[u32]) -> u32 {
    let mut done = 0;
    loop {
        let msg = inbox.pop().unwrap();
        let part = parts.first().expect("partition present");
        match msg {
            Some(Kind::Work) => done += part,
            Some(Kind::Stop) => return done,
            None => panic!("unexpected empty message"),
        }
        if done > 1 << 20 {
            unreachable!("the loop only exits via Stop");
        }
    }
}

pub fn later() -> u32 {
    todo!()
}

pub fn never() -> u32 {
    unimplemented!()
}
