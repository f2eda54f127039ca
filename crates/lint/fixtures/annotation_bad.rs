// Known-bad fixture: a reason-less allow (malformed), an allow naming a
// rule that does not exist, and one naming a rule clippy enforces now.
fn f() {
    // lint: allow(blocking-under-lock)
    let _ = 1;
    // lint: allow(no-such-rule) looks fine but the rule id is unknown
    let _ = 2;
    // lint: allow(panic-hygiene) a clippy `#[expect]` replaces this form
    let _ = 3;
}
