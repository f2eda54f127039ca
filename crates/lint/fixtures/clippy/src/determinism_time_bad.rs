// Known-bad fixture: wall-clock reads in non-metering code.
use std::time::{Instant, SystemTime};

pub fn seed_from_wallclock() -> u64 {
    let t = Instant::now();
    let _ = SystemTime::now();
    t.elapsed().as_nanos() as u64
}
