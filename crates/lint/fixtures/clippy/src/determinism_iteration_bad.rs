// Known-bad fixture: hash containers in a canonical-output module.
use std::collections::{HashMap, HashSet};

pub fn emit(lines: &HashMap<String, u64>, seen: &HashSet<u64>) {
    for (k, v) in lines {
        println!("{k}={v} seen={}", seen.len());
    }
}
