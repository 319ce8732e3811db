// D001 positive: hash-order iteration.
use std::collections::{HashMap, HashSet};

pub fn sum_values(scores: &HashMap<u32, f32>) -> f32 {
    let mut total = 0.0;
    for (_, v) in scores.iter() {
        total += v;
    }
    total
}

pub fn visit_all(seen: HashSet<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for id in seen {
        out.push(id);
    }
    out
}

pub fn drain_cache() {
    let mut cache: HashMap<String, f32> = HashMap::new();
    cache.insert("a".to_owned(), 1.0);
    for (_k, _v) in cache.drain() {}
    let _ = cache.keys().count();
}

pub fn untyped_let() -> usize {
    let mut index = HashMap::new();
    index.insert(1u32, 2u32);
    index.values().count()
}
