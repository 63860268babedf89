//! Fixture: slice and array *patterns* are not index expressions. A
//! `let [a, b] = ...` binding and a `for [a, b] in ...` loop cannot panic,
//! so only the real raw index in `pick` (line 24) may fire.

#![forbid(unsafe_code)]

pub fn sum_pair(pair: [u32; 2]) -> u32 {
    let [a, b] = pair;
    a + b
}

pub fn sum_pairs(pairs: &[[u32; 2]]) -> u32 {
    let mut total = 0;
    for &[a, b] in pairs {
        total += a + b;
    }
    for [a, b] in pairs.iter().copied() {
        total += a * b;
    }
    total
}

pub fn pick(v: &[u32], i: usize) -> u32 {
    v[i]
}
