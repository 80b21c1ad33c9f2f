//! A broker that breaks every rule it is subject to.

pub fn leak(agg: &SecureCounter, dec: &C, key: &TagKey) -> PlainCounter {
    agg.open(dec, key)
}

pub fn tally(stats: &mut Stats) {
    stats.crashes += 1;
}
