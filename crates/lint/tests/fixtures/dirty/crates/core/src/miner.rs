//! Waivers that waive nothing: each one is a `suppression` finding.

pub fn unjustified() {
    // gridlint: allow(lock-order)
    let _ = 0;
}

pub fn stale() -> u64 {
    // gridlint: allow(privacy-taint) -- justified but covering a clean line below
    let later = 0;
    // gridlint: allow(determinism) -- clippy holds this family now: an unknown rule here
    later
}

#[cfg(test)]
mod tests {
    #[test]
    fn stale_is_zero() {
        assert_eq!(super::stale(), 0);
    }
    // gridlint: allow(taint-flow) -- a test-region waiver is inert and must never cover production lines
}
