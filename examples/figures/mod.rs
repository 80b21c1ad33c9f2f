//! What the §6 figure examples share: the one scale switch and the
//! section header their tables print under.

/// `GRIDMINE_SCALE=full` runs the paper's §6 scale; anything else, or
/// nothing, the small one.
#[allow(dead_code, reason = "the ablations run at one scale")]
pub fn full_scale() -> bool {
    std::env::var("GRIDMINE_SCALE").is_ok_and(|v| v.eq_ignore_ascii_case("full"))
}

/// Section header for printed tables.
pub fn hr(title: &str) {
    println!("\n=== {title} {}", "=".repeat(66_usize.saturating_sub(title.len())));
}
