//! Helpers shared by the integration tests that byte-diff `bbv` output.

/// True for tokens like `862.8ms`, `1.2s`, `541µs`, `2m` — wall-clock
/// renderings of `Duration`.
fn is_duration_token(tok: &str) -> bool {
    for unit in ["ns", "µs", "us", "ms", "s", "m"] {
        if let Some(num) = tok.strip_suffix(unit) {
            if !num.is_empty() && num.chars().all(|c| c.is_ascii_digit() || c == '.') {
                return true;
            }
        }
    }
    false
}

/// Replaces duration tokens with `<T>` so byte-diffs compare everything
/// except timing (the only run-to-run nondeterminism in `bbv` output).
pub fn mask_durations(text: &str) -> String {
    text.lines()
        .map(|line| {
            line.split(' ')
                .map(|tok| if is_duration_token(tok) { "<T>" } else { tok })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}
