//! Unified environment-knob parsing.
//!
//! Every typed `PF_*` tunable in the workspace goes through [`env_knob`]
//! instead of ad-hoc `std::env::var(..).ok().and_then(|v| v.parse().ok())`
//! chains. The engine has no on/off environment toggles: every fast path
//! is always on, and its reference behaviour lives in tests. The
//! semantics are deliberately forgiving and uniform:
//!
//! * an unset variable is simply absent (`None`),
//! * surrounding whitespace is trimmed before parsing,
//! * an empty or unparsable value is treated as absent rather than a
//!   panic — a typo in an env var must never take down a workload run.
//!
//! Callers that need a default compose with `unwrap_or` at the call
//! site, keeping the default visible where the knob is consumed.

use std::str::FromStr;

/// Reads and parses environment knob `name` as a `T`.
///
/// Returns `None` when the variable is unset, empty (after trimming),
/// not valid UTF-8, or fails to parse — parsing is fallible, never
/// panicking.
pub fn env_knob<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    trimmed.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_parses_trims_and_rejects() {
        // A variable no other test touches, so no lock is needed.
        let name = "PF_TEST_KNOB_PARSE";
        std::env::remove_var(name);
        assert_eq!(env_knob::<u64>(name), None);

        std::env::set_var(name, "42");
        assert_eq!(env_knob::<u64>(name), Some(42));
        assert_eq!(env_knob::<f64>(name), Some(42.0));

        std::env::set_var(name, "  7  ");
        assert_eq!(env_knob::<u64>(name), Some(7));

        std::env::set_var(name, "");
        assert_eq!(env_knob::<u64>(name), None);

        std::env::set_var(name, "not-a-number");
        assert_eq!(env_knob::<u64>(name), None);

        std::env::set_var(name, "-3");
        assert_eq!(env_knob::<u64>(name), None);
        assert_eq!(env_knob::<i64>(name), Some(-3));
        std::env::remove_var(name);
    }
}
