//! One front door for every `FMM_ENERGY_*` environment variable.
//!
//! The workspace's runtime knobs used to be parsed ad hoc at each call
//! site (`compat::par` trimmed-and-parsed `FMM_ENERGY_THREADS` inline,
//! `tk1-sim::faults` read `FMM_ENERGY_FAULTS` raw).  This module
//! centralizes the lookup and the parsing conventions so every knob
//! behaves the same way:
//!
//! * values are trimmed before parsing;
//! * an unset variable and an empty value are both "not configured";
//! * a value that fails to parse (or fails the accessor's validity
//!   check) is ignored, never a panic — a typo'd knob degrades to the
//!   built-in default, matching the rest of the pipeline's
//!   graceful-degradation posture.
//!
//! The full table of recognized variables lives in README.md
//! ("Environment variables"); each parsing crate documents its own
//! knob's semantics next to its default.

use std::str::FromStr;

/// Raw (trimmed) value of `name`, or `None` if unset/empty/non-UTF-8.
pub fn raw(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => {
            let t = v.trim();
            if t.is_empty() {
                None
            } else {
                Some(t.to_string())
            }
        }
        Err(_) => None,
    }
}

/// Parses `name` as `T`, returning `None` when unset or unparseable.
pub fn parse<T: FromStr>(name: &str) -> Option<T> {
    raw(name)?.parse::<T>().ok()
}

/// `name` as a strictly positive integer (zero and garbage are ignored).
pub fn positive_usize(name: &str) -> Option<usize> {
    parse::<usize>(name).filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global, so a single test exercises every
    // accessor against one dedicated variable name.
    #[test]
    fn accessors_trim_validate_and_ignore_garbage() {
        let name = "FMM_ENERGY_COMPAT_ENV_TEST";
        std::env::remove_var(name);
        assert_eq!(raw(name), None);
        assert_eq!(positive_usize(name), None);

        std::env::set_var(name, "   ");
        assert_eq!(raw(name), None, "blank value reads as unset");

        std::env::set_var(name, "  7 ");
        assert_eq!(raw(name).as_deref(), Some("7"));
        assert_eq!(positive_usize(name), Some(7));
        assert_eq!(parse::<f64>(name), Some(7.0));

        std::env::set_var(name, "0");
        assert_eq!(positive_usize(name), None, "zero rejected as a width");

        std::env::set_var(name, "banana");
        assert_eq!(positive_usize(name), None);
        assert_eq!(parse::<f64>(name), None);

        std::env::remove_var(name);
    }
}
