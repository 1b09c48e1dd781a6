//! A minimal `--key value` / `--flag` argument parser shared by the
//! experiment and server binaries (no external CLI dependency).

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()`. `--key value` populates values; a
    /// trailing `--key` with no value (or followed by another `--…`) is a
    /// boolean flag.
    ///
    /// # Panics
    ///
    /// Panics (with a usage hint) on a positional argument.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (for tests).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                panic!("unexpected positional argument {arg:?}; use --key value");
            };
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = iter.next().expect("peeked");
                    out.values.insert(key.to_owned(), v);
                }
                _ => out.flags.push(key.to_owned()),
            }
        }
        out
    }

    /// A `usize` value or `default`.
    ///
    /// # Panics
    ///
    /// Panics when the value is present but unparseable.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// A `u64` value or `default`.
    ///
    /// # Panics
    ///
    /// Panics when the value is present but unparseable.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// The raw value of `--key`, or `None` when the key is absent.
    pub fn get_opt_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A string value or `default`.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    }

    /// True when `--key` appeared as a bare flag.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::from_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_values_and_flags() {
        let a = parse("--budget 500 --full --scale cifar");
        assert_eq!(a.get_u64("budget", 0), 500);
        assert!(a.flag("full"));
        assert_eq!(a.get_str("scale", "x"), "cifar");
        assert_eq!(a.get_opt_str("scale"), Some("cifar"));
        assert_eq!(a.get_usize("missing", 7), 7);
        assert_eq!(a.get_opt_str("missing"), None);
        assert!(!a.flag("missing"));
    }

    #[test]
    fn values_flags_and_defaults() {
        let a = parse("--tenants 8 --out x.json --quiet");
        assert_eq!(a.get_usize("tenants", 1), 8);
        assert_eq!(a.get_str("out", "def"), "x.json");
        assert_eq!(a.get_u64("budget", 400), 400);
        assert!(a.flag("quiet"));
        assert!(!a.flag("verbose"));
        assert_eq!(a.get_opt_str("missing"), None);
    }

    #[test]
    fn trailing_flag_without_value() {
        let a = parse("--retrain");
        assert!(a.flag("retrain"));
    }

    #[test]
    #[should_panic(expected = "positional")]
    fn rejects_positional_arguments() {
        parse("oops");
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn rejects_bad_integers() {
        parse("--budget lots").get_u64("budget", 0);
    }
}
