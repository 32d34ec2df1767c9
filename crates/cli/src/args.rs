//! Minimal flag parser (no external dependencies).
//!
//! Supports `--key value` and `--flag` styles plus positional arguments.

use std::collections::BTreeMap;

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses raw arguments. Tokens starting with `--` become options when
    /// followed by a non-`--` value, otherwise flags.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Args {
        let tokens: Vec<String> = raw.into_iter().collect();
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(name) = t.strip_prefix("--") {
                let value_next = tokens.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                match value_next {
                    Some(v) => {
                        args.options.insert(name.to_string(), v);
                        i += 2;
                    }
                    None => {
                        args.flags.push(name.to_string());
                        i += 1;
                    }
                }
            } else {
                args.positional.push(t.clone());
                i += 1;
            }
        }
        args
    }

    /// The positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value fails to parse.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }

    /// A count option that must be at least 1 (a batch size, a width).
    ///
    /// # Errors
    ///
    /// Returns a message when the value fails to parse or is 0.
    pub fn get_count(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get_or(name, default)? {
            0 => Err(format!(
                "invalid value for --{name}: 0 (must be at least 1)"
            )),
            n => Ok(n),
        }
    }

    /// Whether a bare flag was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn positional_and_options() {
        // `--name value` always consumes the next non-`--` token, so bare
        // flags go last (documented parser semantics).
        let a = parse("train graph.txt --epochs 5 --verbose");
        assert_eq!(a.positional(), ["train", "graph.txt"]);
        assert_eq!(a.get("epochs"), Some("5"));
        assert!(a.has_flag("verbose"));
    }

    #[test]
    fn typed_defaults() {
        let a = parse("--batch 16");
        assert_eq!(a.get_or("batch", 8usize).unwrap(), 16);
        assert_eq!(a.get_or("hidden", 32usize).unwrap(), 32);
        assert!(a.get_or::<usize>("batch", 0).is_ok());
        let b = parse("--batch nope");
        assert!(b.get_or::<usize>("batch", 0).is_err());
        let c = parse("--batch 0");
        assert!(c.get_count("batch", 8).unwrap_err().contains("--batch: 0"));
        assert_eq!(c.get_count("hidden", 8).unwrap(), 8);
    }

    #[test]
    fn trailing_flag() {
        let a = parse("demo --json");
        assert!(a.has_flag("json"));
        assert_eq!(a.positional(), ["demo"]);
    }
}
