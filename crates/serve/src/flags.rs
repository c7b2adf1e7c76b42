//! Table-driven command-line flags, shared by `deepcsi-served` and
//! `deepcsi-clusterd`.
//!
//! Each binary declares one `(flag, takes_value, help)` table. The table
//! is the whole grammar: a flag that is not in it is an error (a typo
//! must not silently serve with defaults), and `--help` prints it.

use std::fmt::Display;
use std::str::FromStr;

/// One flag: `(name, takes_value, help)`.
type Spec = (&'static str, bool, &'static str);

/// A command line parsed against a flag table.
#[derive(Debug)]
pub struct Flags {
    table: &'static [Spec],
    /// The flags given, in order; value-less flags carry `None`.
    given: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    /// Prints `msg` and exits with status 2 (the usage-error
    /// convention) — also for errors the table cannot express, such as a
    /// missing required flag.
    pub fn die(msg: &str) -> ! {
        eprintln!("{msg} (try --help)");
        std::process::exit(2);
    }

    /// Parses `args` against `table`.
    ///
    /// # Errors
    ///
    /// A message naming the first argument that is not a flag of
    /// `table`, or the first value-taking flag given without a value.
    pub fn parse(
        table: &'static [Spec],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let &(name, takes_value, _) = table
                .iter()
                .find(|(name, ..)| *name == arg)
                .ok_or_else(|| format!("unknown flag {arg:?}"))?;
            let value = if takes_value {
                let value = args.next();
                Some(value.ok_or_else(|| format!("{name} expects a value"))?)
            } else {
                None
            };
            given.push((name, value));
        }
        Ok(Flags { table, given })
    }

    /// [`Flags::parse`] for a binary's `main`: `--help` / `-h` prints
    /// [`Flags::usage`] and exits 0; a parse error prints the message
    /// and exits 2.
    pub fn parse_or_exit(
        synopsis: &str,
        table: &'static [Spec],
        args: impl IntoIterator<Item = String>,
    ) -> Flags {
        let args: Vec<String> = args.into_iter().collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", Flags::usage(synopsis, table));
            std::process::exit(0);
        }
        Flags::parse(table, args).unwrap_or_else(|e| Flags::die(&e))
    }

    /// The usage text: the synopsis line, then one line per flag.
    pub fn usage(synopsis: &str, table: &[Spec]) -> String {
        let mut out = format!("usage: {synopsis} [flags]\n");
        for (name, takes_value, help) in table {
            let value = if *takes_value { " VALUE" } else { "" };
            out.push_str(&format!("  {:<26} {help}\n", format!("{name}{value}")));
        }
        out
    }

    /// A lookup of a flag the table does not declare is a bug in the
    /// binary: the parse would have rejected it, so it could never be set.
    fn check_declared(&self, flag: &str) {
        debug_assert!(
            self.table.iter().any(|(name, ..)| *name == flag),
            "{flag} is not in the flag table"
        );
    }

    /// Every value of a repeatable `--flag VALUE`, in order.
    pub fn all(&self, flag: &str) -> Vec<String> {
        self.check_declared(flag);
        self.given
            .iter()
            .filter(|(name, _)| *name == flag)
            .filter_map(|(_, value)| value.clone())
            .collect()
    }

    /// The value of `--flag VALUE` (the last one wins).
    pub fn get(&self, flag: &str) -> Option<String> {
        self.all(flag).pop()
    }

    /// Whether the value-less `--flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.check_declared(flag);
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// The parsed value of `--flag VALUE`, if given; an unparseable
    /// value prints a message and exits 2.
    pub fn opt<T>(&self, flag: &str) -> Option<T>
    where
        T: FromStr,
        T::Err: Display,
    {
        self.get(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|e| Flags::die(&format!("{flag}: invalid value {v:?}: {e}")))
        })
    }

    /// [`Flags::opt`] with a default.
    pub fn num<T>(&self, flag: &str, default: T) -> T
    where
        T: FromStr,
        T::Err: Display,
    {
        self.opt(flag).unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Spec] = &[
        ("--listen", true, "address to bind"),
        ("--node", true, "backend address (repeatable)"),
        ("--workers", true, "worker threads"),
        ("--drop", false, "drop on a full queue"),
    ];

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(TABLE, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn unknown_flag_is_rejected() {
        // The typo that used to serve with the default worker count.
        let err = parse(&["--listen", "127.0.0.1:0", "--worker", "4"]).unwrap_err();
        assert!(err.contains("--worker"), "{err}");
    }

    #[test]
    fn repeated_flag_is_collected_in_order() {
        let flags = parse(&["--node", "a:1", "--drop", "--node", "b:2"]).unwrap();
        assert_eq!(flags.all("--node"), ["a:1", "b:2"]);
        assert_eq!(flags.get("--node").as_deref(), Some("b:2"));
        assert!(flags.has("--drop"));
        assert_eq!(flags.get("--listen"), None);
        assert_eq!(flags.num("--workers", 2usize), 2);
    }

    #[test]
    fn value_less_value_flag_errors() {
        let err = parse(&["--drop", "--workers"]).unwrap_err();
        assert!(err.contains("--workers expects a value"), "{err}");
    }

    #[test]
    fn usage_lists_every_flag() {
        let usage = Flags::usage("demo", TABLE);
        assert!(usage.starts_with("usage: demo [flags]\n"), "{usage}");
        for (name, ..) in TABLE {
            assert!(usage.contains(name), "{usage}");
        }
    }
}
