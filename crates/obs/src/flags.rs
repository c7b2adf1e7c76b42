//! Table-driven command-line flags, shared by every binary of the
//! workspace: `deepcsi-served`, `deepcsi-clusterd`, `obs-check` and the
//! bench binaries. It needs nothing but `std`, so it lives in this
//! dependency-free crate, which every binary already reaches.
//!
//! Each binary declares one table of [`Flag`] rows — name, what the
//! flag takes, its default, its help — and the table is the whole
//! grammar: a flag that is not in it is an error (a typo must not
//! silently run with defaults), `--help` prints it, and a lookup of a
//! flag that was not given falls back to its row's default. A default
//! is written once: in its row, or — for a flag that overrides a library
//! config field — in that config's `Default` (see [`Flags::set`]).

use std::fmt::Display;
use std::str::FromStr;

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// Nothing: the flag is a switch, given or not.
    Switch,
    /// A value, with no default (the flag is optional, required, or
    /// overrides a library default).
    Value,
    /// A value, defaulting to this one when the flag is not given.
    Default(&'static str),
}

/// One row of a flag table: `(name, what it takes, help)`.
pub type Flag = (&'static str, Arg, &'static str);

/// A command line parsed against a flag table.
#[derive(Debug)]
pub struct Flags {
    table: &'static [Flag],
    /// The flags given, in order; switches carry `None`.
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
        table: &'static [Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let &(name, takes, _) = table
                .iter()
                .find(|(name, ..)| *name == arg)
                .ok_or_else(|| format!("unknown flag {arg:?}"))?;
            let value = match takes {
                Arg::Switch => None,
                Arg::Value | Arg::Default(_) => Some(
                    args.next()
                        .ok_or_else(|| format!("{name} expects a value"))?,
                ),
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
        table: &'static [Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Flags {
        let args: Vec<String> = args.into_iter().collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", Flags::usage(synopsis, table));
            std::process::exit(0);
        }
        Flags::parse(table, args).unwrap_or_else(|e| Flags::die(&e))
    }

    /// [`Flags::parse_or_exit`] over this process's own arguments, with
    /// the program's file name as the synopsis.
    pub fn from_env(table: &'static [Flag]) -> Flags {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let program = std::path::Path::new(&program)
            .file_name()
            .map_or(program.clone(), |name| name.to_string_lossy().into_owned());
        Flags::parse_or_exit(&program, table, args)
    }

    /// The usage text: the synopsis line, then one line per flag with
    /// its default, if its row has one.
    pub fn usage(synopsis: &str, table: &[Flag]) -> String {
        let mut out = format!("usage: {synopsis} [flags]\n");
        for (name, takes, help) in table {
            let (value, default) = match takes {
                Arg::Switch => ("", String::new()),
                Arg::Value => (" VALUE", String::new()),
                Arg::Default(d) => (" VALUE", format!(" (default {d})")),
            };
            out.push_str(&format!(
                "  {:<26} {help}{default}\n",
                format!("{name}{value}")
            ));
        }
        out
    }

    /// The row of `flag`. A lookup of a flag the table does not declare
    /// is a bug in the binary: the parse would have rejected it, so it
    /// could never be set.
    fn row(&self, flag: &str) -> &Flag {
        self.table
            .iter()
            .find(|(name, ..)| *name == flag)
            .unwrap_or_else(|| panic!("{flag} is not in the flag table"))
    }

    /// Every value of a repeatable `--flag VALUE`, in order.
    pub fn all(&self, flag: &str) -> Vec<String> {
        self.row(flag);
        self.given
            .iter()
            .filter(|(name, _)| *name == flag)
            .filter_map(|(_, value)| value.clone())
            .collect()
    }

    /// Whether `--flag` was given (a switch, or a value flag whatever
    /// its value).
    pub fn has(&self, flag: &str) -> bool {
        self.row(flag);
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// The value of `--flag VALUE` (the last one wins), else its row's
    /// default.
    pub fn get(&self, flag: &str) -> Option<String> {
        self.all(flag).pop().or_else(|| match self.row(flag).1 {
            Arg::Default(d) => Some(d.to_string()),
            Arg::Switch | Arg::Value => None,
        })
    }

    /// The parsed [`Flags::get`]; an unparseable value prints a message
    /// naming the flag and exits 2.
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

    /// The parsed value of a flag whose row has a default.
    ///
    /// # Panics
    ///
    /// When the row has no default — a bug in the binary's table.
    pub fn value<T>(&self, flag: &str) -> T
    where
        T: FromStr,
        T::Err: Display,
    {
        self.opt(flag)
            .unwrap_or_else(|| panic!("{flag} has no default in its row"))
    }

    /// Overwrites `slot` — a library config field, which keeps its own
    /// `Default` — with the parsed value of `--flag`, if given.
    pub fn set<T>(&self, flag: &str, slot: &mut T)
    where
        T: FromStr,
        T::Err: Display,
    {
        if let Some(v) = self.opt(flag) {
            *slot = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        ("--listen", Arg::Value, "address to bind"),
        ("--node", Arg::Value, "backend address (repeatable)"),
        ("--workers", Arg::Default("2"), "worker threads"),
        ("--drop", Arg::Switch, "drop on a full queue"),
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
        assert_eq!(flags.value::<usize>("--workers"), 2);
    }

    #[test]
    fn defaults_come_from_the_row_and_given_values_win() {
        let flags = parse(&["--workers", "5"]).unwrap();
        assert_eq!(flags.value::<usize>("--workers"), 5);
        assert!(flags.has("--workers"));
        let flags = parse(&[]).unwrap();
        assert!(!flags.has("--workers"), "a default is not a given flag");
        let mut slot = 9usize;
        flags.set("--listen", &mut slot);
        assert_eq!(slot, 9, "set leaves the library default alone");
    }

    #[test]
    fn value_less_value_flag_errors() {
        let err = parse(&["--drop", "--workers"]).unwrap_err();
        assert!(err.contains("--workers expects a value"), "{err}");
    }

    #[test]
    fn usage_lists_every_flag_once_with_its_default() {
        let usage = Flags::usage("demo", TABLE);
        assert!(usage.starts_with("usage: demo [flags]\n"), "{usage}");
        for (name, ..) in TABLE {
            assert_eq!(usage.matches(name).count(), 1, "{usage}");
        }
        assert!(usage.contains("worker threads (default 2)"), "{usage}");
    }
}
