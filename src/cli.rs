//! Argument parsing for the `raf` command-line tool.
//!
//! Hand-rolled (the approved dependency set has no argument parser):
//! `raf <command> [--flag value]...` with typed accessors and helpful
//! errors. Each subcommand declares the flags it reads in a
//! [`CommandSpec`]; any other flag is an error, so a misspelled or
//! retired flag can never be silently ignored.

use std::collections::HashMap;
use std::fmt;

/// The flags one subcommand reads: `flags` take a value, `switches` are
/// value-less booleans (query them with [`CliArgs::is_set`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandSpec {
    /// The subcommand's name.
    pub name: &'static str,
    /// Flags given as `--flag value`.
    pub flags: &'static [&'static str],
    /// Flags given as a bare `--switch`.
    pub switches: &'static [&'static str],
}

/// A parsed command line: the subcommand and its `--key value` flags.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: HashMap<String, String>,
}

/// Errors from CLI parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not one of the declared commands.
    UnknownCommand {
        /// The unrecognized subcommand.
        command: String,
    },
    /// A flag the subcommand does not read. Ignoring it would hide a
    /// typo or a retired flag: `raf run --budgt 0` would run with the
    /// default budget.
    UnknownFlag {
        /// The subcommand.
        command: String,
        /// The unrecognized flag.
        flag: String,
    },
    /// A flag was not followed by a value.
    MissingValue {
        /// The flag lacking a value.
        flag: String,
    },
    /// A token didn't look like `--flag`.
    UnexpectedToken {
        /// The offending token.
        token: String,
    },
    /// A required flag is absent.
    MissingFlag {
        /// The required flag.
        flag: String,
    },
    /// A flag value failed to parse.
    InvalidValue {
        /// The flag.
        flag: String,
        /// The raw value.
        value: String,
    },
    /// A flag was given more than once. Repeats used to silently
    /// last-win (`raf run --seed 1 --seed 2` ran with 2 and no
    /// diagnostic), which hides typos in long command lines.
    DuplicateFlag {
        /// The repeated flag.
        flag: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "missing subcommand (try --help)"),
            CliError::UnknownCommand { command } => {
                write!(f, "unknown command {command:?} (try --help)")
            }
            CliError::UnknownFlag { command, flag } => {
                write!(f, "{command} takes no flag --{flag} (try --help)")
            }
            CliError::MissingValue { flag } => write!(f, "flag --{flag} needs a value"),
            CliError::UnexpectedToken { token } => write!(f, "unexpected token {token:?}"),
            CliError::MissingFlag { flag } => write!(f, "required flag --{flag} is missing"),
            CliError::InvalidValue { flag, value } => {
                write!(f, "invalid value {value:?} for --{flag}")
            }
            CliError::DuplicateFlag { flag } => {
                write!(f, "flag --{flag} given more than once")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Whether a raw argument vector is a help request: no arguments at all,
/// a leading `help` word, or `--help` at **any** position. The
/// any-position rule matters because `--help` is in no subcommand's
/// [`CommandSpec`], so letting it reach the parser would reject it as an
/// unknown flag.
pub fn wants_help<S: AsRef<str>>(args: &[S]) -> bool {
    args.is_empty()
        || args.first().is_some_and(|a| a.as_ref() == "help")
        || args.iter().any(|a| a.as_ref() == "--help")
}

impl CliArgs {
    /// Parses raw arguments (excluding the program name) against the
    /// subcommands' declared flags: the first argument names one of
    /// `commands`, and every later `--flag` must be one of its
    /// [`flags`](CommandSpec::flags) (which consume the next token as
    /// their value) or [`switches`](CommandSpec::switches) (which store
    /// `"true"`).
    ///
    /// # Errors
    ///
    /// See [`CliError`]; an undeclared flag fails as
    /// [`CliError::UnknownFlag`] before its value is read.
    pub fn parse<I, S>(args: I, commands: &[CommandSpec]) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = args.into_iter().map(Into::into);
        let command = iter.next().ok_or(CliError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(CliError::MissingCommand);
        }
        let spec = commands
            .iter()
            .find(|c| c.name == command)
            .ok_or_else(|| CliError::UnknownCommand { command: command.clone() })?;
        let mut flags = HashMap::new();
        while let Some(token) = iter.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(CliError::UnexpectedToken { token });
            };
            let value = if spec.switches.contains(&name) {
                "true".to_string()
            } else if spec.flags.contains(&name) {
                iter.next().ok_or_else(|| CliError::MissingValue { flag: name.to_string() })?
            } else {
                return Err(CliError::UnknownFlag { command, flag: name.to_string() });
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(CliError::DuplicateFlag { flag: name.to_string() });
            }
        }
        Ok(CliArgs { command, flags })
    }

    /// Whether a boolean switch was given (see [`CommandSpec::switches`]).
    pub fn is_set(&self, flag: &str) -> bool {
        self.get(flag) == Some("true")
    }

    /// A string flag, if present.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// [`CliError::MissingFlag`] when absent.
    pub fn require(&self, flag: &str) -> Result<&str, CliError> {
        self.get(flag).ok_or_else(|| CliError::MissingFlag { flag: flag.to_string() })
    }

    /// A typed flag with a default.
    ///
    /// # Errors
    ///
    /// [`CliError::InvalidValue`] when present but unparseable.
    pub fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| CliError::InvalidValue {
                flag: flag.to_string(),
                value: raw.to_string(),
            }),
        }
    }

    /// An optional typed flag: `Ok(None)` when absent, `Ok(Some(v))`
    /// when present and parseable. Unlike [`get_or`](Self::get_or) there
    /// is no default — the caller keeps "not given" distinguishable from
    /// any sentinel value (e.g. an optional cap where every number is a
    /// legal cap).
    ///
    /// # Errors
    ///
    /// [`CliError::InvalidValue`] when present but unparseable.
    pub fn get_typed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        match self.get(flag) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| CliError::InvalidValue {
                flag: flag.to_string(),
                value: raw.to_string(),
            }),
        }
    }

    /// A required typed flag.
    ///
    /// # Errors
    ///
    /// [`CliError::MissingFlag`] or [`CliError::InvalidValue`].
    pub fn require_typed<T: std::str::FromStr>(&self, flag: &str) -> Result<T, CliError> {
        let raw = self.require(flag)?;
        raw.parse()
            .map_err(|_| CliError::InvalidValue { flag: flag.to_string(), value: raw.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small command table in the shape of `raf`'s own.
    const COMMANDS: &[CommandSpec] = &[
        CommandSpec { name: "run", flags: &["graph", "alpha", "budget", "seed"], switches: &[] },
        CommandSpec { name: "vmax", flags: &["s", "t"], switches: &[] },
        CommandSpec {
            name: "serve",
            flags: &["graph", "work-budget", "deadline-ms", "max-query-walks"],
            switches: &[],
        },
        CommandSpec {
            name: "bench-json",
            flags: &["scenario", "out"],
            switches: &["quick", "list-scenarios"],
        },
    ];

    fn parse(args: &[&str]) -> Result<CliArgs, CliError> {
        CliArgs::parse(args.iter().copied(), COMMANDS)
    }

    #[test]
    fn parses_command_and_flags() {
        let args = parse(&["run", "--graph", "g.txt", "--alpha", "0.3"]).unwrap();
        assert_eq!(args.command, "run");
        assert_eq!(args.get("graph"), Some("g.txt"));
        assert_eq!(args.get_or("alpha", 0.0).unwrap(), 0.3);
        assert_eq!(args.get_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_missing_command() {
        assert_eq!(parse(&[]), Err(CliError::MissingCommand));
        assert_eq!(parse(&["--graph", "v"]), Err(CliError::MissingCommand));
        assert_eq!(parse(&["walk"]), Err(CliError::UnknownCommand { command: "walk".into() }));
    }

    #[test]
    fn rejects_dangling_flag() {
        assert_eq!(
            parse(&["run", "--graph"]),
            Err(CliError::MissingValue { flag: "graph".into() })
        );
    }

    #[test]
    fn rejects_positional_after_command() {
        assert!(matches!(parse(&["run", "stray"]), Err(CliError::UnexpectedToken { .. })));
    }

    #[test]
    fn rejects_flags_the_command_does_not_read() {
        let unknown = |command: &str, flag: &str| {
            Err(CliError::UnknownFlag { command: command.into(), flag: flag.into() })
        };
        // Ignored, a misspelled budget would run the default budget...
        assert_eq!(parse(&["run", "--graph", "g.txt", "--budgt", "0"]), unknown("run", "budgt"));
        // ...and a misspelled cap would serve without one.
        assert_eq!(
            parse(&["serve", "--graph", "g.txt", "--max-query-walk", "5"]),
            unknown("serve", "max-query-walk")
        );
        // A retired flag fails the same way.
        assert_eq!(parse(&["run", "--relabel", "rcm"]), unknown("run", "relabel"));
        // Another command's flag is as unknown as a made-up one, and the
        // check fires before the flag's value is read.
        assert_eq!(parse(&["vmax", "--quick"]), unknown("vmax", "quick"));
        assert_eq!(parse(&["vmax", "--alpha"]), unknown("vmax", "alpha"));
        assert_eq!(
            CliError::UnknownFlag { command: "run".into(), flag: "budgt".into() }.to_string(),
            "run takes no flag --budgt (try --help)"
        );
    }

    #[test]
    fn optional_typed_flags() {
        let args = parse(&["serve", "--work-budget", "50000"]).unwrap();
        assert_eq!(args.get_typed::<u64>("work-budget").unwrap(), Some(50_000));
        assert_eq!(args.get_typed::<u64>("deadline-ms").unwrap(), None);
        assert_eq!(
            args.get_typed::<u64>("work-budget").unwrap().is_some(),
            args.get("work-budget").is_some(),
            "absence must stay observable"
        );
        let bad = parse(&["serve", "--work-budget", "soon"]).unwrap();
        assert_eq!(
            bad.get_typed::<u64>("work-budget"),
            Err(CliError::InvalidValue { flag: "work-budget".into(), value: "soon".into() })
        );
    }

    #[test]
    fn required_flags() {
        let args = parse(&["vmax", "--s", "1"]).unwrap();
        assert_eq!(args.require_typed::<usize>("s").unwrap(), 1);
        assert!(matches!(args.require("t"), Err(CliError::MissingFlag { .. })));
        let bad = parse(&["vmax", "--s", "xyz"]).unwrap();
        assert!(matches!(bad.require_typed::<usize>("s"), Err(CliError::InvalidValue { .. })));
    }

    #[test]
    fn switches_take_no_value() {
        let args =
            parse(&["bench-json", "--quick", "--scenario", "ring_10k_t1", "--list-scenarios"])
                .unwrap();
        assert!(args.is_set("quick"));
        assert!(args.is_set("list-scenarios"));
        assert!(!args.is_set("scenario"));
        assert_eq!(args.get("scenario"), Some("ring_10k_t1"));
        // A trailing switch is fine; a trailing valued flag is not.
        assert!(parse(&["bench-json", "--quick"]).is_ok());
        assert_eq!(
            parse(&["bench-json", "--out"]),
            Err(CliError::MissingValue { flag: "out".into() })
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(CliError::MissingCommand.to_string(), "missing subcommand (try --help)");
        assert!(CliError::MissingFlag { flag: "t".into() }.to_string().contains("--t"));
        assert!(CliError::DuplicateFlag { flag: "seed".into() }.to_string().contains("--seed"));
    }

    #[test]
    fn rejects_repeated_flags() {
        // The old parser silently kept the last value; now the repeat is
        // a hard error whether the values differ or not.
        assert_eq!(
            parse(&["run", "--seed", "1", "--seed", "2"]),
            Err(CliError::DuplicateFlag { flag: "seed".into() })
        );
        assert_eq!(
            parse(&["run", "--seed", "1", "--seed", "1"]),
            Err(CliError::DuplicateFlag { flag: "seed".into() })
        );
        // Repeated switches are just as wrong.
        assert_eq!(
            parse(&["bench-json", "--quick", "--quick"]),
            Err(CliError::DuplicateFlag { flag: "quick".into() })
        );
        // Distinct flags still parse.
        let ok = parse(&["run", "--seed", "1", "--alpha", "0.2"]).unwrap();
        assert_eq!(ok.get("seed"), Some("1"));
    }

    #[test]
    fn help_is_detected_at_any_position() {
        assert!(wants_help::<&str>(&[]));
        assert!(wants_help(&["help"]));
        assert!(wants_help(&["--help"]));
        assert!(wants_help(&["bench-json", "--help"]));
        assert!(wants_help(&["bench-json", "--quick", "--help"]));
        assert!(wants_help(&["serve", "--graph", "g.txt", "--help"]));
        assert!(!wants_help(&["bench-json", "--quick"]));
        // `help` only counts in command position — as a flag *value* it
        // is data (`--out help` names a file).
        assert!(!wants_help(&["run", "--out", "help"]));
    }
}
