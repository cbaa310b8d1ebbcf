//! Shared command-line parsing for the table-regeneration binaries and
//! the `scdp` verbs.
//!
//! Every binary used to hand-roll the same `--width/--samples/--seed/
//! --threads` parsing with slightly different defaults; this module is
//! the one place those knobs live, returning values the unified
//! `scdp-campaign` API consumes directly. Each binary and each `scdp`
//! verb declares the [`Flag`]s it takes, and [`CliArgs::checked`]
//! checks the whole command line against them before any work starts:
//! an unknown, repeated or value-less flag, a stray argument, or a
//! value that does not parse or is out of range is a [`UsageError`],
//! never a silent fallback to the default. A verb that reads files
//! declares [`Flag::FILES`]; only then are bare arguments accepted.

use scdp_campaign::{InputSpace, DEFAULT_SEED, MAX_THREADS, MAX_WIDTH};
use scdp_sim::par;
use std::fmt;
use std::str::FromStr;

/// A command line that cannot be honoured: an unparseable or invalid
/// flag value. The binaries exit 2 on it ([`OrUsageExit`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// The table binaries' one failure path for bad flags and invalid
/// scenarios: print the error and exit 2.
pub trait OrUsageExit<T> {
    /// The value, or — on an error — the error on stderr and exit
    /// code 2.
    fn or_usage_exit(self) -> T;
}

impl<T, E: fmt::Display> OrUsageExit<T> for Result<T, E> {
    fn or_usage_exit(self) -> T {
        self.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }
}

/// One flag a binary takes: its spelling and what its value must be.
#[derive(Copy, Clone, Debug)]
pub struct Flag {
    name: &'static str,
    value: Expect,
}

/// The value a [`Flag`] expects.
#[derive(Copy, Clone, Debug)]
enum Expect {
    /// None: a bare switch.
    Nothing,
    /// Any text (a file or directory).
    Text,
    /// An integer in `lo..=hi`.
    Int(u64, u64),
    /// A decimal number.
    Real,
    /// One of these labels.
    OneOf(&'static [&'static str]),
    /// Not a flag: bare arguments (file names) are accepted.
    Files,
}

impl Flag {
    /// A bare switch.
    #[must_use]
    pub const fn switch(name: &'static str) -> Self {
        Self {
            name,
            value: Expect::Nothing,
        }
    }

    /// A flag taking any text, such as a file name.
    #[must_use]
    pub const fn text(name: &'static str) -> Self {
        Self {
            name,
            value: Expect::Text,
        }
    }

    /// A flag taking an integer in `lo..=hi`.
    #[must_use]
    pub const fn int(name: &'static str, lo: u64, hi: u64) -> Self {
        Self {
            name,
            value: Expect::Int(lo, hi),
        }
    }

    /// A flag taking a decimal number.
    #[must_use]
    pub const fn real(name: &'static str) -> Self {
        Self {
            name,
            value: Expect::Real,
        }
    }

    /// A flag taking one of `labels`.
    #[must_use]
    pub const fn one_of(name: &'static str, labels: &'static [&'static str]) -> Self {
        Self {
            name,
            value: Expect::OneOf(labels),
        }
    }

    /// `--width N`, a campaign operand width.
    pub const WIDTH: Flag = Flag::int("--width", 1, MAX_WIDTH as u64);
    /// `--samples N`, Monte-Carlo vectors per fault / per campaign.
    pub const SAMPLES: Flag = Flag::int("--samples", 1, u64::MAX);
    /// `--seed S`.
    pub const SEED: Flag = Flag::int("--seed", 0, u64::MAX);
    /// `--threads N`, the worker count.
    pub const THREADS: Flag = Flag::int("--threads", 1, MAX_THREADS);
    /// `--monte-carlo`, sampled inputs at every width ([`CliArgs::space`]).
    pub const MONTE_CARLO: Flag = Flag::switch("--monte-carlo");
    /// Bare arguments, read back with [`CliArgs::files`].
    pub const FILES: Flag = Flag {
        name: "FILE",
        value: Expect::Files,
    };

    /// The flag's spelling.
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// `true` if the flag is followed by a value.
    pub(crate) fn takes_value(&self) -> bool {
        !matches!(self.value, Expect::Nothing | Expect::Files)
    }

    /// Checks `text` as this flag's value.
    fn check(&self, text: &str) -> Result<(), UsageError> {
        let ok = match self.value {
            Expect::Nothing | Expect::Text | Expect::Files => true,
            Expect::Int(lo, hi) => text.parse::<u64>().is_ok_and(|n| (lo..=hi).contains(&n)),
            Expect::Real => text.parse::<f64>().is_ok(),
            Expect::OneOf(labels) => labels.contains(&text),
        };
        if ok {
            return Ok(());
        }
        let expected = match self.value {
            Expect::Int(lo, hi) if hi == u64::MAX => format!("an integer ≥ {lo}"),
            Expect::Int(lo, hi) => format!("an integer in {lo}..={hi}"),
            Expect::OneOf(labels) => labels.join("|"),
            _ => "a number".to_string(),
        };
        Err(UsageError(format!(
            "invalid value `{text}` for `{}`: expected {expected}",
            self.name
        )))
    }
}

/// Parsed command-line arguments (flag/value pairs, bare flags and,
/// where declared, file arguments).
#[derive(Clone, Debug, Default)]
pub struct CliArgs {
    raw: Vec<String>,
    files: Vec<String>,
}

impl CliArgs {
    /// Captures the process arguments (program name excluded) and
    /// checks them against `flags` ([`CliArgs::checked`]).
    ///
    /// # Errors
    ///
    /// As [`CliArgs::checked`].
    pub fn parse(flags: &[Flag]) -> Result<Self, UsageError> {
        Self::checked(std::env::args().skip(1).collect(), flags)
    }

    /// Checks `raw` against `flags`: every argument must be one of
    /// them, given once, followed by a valid value if it takes one —
    /// or, when `flags` holds [`Flag::FILES`], a bare argument not
    /// starting with `-`.
    ///
    /// # Errors
    ///
    /// A [`UsageError`] naming the first argument that fails.
    pub fn checked(raw: Vec<String>, flags: &[Flag]) -> Result<Self, UsageError> {
        let takes_files = flags.iter().any(|f| matches!(f.value, Expect::Files));
        let mut seen = Vec::new();
        let mut files = Vec::new();
        let mut args = raw.iter();
        while let Some(arg) = args.next() {
            if takes_files && !arg.starts_with('-') {
                files.push(arg.clone());
                continue;
            }
            let Some(flag) = flags.iter().find(|f| f.name == arg) else {
                let names: Vec<&str> = flags.iter().map(|f| f.name).collect();
                return Err(UsageError(format!(
                    "unknown argument `{arg}`; expected {}",
                    names.join(", ")
                )));
            };
            if seen.contains(&flag.name) {
                return Err(UsageError(format!("`{arg}` given twice")));
            }
            seen.push(flag.name);
            if flag.takes_value() {
                let text = args
                    .next()
                    .filter(|t| !t.starts_with("--"))
                    .ok_or_else(|| UsageError(format!("`{arg}` expects a value")))?;
                flag.check(text)?;
            }
        }
        Ok(Self { raw, files })
    }

    /// The bare (file) arguments, in order.
    #[must_use]
    pub fn files(&self) -> &[String] {
        &self.files
    }

    /// The value following `flag`, parsed; `None` when the flag is
    /// absent.
    ///
    /// # Errors
    ///
    /// A [`UsageError`] when the flag has no value or the value does
    /// not parse as `T`.
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, UsageError> {
        let Some(i) = self.raw.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        let text = self
            .raw
            .get(i + 1)
            .ok_or_else(|| UsageError(format!("`{flag}` expects a value")))?;
        text.parse()
            .map(Some)
            .map_err(|_| UsageError(format!("invalid value `{text}` for `{flag}`")))
    }

    /// The value following `flag`, or `default` when it is absent.
    ///
    /// # Errors
    ///
    /// As [`CliArgs::value`].
    pub fn value_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, UsageError> {
        Ok(self.value(flag)?.unwrap_or(default))
    }

    /// `true` if the bare flag is present.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// `--width N` (campaign operand width).
    ///
    /// # Errors
    ///
    /// As [`CliArgs::value`].
    pub fn width(&self, default: u32) -> Result<u32, UsageError> {
        self.value_or("--width", default)
    }

    /// `--samples N` (Monte-Carlo vectors per fault / per campaign).
    ///
    /// # Errors
    ///
    /// As [`CliArgs::value`].
    pub fn samples(&self, default: u64) -> Result<u64, UsageError> {
        self.value_or("--samples", default)
    }

    /// `--seed S` (defaults to [`DEFAULT_SEED`]).
    ///
    /// # Errors
    ///
    /// As [`CliArgs::value`].
    pub fn seed(&self) -> Result<u64, UsageError> {
        self.value_or("--seed", DEFAULT_SEED)
    }

    /// `--threads N` (defaults to all available cores).
    ///
    /// # Errors
    ///
    /// As [`CliArgs::value`].
    pub fn threads(&self) -> Result<usize, UsageError> {
        self.value_or("--threads", par::default_threads())
    }

    /// The standard input-space policy for `width`: exhaustive while
    /// small, `--samples`-sized seeded Monte-Carlo beyond (and always
    /// sampled under `--monte-carlo`).
    ///
    /// # Errors
    ///
    /// As [`CliArgs::value`].
    pub fn space(&self, width: u32, default_samples: u64) -> Result<InputSpace, UsageError> {
        let per_fault = self.samples(default_samples)?;
        let seed = self.seed()?;
        if self.flag("--monte-carlo") {
            return Ok(InputSpace::Sampled { per_fault, seed });
        }
        Ok(InputSpace::auto(width, per_fault, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::WIDTH,
        Flag::THREADS,
        Flag::SAMPLES,
        Flag::SEED,
        Flag::MONTE_CARLO,
        Flag::switch("--gate"),
        Flag::switch("--fast"),
        Flag::text("--report"),
        Flag::real("--tolerance"),
        Flag::one_of("--model", &["gate", "cell"]),
    ];

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    fn checked(list: &[&str]) -> Result<CliArgs, UsageError> {
        CliArgs::checked(strings(list), FLAGS)
    }

    fn args(list: &[&str]) -> CliArgs {
        checked(list).expect("valid command line")
    }

    #[test]
    fn declared_flags_with_valid_values_pass() {
        let a = checked(&[
            "--width",
            "8",
            "--gate",
            "--report",
            "r.json",
            "--tolerance",
            "0.5",
            "--model",
            "cell",
            "--threads",
            "2",
        ])
        .expect("valid command line");
        assert_eq!(a.width(4), Ok(8));
        assert_eq!(a.threads(), Ok(2));
        assert!(a.flag("--gate"));
        assert!(checked(&[]).is_ok());
    }

    #[test]
    fn every_mistake_is_caught_before_any_value_is_read() {
        for bad in [
            &["--widht", "2"][..],
            &["--width", "2", "--width", "3"],
            &["--width"],
            &["--report", "--gate"],
            &["--width", "0"],
            &["--width", "33"],
            &["--width", "tall"],
            &["--threads", "0"],
            &["--tolerance", "lots"],
            &["--model", "switch"],
            &["--gate", "3"],
            &["--samples", "-1"],
            &["--seed"],
            &["stray"],
        ] {
            let err = checked(bad).expect_err(&format!("{bad:?} is rejected"));
            assert!(!err.0.is_empty(), "{bad:?}");
        }
        let err = checked(&["--widht", "2"]).unwrap_err();
        assert!(
            err.0.contains("--widht") && err.0.contains("--width"),
            "{err}"
        );
    }

    #[test]
    fn values_flags_and_defaults() {
        let a = args(&["--width", "8", "--fast", "--seed", "7"]);
        assert_eq!(a.width(4), Ok(8));
        assert_eq!(a.samples(1 << 14), Ok(1 << 14));
        assert_eq!(a.seed(), Ok(7));
        assert!(a.flag("--fast"));
        assert!(!a.flag("--slow"));
        assert_eq!(a.value::<u32>("--missing"), Ok(None));
        assert_eq!(args(&[]).seed(), Ok(DEFAULT_SEED));
    }

    #[test]
    fn typed_reads_reject_text_the_grammar_let_through() {
        let a = args(&["--report", "r.json"]);
        assert!(a.value::<u32>("--report").is_err(), "no silent fallback");
        assert_eq!(a.value::<String>("--report"), Ok(Some("r.json".into())));
    }

    #[test]
    fn files_are_accepted_only_where_declared() {
        let flags = [Flag::FILES, Flag::text("--dir"), Flag::switch("--per-fu")];
        let raw = strings(&["--dir", "ckpt", "a.json", "--per-fu", "b.json"]);
        let a = CliArgs::checked(raw, &flags).expect("files declared");
        assert_eq!(a.files(), strings(&["a.json", "b.json"]));
        assert_eq!(a.value::<String>("--dir"), Ok(Some("ckpt".into())));
        assert!(a.flag("--per-fu"));
        for bad in [&["--bogus", "t.jsonl"][..], &["--dir"], &["a.json", "-x"]] {
            assert!(CliArgs::checked(strings(bad), &flags).is_err(), "{bad:?}");
        }
        assert!(
            checked(&["a.json"]).is_err(),
            "no files without Flag::FILES"
        );
    }

    #[test]
    fn space_switches_on_width_and_flag() {
        let a = args(&["--samples", "64"]);
        assert_eq!(a.space(4, 128), Ok(InputSpace::Exhaustive));
        assert_eq!(
            a.space(16, 128),
            Ok(InputSpace::Sampled {
                per_fault: 64,
                seed: DEFAULT_SEED
            })
        );
        let mc = args(&["--monte-carlo"]);
        assert!(matches!(mc.space(2, 128), Ok(InputSpace::Sampled { .. })));
    }
}
