//! Shared command-line parsing for the table-regeneration binaries.
//!
//! Every binary used to hand-roll the same `--width/--samples/--seed/
//! --threads` parsing with slightly different defaults; this module is
//! the one place those knobs live, returning values the unified
//! `scdp-campaign` API consumes directly. A value that does not parse
//! is a [`UsageError`], never a silent fallback to the default.

use scdp_campaign::{InputSpace, DEFAULT_SEED};
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

/// Parsed command-line arguments (flag/value pairs and bare flags).
#[derive(Clone, Debug, Default)]
pub struct CliArgs {
    raw: Vec<String>,
}

impl CliArgs {
    /// Captures the process arguments (program name excluded).
    #[must_use]
    pub fn parse() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds from an explicit vector (tests).
    #[must_use]
    pub fn from_vec(raw: Vec<String>) -> Self {
        Self { raw }
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

    fn args(list: &[&str]) -> CliArgs {
        CliArgs::from_vec(list.iter().map(ToString::to_string).collect())
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
    fn unparseable_values_are_rejected() {
        let a = args(&["--width", "tall"]);
        assert!(a.width(4).is_err(), "no silent fallback to the default");
        assert!(a.space(4, 64).is_ok(), "--width is not read by space()");
        assert!(args(&["--samples", "-1"]).space(4, 64).is_err());
        assert!(args(&["--seed"]).seed().is_err(), "a flag without a value");
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
