//! The one run-spec vocabulary: a key table and a strict resolver
//! shared by every surface that describes a campaign.
//!
//! [`KEYS`] lists every key a campaign description may carry — its
//! name, type, default, valid range or label set and the campaign
//! shapes it applies to. Two thin front-ends read it:
//!
//! * [`RunSpec::from_json`] — one flat JSON object (`POST /jobs`, the
//!   job server's resume scan, `scdp submit`);
//! * [`RunSpec::from_argv`] — command-line flags (`scdp run`, `lint`,
//!   `analyze`, `sweep`): each key is spelled `--key` with `_` written
//!   as `-`, a boolean key is a bare flag, and `--seq` / `--dedicated`
//!   abbreviate `--kind sequential` / `--allocation dedicated`.
//!
//! Both hand their `(key, value)` pairs to one resolver, so a point
//! means the same campaign — the same
//! [`config_fingerprint`](crate::CampaignJob::config_fingerprint) and
//! shard count — on the command line and on the wire. Unknown,
//! duplicate, mistyped, out-of-range and wrong-shape keys are
//! [`CampaignError::Schema`] values, never silent defaults.
//!
//! ```
//! use scdp_campaign::RunSpec;
//!
//! let wire = RunSpec::from_json(r#"{"workload":"fir","width":3,"shards":2}"#)?;
//! let argv = RunSpec::from_argv(&["--workload", "fir", "--width", "3", "--shards", "2"])?;
//! assert_eq!(wire.job.config_fingerprint(), argv.job.config_fingerprint());
//! assert_eq!(wire.shards, argv.shards);
//! assert!(RunSpec::from_argv(&["--widht", "3"]).is_err());
//! # Ok::<(), scdp_campaign::CampaignError>(())
//! ```

use crate::datapath::{style_from_label, DatapathScenario, DfgSource};
use crate::error::CampaignError;
use crate::json::{self, Json};
use crate::report::{drop_from_label, duration_from_label};
use crate::runner::CampaignJob;
use crate::scenario::{
    allocation_from_label, op_from_label, realisation_from_label, technique_from_label, Backend,
    FaultModel, Scenario,
};
use crate::spec::{ExecPolicy, MAX_WIDTH};
use scdp_coverage::InputSpace;
use scdp_sim::Lanes;

/// The seed of a sampled input space when a spec names none.
pub const DEFAULT_SEED: u64 = 0xDA7E_2005;

/// The largest worker-thread count a spec may request.
pub const MAX_THREADS: u64 = 256;

/// The largest shard count a spec may request.
pub const MAX_SHARDS: u64 = 1024;

/// The three campaign shapes a spec resolves to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One checked operator ([`crate::CampaignSpec`]).
    Operator,
    /// An unrolled whole datapath ([`crate::DatapathCampaignSpec`]).
    Datapath,
    /// A cycle-accurate sequential datapath
    /// ([`crate::SeqDatapathCampaignSpec`]).
    Sequential,
}

impl Kind {
    /// Stable serialisation label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Kind::Operator => "operator",
            Kind::Datapath => "datapath",
            Kind::Sequential => "sequential",
        }
    }

    /// Parses a serialisation label.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Kind> {
        ALL.iter().copied().find(|k| k.label() == s)
    }
}

/// A key's value type, with its valid labels or range.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum KeyType {
    /// A string label; the payload lists the valid labels,
    /// `|`-separated.
    Label(&'static str),
    /// An unsigned integer in `min..=max`.
    U64 {
        /// Smallest valid value.
        min: u64,
        /// Largest valid value.
        max: u64,
    },
    /// `true`/`false` in JSON; a bare flag on the command line.
    Bool,
    /// The packed-engine lane width: `auto`, 1, 4 or 8 limbs.
    Lanes,
}

/// One typed key value, borrowed from the spec text or argument list.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Value<'a> {
    /// A [`KeyType::Label`] value (not yet checked against the set).
    Label(&'a str),
    /// A range-checked [`KeyType::U64`] value.
    U64(u64),
    /// A [`KeyType::Bool`] value.
    Bool(bool),
    /// A [`KeyType::Lanes`] value.
    Lanes(Lanes),
}

/// A key's value when a spec leaves it out.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Default {
    /// No value: the kind is inferred, the workload is required, and
    /// the thread count is all cores.
    Unset,
    /// The same value on both front-ends.
    Is(Value<'static>),
    /// A value per front-end: `argv` for [`RunSpec::from_argv`],
    /// `json` for [`RunSpec::from_json`].
    PerFrontEnd {
        /// The command-line default.
        argv: Value<'static>,
        /// The JSON (job server) default.
        json: Value<'static>,
    },
}

/// One entry of the run-spec key table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Key {
    /// The JSON spelling; the command line writes `--name` with `_`
    /// as `-`.
    pub name: &'static str,
    /// Value type and valid labels or range.
    pub ty: KeyType,
    /// The value of an absent key.
    pub default: Default,
    /// The campaign shapes the key applies to; naming it on another
    /// shape is an error.
    pub shapes: &'static [Kind],
}

const ALL: &[Kind] = &[Kind::Operator, Kind::Datapath, Kind::Sequential];
const OPERATOR: &[Kind] = &[Kind::Operator];
const DATAPATHS: &[Kind] = &[Kind::Datapath, Kind::Sequential];

/// A label key with its `|`-separated label set and default.
const fn label(name: &'static str, labels: &'static str, default: Option<&'static str>) -> Key {
    let default = match default {
        Some(l) => Default::Is(Value::Label(l)),
        None => Default::Unset,
    };
    Key {
        name,
        ty: KeyType::Label(labels),
        default,
        shapes: ALL,
    }
}

/// An integer key with its range and default.
const fn int(name: &'static str, min: u64, max: u64, default: Option<u64>) -> Key {
    let default = match default {
        Some(n) => Default::Is(Value::U64(n)),
        None => Default::Unset,
    };
    Key {
        name,
        ty: KeyType::U64 { min, max },
        default,
        shapes: ALL,
    }
}

/// A boolean key, off by default.
const fn flag(name: &'static str) -> Key {
    Key {
        name,
        ty: KeyType::Bool,
        default: Default::Is(Value::Bool(false)),
        shapes: ALL,
    }
}

/// `key` restricted to the campaign shapes `shapes`.
const fn only(shapes: &'static [Kind], key: Key) -> Key {
    Key { shapes, ..key }
}

/// Every key a campaign description may carry, in documentation
/// order (`docs/CAMPAIGN_API.md` renders the same table).
pub const KEYS: &[Key] = &[
    label("kind", "operator|datapath|sequential", None),
    int("width", 1, MAX_WIDTH as u64, Some(4)),
    label("technique", "tech1|tech2|both", Some("both")),
    label("allocation", "single-unit|dedicated", Some("single-unit")),
    only(OPERATOR, label("op", "add|sub|mul|div", Some("add"))),
    only(OPERATOR, label("realisation", "rca|cla|csa", Some("rca"))),
    only(
        OPERATOR,
        label("backend", "functional|gate-level", Some("functional")),
    ),
    only(
        OPERATOR,
        label("fault_model", "auto|fa-gate|cell|structural", Some("auto")),
    ),
    only(DATAPATHS, label("workload", "fir|iir|dot|matvec", None)),
    only(
        DATAPATHS,
        label("style", "plain|full|embedded", Some("full")),
    ),
    only(
        &[Kind::Sequential],
        label("duration", "permanent|transient@C", Some("permanent")),
    ),
    int("samples", 1, u64::MAX, Some(1024)),
    int("seed", 0, u64::MAX, Some(DEFAULT_SEED)),
    flag("exhaustive"),
    int("threads", 1, MAX_THREADS, None),
    Key {
        name: "lanes",
        ty: KeyType::Lanes,
        default: Default::Is(Value::Lanes(Lanes::Auto)),
        shapes: ALL,
    },
    label("drop", "never|on-detect|on-escape", Some("never")),
    flag("collapse"),
    flag("prune"),
    flag("telemetry"),
    Key {
        default: Default::PerFrontEnd {
            argv: Value::U64(1),
            json: Value::U64(4),
        },
        ..int("shards", 1, MAX_SHARDS, None)
    },
];

/// The command-line shorthands: `(flag, key, label)`.
const SHORTHANDS: &[(&str, &str, &str)] = &[
    ("--seq", "kind", "sequential"),
    ("--dedicated", "allocation", "dedicated"),
];

/// A resolved campaign description: the job and its shard count.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The campaign, ready for [`crate::CampaignRunner`] or a direct
    /// [`CampaignJob::run`].
    pub job: CampaignJob,
    /// How many shards to partition the fault universe into.
    pub shards: u32,
}

impl RunSpec {
    /// Resolves one flat JSON object.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Parse`] when the text is not JSON,
    /// [`CampaignError::Schema`] when it is not a valid spec.
    pub fn from_json(text: &str) -> Result<RunSpec, CampaignError> {
        let doc = json::parse(text)?;
        let Json::Obj(members) = &doc else {
            return Err(schema("spec", "expected a JSON object"));
        };
        let mut given = Given::new(FrontEnd::Json);
        for (name, value) in members {
            let key = key(name).ok_or_else(|| schema("spec", format!("unknown key `{name}`")))?;
            given.insert(key, json_value(key, value)?)?;
        }
        given.resolve()
    }

    /// Resolves a command-line argument list (without the program and
    /// verb names).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Schema`] for an unknown flag, a stray argument,
    /// a missing or invalid value, or an invalid spec.
    pub fn from_argv<S: AsRef<str>>(args: &[S]) -> Result<RunSpec, CampaignError> {
        let mut given = Given::new(FrontEnd::Argv);
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(arg) = args.next() {
            if let Some(&(_, name, label)) = SHORTHANDS.iter().find(|(flag, ..)| *flag == arg) {
                let key = key(name).expect("shorthands name table keys");
                given.insert(key, Value::Label(label))?;
                continue;
            }
            let Some(flag) = arg.strip_prefix("--") else {
                return Err(schema("spec", format!("unexpected argument `{arg}`")));
            };
            let key = KEYS
                .iter()
                .find(|k| argv_spelling(k.name, flag))
                .ok_or_else(|| schema("spec", format!("unknown flag `{arg}`")))?;
            let mut text = || {
                args.next()
                    .ok_or_else(|| schema(key.name, format!("`{arg}` expects a value")))
            };
            let value = match key.ty {
                KeyType::Bool => Value::Bool(true),
                KeyType::Label(_) => Value::Label(text()?),
                KeyType::U64 { min, max } => {
                    let text = text()?;
                    let n = text.parse::<u64>().map_err(|_| {
                        schema(
                            key.name,
                            format!("expected an unsigned integer, got `{text}`"),
                        )
                    })?;
                    in_range(key.name, min, max, n)?
                }
                KeyType::Lanes => {
                    let text = text()?;
                    if text == "auto" {
                        Value::Lanes(Lanes::Auto)
                    } else {
                        lanes(key.name, text.parse().ok())?
                    }
                }
            };
            given.insert(key, value)?;
        }
        given.resolve()
    }
}

/// Which front-end a spec came through (only shard defaults differ).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum FrontEnd {
    Argv,
    Json,
}

fn schema(field: &'static str, message: impl Into<String>) -> CampaignError {
    CampaignError::Schema {
        field,
        message: message.into(),
    }
}

/// The table entry named `name`.
fn key(name: &str) -> Option<&'static Key> {
    KEYS.iter().find(|k| k.name == name)
}

/// Whether `flag` (after `--`) is the command-line spelling of `name`.
fn argv_spelling(name: &str, flag: &str) -> bool {
    name.len() == flag.len()
        && name
            .bytes()
            .zip(flag.bytes())
            .all(|(n, f)| f == if n == b'_' { b'-' } else { n })
}

/// Checks an integer against a [`KeyType::U64`] range.
fn in_range(
    name: &'static str,
    min: u64,
    max: u64,
    n: u64,
) -> Result<Value<'static>, CampaignError> {
    if (min..=max).contains(&n) {
        Ok(Value::U64(n))
    } else {
        Err(schema(name, format!("{n} is out of range {min}..={max}")))
    }
}

/// An explicit lane width from its limb count.
fn lanes(name: &'static str, limbs: Option<u64>) -> Result<Value<'static>, CampaignError> {
    limbs
        .and_then(|n| usize::try_from(n).ok())
        .and_then(Lanes::from_limbs)
        .map(Value::Lanes)
        .ok_or_else(|| schema(name, "expected auto, 1, 4 or 8"))
}

/// Types one JSON member value by its key.
fn json_value<'a>(key: &Key, value: &'a Json) -> Result<Value<'a>, CampaignError> {
    match (key.ty, value) {
        (KeyType::Label(_), Json::Str(s)) => Ok(Value::Label(s)),
        (KeyType::Label(labels), _) => {
            Err(schema(key.name, format!("expected a string ({labels})")))
        }
        (KeyType::U64 { min, max }, Json::Int(i)) => match u64::try_from(*i) {
            Ok(n) => in_range(key.name, min, max, n),
            Err(_) => Err(schema(
                key.name,
                format!("{i} is out of range {min}..={max}"),
            )),
        },
        (KeyType::U64 { .. }, _) => Err(schema(key.name, "expected an unsigned integer")),
        (KeyType::Bool, Json::Bool(b)) => Ok(Value::Bool(*b)),
        (KeyType::Bool, _) => Err(schema(key.name, "expected a boolean")),
        (KeyType::Lanes, Json::Str(s)) if s == "auto" => Ok(Value::Lanes(Lanes::Auto)),
        (KeyType::Lanes, _) => lanes(key.name, value.as_u64()),
    }
}

/// The typed `(key, value)` pairs of one spec, in input order.
struct Given<'a> {
    front: FrontEnd,
    values: Vec<(&'static Key, Value<'a>)>,
}

impl<'a> Given<'a> {
    fn new(front: FrontEnd) -> Self {
        Given {
            front,
            values: Vec::new(),
        }
    }

    fn insert(&mut self, key: &'static Key, value: Value<'a>) -> Result<(), CampaignError> {
        if self.values.iter().any(|(k, _)| k.name == key.name) {
            return Err(schema(key.name, format!("`{}` given twice", key.name)));
        }
        self.values.push((key, value));
        Ok(())
    }

    /// The given value, or the key's default on this front-end.
    fn get(&self, name: &str) -> Option<Value<'a>> {
        if let Some((_, v)) = self.values.iter().find(|(k, _)| k.name == name) {
            return Some(*v);
        }
        match key(name)?.default {
            Default::Unset => None,
            Default::Is(v) => Some(v),
            Default::PerFrontEnd { argv, json } => Some(match self.front {
                FrontEnd::Argv => argv,
                FrontEnd::Json => json,
            }),
        }
    }

    fn given(&self, name: &str) -> bool {
        self.values.iter().any(|(k, _)| k.name == name)
    }

    fn flag(&self, name: &str) -> bool {
        self.get(name) == Some(Value::Bool(true))
    }

    fn num(&self, name: &'static str) -> Result<u64, CampaignError> {
        match self.get(name) {
            Some(Value::U64(n)) => Ok(n),
            _ => Err(schema(name, "missing")),
        }
    }

    /// Parses a label key's value (given or default) with `from_label`.
    fn label<T>(
        &self,
        name: &'static str,
        from_label: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, CampaignError> {
        let labels = match key(name).map(|k| k.ty) {
            Some(KeyType::Label(labels)) => labels,
            _ => "",
        };
        match self.get(name) {
            Some(Value::Label(s)) => from_label(s)
                .ok_or_else(|| schema(name, format!("unknown {name} `{s}` ({labels})"))),
            _ => Err(schema(name, format!("missing ({labels})"))),
        }
    }

    /// Infers the shape, rejects keys foreign to it and builds the job.
    fn resolve(&self) -> Result<RunSpec, CampaignError> {
        let kind = if self.given("kind") {
            self.label("kind", Kind::from_label)?
        } else if self.given("workload") {
            Kind::Datapath
        } else {
            Kind::Operator
        };
        if let Some((key, _)) = self.values.iter().find(|(k, _)| !k.shapes.contains(&kind)) {
            let shapes: Vec<&str> = key.shapes.iter().map(|s| s.label()).collect();
            return Err(schema(
                key.name,
                format!(
                    "`{}` does not apply to {} campaigns ({} only)",
                    key.name,
                    kind.label(),
                    shapes.join(", ")
                ),
            ));
        }

        // Range-checked by the front-ends: width ≤ MAX_WIDTH, threads ≤
        // MAX_THREADS and shards ≤ MAX_SHARDS all fit their targets.
        let width = self.num("width")? as u32;
        let technique = self.label("technique", technique_from_label)?;
        let allocation = self.label("allocation", allocation_from_label)?;
        let space = if self.flag("exhaustive") {
            InputSpace::Exhaustive
        } else {
            InputSpace::Sampled {
                per_fault: self.num("samples")?,
                seed: self.num("seed")?,
            }
        };
        let mut exec = ExecPolicy::new()
            .drop_policy(self.label("drop", drop_from_label)?)
            .collapse(self.flag("collapse"))
            .prune(self.flag("prune"))
            .telemetry(self.flag("telemetry"));
        if let Some(Value::U64(threads)) = self.get("threads") {
            exec = exec.threads(threads as usize);
        }
        if let Some(Value::Lanes(lanes)) = self.get("lanes") {
            exec = exec.lanes(lanes);
        }

        let job = if kind == Kind::Operator {
            let scenario = Scenario::new(self.label("op", op_from_label)?, width)
                .technique(technique)
                .allocation(allocation)
                .realisation(self.label("realisation", realisation_from_label)?);
            CampaignJob::Operator(
                scenario
                    .campaign()
                    .backend(self.label("backend", Backend::from_label)?)
                    .fault_model(self.label("fault_model", FaultModel::from_label)?)
                    .input_space(space)
                    .exec(exec),
            )
        } else {
            let scenario =
                DatapathScenario::new(self.label("workload", DfgSource::from_label)?, width)
                    .technique(technique)
                    .style(self.label("style", style_from_label)?)
                    .allocation(allocation);
            if kind == Kind::Sequential {
                CampaignJob::Sequential(
                    scenario
                        .seq_campaign()
                        .duration(self.label("duration", duration_from_label)?)
                        .input_space(space)
                        .exec(exec),
                )
            } else {
                CampaignJob::Datapath(scenario.campaign().input_space(space).exec(exec))
            }
        };
        Ok(RunSpec {
            job,
            shards: self.num("shards")? as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdp_netlist::FaultDuration;

    #[test]
    fn defaults_are_typed_like_their_keys() {
        for key in KEYS {
            let defaults = match key.default {
                Default::Unset => vec![],
                Default::Is(v) => vec![v],
                Default::PerFrontEnd { argv, json } => vec![argv, json],
            };
            for v in defaults {
                let ok = match (key.ty, v) {
                    (KeyType::Label(labels), Value::Label(l)) => labels.split('|').any(|x| x == l),
                    (KeyType::U64 { min, max }, Value::U64(n)) => (min..=max).contains(&n),
                    (KeyType::Bool, Value::Bool(_)) | (KeyType::Lanes, Value::Lanes(_)) => true,
                    _ => false,
                };
                assert!(ok, "default of `{}` does not fit its type", key.name);
            }
        }
    }

    #[test]
    fn kind_is_inferred_from_the_workload() {
        let op = RunSpec::from_json("{}").expect("empty spec");
        assert!(matches!(op.job, CampaignJob::Operator(_)));
        assert_eq!(op.shards, 4);
        assert_eq!(RunSpec::from_argv::<&str>(&[]).expect("no flags").shards, 1);
        let dp = RunSpec::from_argv(&["--workload", "dot"]).expect("datapath");
        assert!(matches!(dp.job, CampaignJob::Datapath(_)));
        let seq = RunSpec::from_argv(&["--workload", "fir", "--seq", "--duration", "transient@2"])
            .expect("sequential");
        match seq.job {
            CampaignJob::Sequential(spec) => {
                assert_eq!(spec.duration, FaultDuration::Transient { cycle: 2 });
            }
            other => panic!("expected sequential, got {other:?}"),
        }
    }

    #[test]
    fn input_space_is_sampled_unless_exhaustive_on_every_shape() {
        for argv in [
            &["--width", "2"][..],
            &["--workload", "dot", "--width", "2"],
        ] {
            let spec = RunSpec::from_argv(argv).expect("spec");
            let space = match &spec.job {
                CampaignJob::Operator(s) => s.space,
                CampaignJob::Datapath(s) => s.space,
                CampaignJob::Sequential(s) => s.space,
            };
            assert_eq!(
                space,
                InputSpace::Sampled {
                    per_fault: 1024,
                    seed: DEFAULT_SEED
                }
            );
        }
    }

    #[test]
    fn the_documented_table_lists_every_key_with_its_flag() {
        let doc = include_str!("../../../docs/CAMPAIGN_API.md");
        for key in KEYS {
            let (name, flag) = (key.name, key.name.replace('_', "-"));
            assert!(
                doc.lines().any(|l| l.starts_with(&format!("| `{name}` |"))
                    && l.contains(&format!("`--{flag}"))),
                "docs/CAMPAIGN_API.md lacks the table row of `{name}`"
            );
        }
    }

    #[test]
    fn argv_spellings_write_underscores_as_dashes() {
        assert!(argv_spelling("fault_model", "fault-model"));
        assert!(!argv_spelling("fault_model", "fault_model"));
        assert!(RunSpec::from_argv(&["--fault-model", "cell"]).is_ok());
        assert!(RunSpec::from_argv(&["--fault_model", "cell"]).is_err());
    }
}
