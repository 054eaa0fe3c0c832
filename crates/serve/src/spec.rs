//! Job specifications: the result-relevant configuration of one
//! verification command, shared by the `bbv` CLI and the daemon.
//!
//! A [`JobSpec`] captures everything that determines a command's stdout,
//! artifacts and exit code — the algorithm, bound, property selection
//! and budgets — plus the one knob that provably does
//! *not* ([`jobs`](JobSpec::jobs), excluded from
//! [`cache_key`](JobSpec::cache_key) because results are bit-identical at
//! any worker count). The same struct round-trips through the `bb-serve/v1` JSON
//! protocol ([`to_json`](JobSpec::to_json) / [`from_json`](JobSpec::from_json))
//! and back into a CLI argv ([`to_argv`](JobSpec::to_argv)), which is what
//! makes the served-vs-direct differential tests possible: both paths run
//! the exact same spec through the exact same runner.

use bb_lts::{Budget, Jobs};
use bb_obs::json::{write_str, JsonValue};
use std::fmt::Write as _;
use std::time::Duration;

/// Whether `name` (dashes canonical) is on the roster
/// ([`bb_algorithms::roster::ALGORITHMS`]).
pub fn known_algorithm(name: &str) -> bool {
    bb_algorithms::roster::ALGORITHMS
        .iter()
        .any(|(n, ..)| *n == name)
}

/// The verification command a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Linearizability (+ optional lock-freedom / wait-freedom) check.
    Verify,
    /// Divergence-preserving branching-bisimulation quotient export.
    Quotient,
    /// Next-free LTL model checking on the quotient.
    Check,
}

impl Command {
    /// The CLI command word; also the tag in keys and the JSON codec.
    pub fn as_str(self) -> &'static str {
        match self {
            Command::Verify => "verify",
            Command::Quotient => "quotient",
            Command::Check => "check",
        }
    }

    /// Parses the CLI command word.
    pub fn parse(s: &str) -> Option<Command> {
        match s {
            "verify" => Some(Command::Verify),
            "quotient" => Some(Command::Quotient),
            "check" => Some(Command::Check),
            _ => None,
        }
    }
}

impl std::fmt::Display for Command {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One verification job: command + algorithm + every result-relevant knob.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The command to run.
    pub command: Command,
    /// Canonical algorithm name (dashes, see [`known_algorithm`]).
    pub algorithm: String,
    /// Client threads of the most general client.
    pub threads: u8,
    /// Operations per client thread.
    pub ops: u32,
    /// Data domain.
    pub domain: Vec<i64>,
    /// Whether `verify` also checks lock-freedom (where meaningful).
    pub check_lock_freedom: bool,
    /// Whether `verify` also reports the wait-freedom diagnosis.
    pub wait_freedom: bool,
    /// LTL formula for `check`.
    pub formula: Option<String>,
    /// Wall-clock budget.
    pub timeout: Option<Duration>,
    /// Per-stage state cap.
    pub max_states: Option<usize>,
    /// Per-stage transition cap.
    pub max_transitions: Option<usize>,
    /// Per-stage approximate memory cap, bytes.
    pub max_memory: Option<usize>,
    /// Disables the governed fallback ladder.
    pub no_fallback: bool,
    /// Worker threads (output-identical at any count; not in the cache key).
    pub jobs: Jobs,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            command: Command::Verify,
            algorithm: String::new(),
            threads: 2,
            ops: 2,
            domain: vec![1, 2],
            check_lock_freedom: true,
            wait_freedom: false,
            formula: None,
            timeout: None,
            max_states: None,
            max_transitions: None,
            max_memory: None,
            no_fallback: false,
            jobs: Jobs::available(),
        }
    }
}

impl JobSpec {
    /// Whether any budget flag was given. A budgeted `verify` walks the
    /// whole fallback ladder and prints the ladder's report; without a
    /// flag it stops at the direct rung.
    pub fn budgeted(&self) -> bool {
        self.timeout.is_some()
            || self.max_states.is_some()
            || self.max_transitions.is_some()
            || self.max_memory.is_some()
    }

    /// The declarative budget of this spec (fresh cancellation token; the
    /// runner swaps in the caller's token).
    pub fn budget(&self) -> Budget {
        let defaults = Budget::default_caps();
        let mut b = Budget::unlimited()
            .with_max_states(self.max_states.unwrap_or(defaults.max_states))
            .with_max_transitions(self.max_transitions.unwrap_or(defaults.max_transitions));
        if let Some(t) = self.timeout {
            b = b.with_deadline(t);
        }
        if let Some(m) = self.max_memory {
            b = b.with_max_memory_bytes(m);
        }
        b
    }

    /// Whether this command's outcome is memoized in the result cache.
    /// Only whole verdicts and quotients are; `check` always runs.
    pub fn cacheable(&self) -> bool {
        matches!(self.command, Command::Verify | Command::Quotient)
    }

    /// The checkpoint configuration tag: a hash of everything that
    /// determines the *shape* of the pipeline (which LTSs are explored,
    /// which refinement calls run, in what order). Budgets, `--jobs`,
    /// checkpoint cadence and output paths are deliberately excluded — a
    /// resume with a raised budget or a different worker count must still
    /// seed the recorded sections.
    pub fn config_tag(&self) -> u64 {
        // `reduce=none` and `refine=incremental` stay so checkpoints of
        // earlier versions still match.
        let desc = format!(
            "bbp{}.{}|{}|{}|t{}|o{}|d{:?}|lf{}|wf{}|formula{:?}|reduce=none|refine=incremental",
            bb_persist::FORMAT_VERSION,
            bb_sim::STATE_ENCODING_VERSION,
            self.command,
            self.algorithm,
            self.threads,
            self.ops,
            self.domain,
            self.check_lock_freedom,
            self.wait_freedom,
            self.formula,
        );
        bb_lts::snapshot::fnv1a(0, desc.as_bytes())
    }

    /// The result-cache key: everything that determines the command's
    /// stdout, artifacts and exit code — including budgets, since the
    /// governed report names the rung and bound that answered. `--jobs` is
    /// excluded: results are bit-identical at any worker count, so a `-j 4`
    /// run hits the entry a `-j 1` run stored.
    pub fn cache_key(&self) -> String {
        // `reduce=none` and `refine=incremental` stay so cache entries of
        // earlier versions still hit.
        format!(
            "bbc{}.{}|{}|{}|t{}|o{}|d{:?}|lf{}|wf{}|formula{:?}|reduce=none|refine=incremental|budget=({:?},{:?},{:?},{:?},nf{})",
            bb_persist::FORMAT_VERSION,
            bb_sim::STATE_ENCODING_VERSION,
            self.command,
            self.algorithm,
            self.threads,
            self.ops,
            self.domain,
            self.check_lock_freedom,
            self.wait_freedom,
            self.formula,
            self.timeout,
            self.max_states,
            self.max_transitions,
            self.max_memory,
            self.no_fallback,
        )
    }

    /// Renders the spec back into a `bbv` argv (command word first). The
    /// output is parseable by the CLI option parser and canonical: two
    /// equal specs render the same argv. Used for checkpoint argv
    /// recording and for byte-diffing served results against direct runs.
    pub fn to_argv(&self) -> Vec<String> {
        let mut argv = vec![self.command.as_str().to_string(), self.algorithm.clone()];
        argv_push(&mut argv, "--threads", self.threads.to_string());
        argv_push(&mut argv, "--ops", self.ops.to_string());
        let domain: Vec<String> = self.domain.iter().map(|v| v.to_string()).collect();
        argv_push(&mut argv, "--domain", domain.join(","));
        if !self.check_lock_freedom {
            argv.push("--no-lock-freedom".into());
        }
        if self.wait_freedom {
            argv.push("--wait-freedom".into());
        }
        if let Some(f) = &self.formula {
            argv_push(&mut argv, "--formula", f.clone());
        }
        if let Some(t) = self.timeout {
            argv_push(&mut argv, "--timeout", format!("{}ms", t.as_secs_f64() * 1e3));
        }
        if let Some(n) = self.max_states {
            argv_push(&mut argv, "--max-states", n.to_string());
        }
        if let Some(n) = self.max_transitions {
            argv_push(&mut argv, "--max-transitions", n.to_string());
        }
        if let Some(n) = self.max_memory {
            argv_push(&mut argv, "--max-memory", n.to_string());
        }
        if self.no_fallback {
            argv.push("--no-fallback".into());
        }
        argv_push(&mut argv, "--jobs", self.jobs.get().to_string());
        argv
    }

    /// Serializes the spec as one `bb-serve/v1` JSON object (no newline).
    /// Optional fields are omitted when absent; durations travel as exact
    /// nanoseconds so the cache key survives the round-trip bit-for-bit.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"command\": \"{}\"", self.command);
        s.push_str(", \"algorithm\": ");
        write_str(&mut s, &self.algorithm);
        let _ = write!(s, ", \"threads\": {}, \"ops\": {}", self.threads, self.ops);
        s.push_str(", \"domain\": [");
        for (i, v) in self.domain.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{v}");
        }
        s.push(']');
        let _ = write!(s, ", \"lock_freedom\": {}", self.check_lock_freedom);
        if self.wait_freedom {
            s.push_str(", \"wait_freedom\": true");
        }
        if let Some(f) = &self.formula {
            s.push_str(", \"formula\": ");
            write_str(&mut s, f);
        }
        if let Some(t) = self.timeout {
            let _ = write!(s, ", \"timeout_ns\": {}", t.as_nanos());
        }
        if let Some(n) = self.max_states {
            let _ = write!(s, ", \"max_states\": {n}");
        }
        if let Some(n) = self.max_transitions {
            let _ = write!(s, ", \"max_transitions\": {n}");
        }
        if let Some(n) = self.max_memory {
            let _ = write!(s, ", \"max_memory\": {n}");
        }
        if self.no_fallback {
            s.push_str(", \"no_fallback\": true");
        }
        let _ = write!(s, ", \"jobs\": {}", self.jobs.get());
        s.push('}');
        s
    }

    /// Parses a `bb-serve/v1` spec object (the inverse of
    /// [`to_json`](JobSpec::to_json), tolerant of member order). Unknown
    /// members are rejected so a typo'd budget flag can't silently run an
    /// unbounded job.
    pub fn from_json(v: &JsonValue) -> Result<JobSpec, String> {
        let obj = v.as_object().ok_or("spec must be a JSON object")?;
        let mut spec = JobSpec::default();
        for (key, val) in obj {
            match key.as_str() {
                "command" => {
                    let s = val.as_str().ok_or("command must be a string")?;
                    spec.command =
                        Command::parse(s).ok_or_else(|| format!("unknown command `{s}`"))?;
                }
                "algorithm" => {
                    spec.algorithm = val
                        .as_str()
                        .ok_or("algorithm must be a string")?
                        .replace('_', "-");
                }
                "threads" => {
                    let n = val.as_u64().ok_or("threads must be a non-negative integer")?;
                    spec.threads =
                        u8::try_from(n).map_err(|_| "threads out of range".to_string())?;
                }
                "ops" => {
                    let n = val.as_u64().ok_or("ops must be a non-negative integer")?;
                    spec.ops = u32::try_from(n).map_err(|_| "ops out of range".to_string())?;
                }
                "domain" => {
                    let arr = val.as_array().ok_or("domain must be an array")?;
                    spec.domain = arr
                        .iter()
                        .map(|x| as_i64(x).ok_or("domain values must be integers".to_string()))
                        .collect::<Result<_, _>>()?;
                    if spec.domain.is_empty() {
                        return Err("domain must not be empty".into());
                    }
                }
                "lock_freedom" => spec.check_lock_freedom = as_bool(val, key)?,
                "wait_freedom" => spec.wait_freedom = as_bool(val, key)?,
                "formula" => {
                    spec.formula = match val {
                        JsonValue::Null => None,
                        other => {
                            Some(other.as_str().ok_or("formula must be a string")?.to_string())
                        }
                    };
                }
                "timeout_ns" => {
                    let n = val.as_u64().ok_or("timeout_ns must be a non-negative integer")?;
                    spec.timeout = Some(Duration::from_nanos(n));
                }
                "max_states" => spec.max_states = Some(as_usize(val, key)?),
                "max_transitions" => spec.max_transitions = Some(as_usize(val, key)?),
                "max_memory" => spec.max_memory = Some(as_usize(val, key)?),
                "no_fallback" => spec.no_fallback = as_bool(val, key)?,
                // Specs written before the engine switch and the reduction
                // layer were retired carry `"refine": "incremental"` and
                // `"reduce": "none"`; any other value cannot run.
                "refine" => {
                    if val.as_str() != Some("incremental") {
                        return Err("refine: only `incremental` is supported".into());
                    }
                }
                "reduce" => {
                    if val.as_str() != Some("none") {
                        return Err("reduce: only `none` is supported".into());
                    }
                }
                "jobs" => {
                    let n = as_usize(val, key)?;
                    if n == 0 {
                        return Err("jobs must be at least 1".into());
                    }
                    spec.jobs = Jobs::new(n);
                }
                other => return Err(format!("unknown spec member `{other}`")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Structural validation shared by every entry path (CLI, protocol,
    /// journal replay): the algorithm must be on the roster, `check` needs a
    /// formula, and an option the command would ignore is an error. A
    /// formula is read only by `check`, `--no-lock-freedom` only by
    /// `verify`, `--no-fallback` only by a budgeted `verify`, and the
    /// wait-freedom diagnosis only by an unbudgeted `verify`.
    pub fn validate(&self) -> Result<(), String> {
        if !known_algorithm(&self.algorithm) {
            return Err(format!(
                "unknown algorithm `{}`; try `bbv list`",
                self.algorithm
            ));
        }
        if self.command == Command::Check && self.formula.is_none() {
            return Err("`check` needs a formula, e.g. --formula \"G F (ret | done)\"".into());
        }
        if self.formula.is_some() && self.command != Command::Check {
            return Err("--formula works only on `check`".into());
        }
        if !self.check_lock_freedom && self.command != Command::Verify {
            return Err("--no-lock-freedom works only on `verify`".into());
        }
        if self.no_fallback && (self.command != Command::Verify || !self.budgeted()) {
            return Err("--no-fallback works only on `verify` with a budget flag".into());
        }
        if self.wait_freedom && (self.command != Command::Verify || self.budgeted()) {
            return Err("--wait-freedom works only on `verify` without a budget flag".into());
        }
        Ok(())
    }
}

fn argv_push(argv: &mut Vec<String>, name: &str, value: String) {
    argv.push(name.to_string());
    argv.push(value);
}

fn as_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    match v {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("{key} must be a boolean")),
    }
}

fn as_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    let n = v
        .as_u64()
        .ok_or_else(|| format!("{key} must be a non-negative integer"))?;
    usize::try_from(n).map_err(|_| format!("{key} out of range"))
}

fn as_i64(v: &JsonValue) -> Option<i64> {
    match v {
        JsonValue::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_obs::json::parse;

    /// A budgeted `verify` with every optional member set but `formula`,
    /// which only `check` honours, and `wait_freedom`, which only an
    /// unbudgeted `verify` honours.
    fn sample() -> JobSpec {
        JobSpec {
            command: Command::Verify,
            algorithm: "ms-queue".into(),
            threads: 2,
            ops: 3,
            domain: vec![1, 2, -7],
            check_lock_freedom: false,
            wait_freedom: false,
            formula: None,
            timeout: Some(Duration::from_millis(1500)),
            max_states: Some(1_000_000),
            max_transitions: None,
            max_memory: Some(2_000_000_000),
            no_fallback: true,
            jobs: Jobs::new(4),
        }
    }

    #[test]
    fn json_roundtrip_preserves_spec_and_cache_key() {
        let wait_freedom = JobSpec {
            wait_freedom: true,
            timeout: None,
            max_states: None,
            max_memory: None,
            no_fallback: false,
            ..sample()
        };
        let check = JobSpec {
            command: Command::Check,
            formula: Some("G F (ret | done)".into()),
            check_lock_freedom: true,
            no_fallback: false,
            ..sample()
        };
        for spec in [sample(), wait_freedom, check] {
            let back = JobSpec::from_json(&parse(&spec.to_json()).unwrap()).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.cache_key(), spec.cache_key());
            assert_eq!(back.config_tag(), spec.config_tag());
        }
    }

    #[test]
    fn cache_key_ignores_jobs_but_not_budgets() {
        let a = sample();
        let mut b = a.clone();
        b.jobs = Jobs::new(1);
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.config_tag(), b.config_tag());
        let mut c = a.clone();
        c.timeout = Some(Duration::from_secs(9));
        assert_ne!(a.cache_key(), c.cache_key());
        assert_eq!(a.config_tag(), c.config_tag(), "budgets never change the tag");
    }

    #[test]
    fn cache_keys_are_pinned_to_the_state_encoding_version() {
        // A bump of `STATE_ENCODING_VERSION` must invalidate every cached
        // result and checkpoint: recomputing the key under the next version
        // yields different fingerprints, so stale entries can never hit.
        let spec = sample();
        let bumped = |v: u32| {
            let desc = format!(
                "bbp{}.{}|{}|{}|t{}|o{}|d{:?}|lf{}|wf{}|formula{:?}|reduce=none|refine=incremental",
                bb_persist::FORMAT_VERSION,
                v,
                spec.command,
                spec.algorithm,
                spec.threads,
                spec.ops,
                spec.domain,
                spec.check_lock_freedom,
                spec.wait_freedom,
                spec.formula,
            );
            bb_lts::snapshot::fnv1a(0, desc.as_bytes())
        };
        assert_eq!(
            spec.config_tag(),
            bumped(bb_sim::STATE_ENCODING_VERSION),
            "the tag must be derived from the current encoding version"
        );
        assert_ne!(
            spec.config_tag(),
            bumped(bb_sim::STATE_ENCODING_VERSION + 1),
            "an encoding bump must change the tag"
        );
        assert!(
            spec.cache_key().starts_with(&format!(
                "bbc{}.{}|",
                bb_persist::FORMAT_VERSION,
                bb_sim::STATE_ENCODING_VERSION
            )),
            "the result-cache key must carry the encoding version"
        );
        assert!(
            spec.cache_key().contains("|reduce=none|refine=incremental|budget="),
            "the retired switches keep their literal key components"
        );
    }

    #[test]
    fn unknown_members_and_bad_specs_are_rejected() {
        assert!(JobSpec::from_json(&parse(r#"{"algorithm": "treiber", "max_statse": 5}"#).unwrap())
            .is_err());
        assert!(JobSpec::from_json(&parse(r#"{"algorithm": "no-such-thing"}"#).unwrap()).is_err());
        assert!(JobSpec::from_json(&parse(r#"{"command": "check", "algorithm": "treiber"}"#).unwrap())
            .is_err());
        assert!(JobSpec::from_json(&parse(r#"{"algorithm": "treiber", "jobs": 0}"#).unwrap())
            .is_err());
        assert!(JobSpec::from_json(&parse(r#"{"algorithm": "treiber", "domain": []}"#).unwrap())
            .is_err());
        assert!(JobSpec::from_json(&parse(r#"{"algorithm": "treiber", "fuse": true}"#).unwrap())
            .is_err());
        // Wait-freedom is diagnosed only by an unbudgeted `verify`.
        let wf = r#""algorithm": "hw-queue", "wait_freedom": true"#;
        for other in [
            r#""timeout_ns": 60000000000"#,
            r#""max_memory": 100000000"#,
            r#""command": "quotient""#,
            r#""command": "check", "formula": "G F ret""#,
        ] {
            let spec = format!("{{{wf}, {other}}}");
            assert!(JobSpec::from_json(&parse(&spec).unwrap()).is_err(), "{spec}");
        }
        assert!(JobSpec::from_json(&parse(&format!("{{{wf}}}")).unwrap()).is_ok());
        // A member the command would ignore is rejected: a formula outside
        // `check`, `lock_freedom: false` outside `verify`, and `no_fallback`
        // outside a budgeted `verify`. The retired engine switch and
        // reduction layer leave `"refine": "incremental"` and
        // `"reduce": "none"` as the only accepted modes and no `reduce-check`.
        let t = r#""algorithm": "treiber""#;
        for bad in [
            r#""formula": "G F ret""#,
            r#""command": "quotient", "lock_freedom": false, "formula": "G F ret""#,
            r#""command": "quotient", "lock_freedom": false"#,
            r#""command": "check", "formula": "G F ret", "lock_freedom": false"#,
            r#""no_fallback": true"#,
            r#""command": "quotient", "no_fallback": true"#,
            r#""command": "quotient", "max_states": 1000, "no_fallback": true"#,
            r#""reduce": "por""#,
            r#""reduce": "full""#,
            r#""reduce": null"#,
            r#""command": "reduce-check""#,
            r#""command": "reduce-check", "lock_freedom": false"#,
            r#""refine": "full""#,
            r#""refine": null"#,
        ] {
            let spec = format!("{{{t}, {bad}}}");
            assert!(JobSpec::from_json(&parse(&spec).unwrap()).is_err(), "{spec}");
        }
        for good in [
            r#""command": "check", "formula": "G F ret""#,
            r#""lock_freedom": false"#,
            r#""max_states": 1000, "no_fallback": true"#,
            r#""reduce": "none""#,
            r#""refine": "incremental""#,
        ] {
            let spec = format!("{{{t}, {good}}}");
            assert!(JobSpec::from_json(&parse(&spec).unwrap()).is_ok(), "{spec}");
        }
    }

    #[test]
    fn argv_parses_back_through_the_cli_grammar() {
        // Pin the canonical argv; the CLI round-trip itself is covered
        // end-to-end by the serve differential tests.
        assert_eq!(
            sample().to_argv(),
            [
                "verify", "ms-queue", "--threads", "2", "--ops", "3", "--domain", "1,2,-7",
                "--no-lock-freedom", "--timeout", "1500ms", "--max-states", "1000000",
                "--max-memory", "2000000000", "--no-fallback", "--jobs", "4",
            ]
        );
        assert!(!sample().to_json().contains("refine"));
    }

    #[test]
    fn underscored_algorithm_names_canonicalize() {
        let v = parse(r#"{"algorithm": "ms_queue"}"#).unwrap();
        assert_eq!(JobSpec::from_json(&v).unwrap().algorithm, "ms-queue");
    }
}
