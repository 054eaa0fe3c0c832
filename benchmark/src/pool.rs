//! The workload pools and what `bbv verify` prints.
//!
//! `expected.tsv` is both the pool definition and the hand-written oracle:
//! each row is one instance of one workload with its expected exit code and
//! verdict. The seed only permutes the order in which a pass visits a pool,
//! so every seed measures the same work.

use bb_lts::Jobs;
use bb_serve::JobSpec;
use std::path::Path;

/// The workloads, in the order they are documented.
pub const WORKLOADS: &[&str] = &["lockfree-proof", "blocking-lin", "refuted", "governed"];

/// Placeholder in `expected.tsv` for a run's fresh spill directory.
const SPILL_PLACEHOLDER: &str = "{spill}";

/// One pool row: an instance and its expected outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// The workload whose pool holds the instance.
    pub workload: String,
    /// The instance argv after `bbv verify`, with the spill placeholder.
    pub args: Vec<String>,
    /// Expected exit code.
    pub exit: i32,
    /// Expected verdict, in the normal form of [`Outcome::verdict`].
    pub verdict: String,
}

impl Instance {
    /// The instance as written in `expected.tsv`; its key everywhere.
    pub fn label(&self) -> String {
        self.args.join(" ")
    }

    /// Whether each run needs a fresh spill directory.
    pub fn spills(&self) -> bool {
        self.args.iter().any(|a| a == SPILL_PLACEHOLDER)
    }

    /// The argv for `bbv verify`, with the spill directory filled in.
    pub fn argv(&self, spill: &Path) -> Vec<String> {
        self.args
            .iter()
            .map(|a| {
                if a == SPILL_PLACEHOLDER {
                    spill.display().to_string()
                } else {
                    a.clone()
                }
            })
            .collect()
    }

    /// The job `bbv` builds from this argv at `--jobs 1`, for the in-process
    /// pass: same algorithm, bound, domain and budget.
    pub fn job_spec(&self) -> Result<JobSpec, String> {
        let (name, flags) = self.args.split_first().ok_or("empty instance")?;
        let mut spec = JobSpec {
            algorithm: name.clone(),
            jobs: Jobs::new(1),
            ..JobSpec::default()
        };
        let mut it = flags.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--threads" => spec.threads = parse_num(value()?)? as u8,
                "--ops" => spec.ops = parse_num(value()?)? as u32,
                "--domain" => {
                    spec.domain = value()?
                        .split(',')
                        .map(|v| v.parse().map_err(|e| format!("--domain: {e}")))
                        .collect::<Result<_, _>>()?
                }
                "--max-states" => spec.max_states = Some(parse_num(value()?)?),
                "--max-memory" => spec.max_memory = Some(parse_num(value()?)?),
                "--no-fallback" => spec.no_fallback = true,
                "--spill" => {
                    value()?;
                }
                other => return Err(format!("unsupported instance flag `{other}`")),
            }
        }
        Ok(spec)
    }
}

/// A count as `bbv` accepts it: `300000` or `3e5`.
fn parse_num(raw: &str) -> Result<usize, String> {
    let v: f64 = raw.parse().map_err(|_| format!("`{raw}` is not a count"))?;
    if v.is_finite() && v >= 0.0 && v.fract() == 0.0 {
        Ok(v as usize)
    } else {
        Err(format!("`{raw}` is not a count"))
    }
}

/// Parses `expected.tsv`: `#` comments, then one tab-separated row per
/// instance (workload, argv, exit code, verdict).
pub fn parse_expected(text: &str) -> Result<Vec<Instance>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let [workload, args, exit, verdict] = cols[..] else {
            return Err(format!("line {}: expected 4 tab-separated columns", i + 1));
        };
        if !WORKLOADS.contains(&workload) {
            return Err(format!("line {}: unknown workload `{workload}`", i + 1));
        }
        let inst = Instance {
            workload: workload.to_string(),
            args: args.split_whitespace().map(str::to_string).collect(),
            exit: exit
                .parse()
                .map_err(|_| format!("line {}: bad exit code `{exit}`", i + 1))?,
            verdict: verdict.split_whitespace().collect::<Vec<_>>().join(" "),
        };
        inst.job_spec()
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(inst);
    }
    Ok(out)
}

/// SplitMix64, as in `bb_lts::random` (which keeps its copy private).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The order in which pass `pass` of a run with `seed` visits a pool of `n`
/// instances: a seeded Fisher-Yates permutation of `0..n`.
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = SplitMix64(seed ^ pass.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// What one `bbv verify` run printed, in the form the oracle and the
/// in-process cross-check compare.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Normal form: `lin=✓ lock-free=—` for an unbudgeted run;
    /// `rung=reduced-bound@2-2 lin=inconclusive ...` for a governed one.
    pub verdict: String,
    /// The summary line (`… lin=✓  lock-free=✓  |Δ|=…  |Δ/≈|=…`).
    pub summary: Option<String>,
    /// `|Δ|` from the summary line.
    pub states: Option<usize>,
    /// `|Δ/≈|` from the summary line.
    pub quotient_states: Option<usize>,
}

/// Parses the stdout of `bbv verify`.
pub fn parse_outcome(stdout: &str) -> Outcome {
    let mut out = Outcome::default();
    let (mut rung, mut lin, mut lf) = (None, None, None);
    let (mut marks_lin, mut marks_lf) = (None, None);
    for line in stdout.lines() {
        let first_word = |s: &str| s.split_whitespace().next().map(str::to_string);
        if let Some(rest) = line.strip_prefix("answered by the ") {
            let mut words = rest.split_whitespace();
            let name = words.next().unwrap_or_default();
            let bound = rest
                .split_once(" at bound ")
                .and_then(|(_, b)| first_word(b));
            rung = Some(format!("{name}@{}", bound.unwrap_or_default()));
        } else if line.starts_with("no ladder rung completed") {
            rung = Some("none".to_string());
        } else if let Some((_, rest)) = line.split_once(": linearizability ") {
            lin = first_word(rest);
        } else if let Some(rest) = line.trim_start().strip_prefix("lock-freedom ") {
            lf = first_word(rest);
        } else if line.contains(" lin=") && line.contains("|Δ|=") {
            for tok in line.split_whitespace() {
                if let Some(v) = tok.strip_prefix("lin=") {
                    marks_lin = Some(v.to_string());
                } else if let Some(v) = tok.strip_prefix("lock-free=") {
                    marks_lf = Some(v.to_string());
                } else if let Some(v) = tok.strip_prefix("|Δ|=") {
                    out.states = v.parse().ok();
                } else if let Some(v) = tok.strip_prefix("|Δ/≈|=") {
                    out.quotient_states = v.parse().ok();
                }
            }
            out.summary = Some(line.trim_end().to_string());
        }
    }
    let mut words = Vec::new();
    if let Some(r) = rung {
        words.push(format!("rung={r}"));
        words.extend(lin.map(|w| format!("lin={w}")));
        words.extend(lf.map(|w| format!("lock-free={w}")));
    } else {
        words.extend(marks_lin.map(|w| format!("lin={w}")));
        words.extend(marks_lf.map(|w| format!("lock-free={w}")));
    }
    out.verdict = words.join(" ");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPECTED: &str = include_str!("../expected.tsv");

    #[test]
    fn expected_file_parses_into_four_pools() {
        let all = parse_expected(EXPECTED).unwrap();
        for w in WORKLOADS {
            let n = all.iter().filter(|i| i.workload == *w).count();
            assert!(n >= 5, "{w} has {n} instances");
        }
        let gov: Vec<_> = all.iter().filter(|i| i.workload == "governed").collect();
        assert!(gov.iter().all(|i| i.job_spec().unwrap().budgeted()));
        assert!(gov.iter().all(|i| i.verdict.starts_with("rung=")));
        assert!(all
            .iter()
            .filter(|i| i.workload != "governed")
            .all(|i| !i.job_spec().unwrap().budgeted()));
        assert!(!all
            .iter()
            .any(|i| i.args[0] == "ccas" || i.args[0] == "rdcss"));
    }

    #[test]
    fn expected_rows_are_checked() {
        let row = "refuted\thw-queue --threads 2 --ops 3\t1\tlin=✓  lock-free=✗\n";
        let got = parse_expected(&format!("# comment\n\n{row}")).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].label(), "hw-queue --threads 2 --ops 3");
        assert_eq!(got[0].exit, 1);
        assert_eq!(got[0].verdict, "lin=✓ lock-free=✗");
        assert!(parse_expected("refuted\thw-queue\t1\n").is_err());
        assert!(parse_expected("nope\thw-queue\t1\tlin=✓\n").is_err());
        assert!(parse_expected("refuted\thw-queue\tone\tlin=✓\n").is_err());
        assert!(parse_expected("refuted\thw-queue --bogus\t1\tlin=✓\n").is_err());
    }

    #[test]
    fn job_spec_follows_the_argv() {
        let inst = Instance {
            workload: "governed".into(),
            args: "newcas --threads 3 --ops 3 --max-memory 6e6 --no-fallback --spill {spill}"
                .split(' ')
                .map(str::to_string)
                .collect(),
            exit: 0,
            verdict: String::new(),
        };
        let spec = inst.job_spec().unwrap();
        assert_eq!((spec.threads, spec.ops), (3, 3));
        assert_eq!(spec.max_memory, Some(6_000_000));
        assert!(spec.no_fallback && spec.budgeted());
        assert_eq!(spec.jobs.get(), 1);
        assert!(inst.spills());
        let argv = inst.argv(Path::new("sp/1"));
        assert_eq!(argv.last().map(String::as_str), Some("sp/1"));
    }

    #[test]
    fn seeded_order_is_a_permutation_fixed_by_the_seed() {
        let a = pass_order(8, 1, 0);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert_eq!(a, pass_order(8, 1, 0), "same seed, same order");
        assert_ne!(a, pass_order(8, 2, 0), "another seed, another order");
        assert_ne!(a, pass_order(8, 1, 1), "each pass has its own order");
        assert!(pass_order(0, 1, 0).is_empty());
    }

    #[test]
    fn parses_an_unbudgeted_verdict() {
        let stdout =
            "HW queue                           2-3  lin=✓  lock-free=✗  |Δ|=20245  |Δ/≈|=914\n\
                      lock-freedom violation (τ-loop):\n  <initial state>\n";
        let o = parse_outcome(stdout);
        assert_eq!(o.verdict, "lin=✓ lock-free=✗");
        assert_eq!((o.states, o.quotient_states), (Some(20245), Some(914)));
        assert!(o.summary.unwrap().starts_with("HW queue"));
        let blocking = parse_outcome(
            "two-lock MS queue                  2-3  lin=✓  lock-free=—  |Δ|=42700  |Δ/≈|=1798\n",
        );
        assert_eq!(blocking.verdict, "lin=✓ lock-free=—");
    }

    #[test]
    fn parses_a_governed_verdict() {
        let stdout = "\
DGLM queue 2-3: linearizability inconclusive (linearizability verified only at reduced bound 2-2; budget exhausted at requested bound 2-3)
           lock-freedom inconclusive (lock-freedom verified only at reduced bound 2-2; budget exhausted at requested bound 2-3)
answered by the reduced-bound rung at bound 2-2 in 212.9ms
  rung direct (2-3): explore stage exhausted its budget (state cap reached) after 100001 states
  rung reduced-bound (2-2): completed
DGLM queue                         2-2  lin=✓  lock-free=✓  |Δ|=16067  |Δ/≈|=337
";
        let o = parse_outcome(stdout);
        assert_eq!(
            o.verdict,
            "rung=reduced-bound@2-2 lin=inconclusive lock-free=inconclusive"
        );
        assert_eq!((o.states, o.quotient_states), (Some(16067), Some(337)));
        let lin_only = parse_outcome(
            "L 2-3: linearizability proved\nanswered by the direct rung at bound 2-3 in 1s\n",
        );
        assert_eq!(lin_only.verdict, "rung=direct@2-3 lin=proved");
        assert_eq!(parse_outcome("").verdict, "");
    }
}
