//! Order statistics, the answer digest and the run stamp.

use std::process::Command;

/// Median of a sample set (mean of the two middle values for even
/// counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Fewest samples a tail must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample set: the highest percentile that still
/// has [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, `100 · (n − 10) / n`.
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// The tail of `values`, or `None` with too few samples to leave ten
/// beyond any percentile.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail { value: sorted[rank - 1], percentile: 100.0 * rank as f64 / n as f64, samples: n })
}

/// 64-bit FNV-1a over the answer stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word, byte by byte.
    pub fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What a result must carry to be attributable: the code, the toolchain,
/// the machine and the inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside git.
    pub git_rev: String,
    /// `rustc -V`.
    pub rustc: String,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Available parallelism.
    pub nproc: usize,
    /// The workload seed.
    pub seed: u64,
    /// Sampler threads of the serving session.
    pub sampler_threads: usize,
}

impl Stamp {
    /// Collects the stamp for a run.
    pub fn collect(seed: u64, sampler_threads: usize) -> Stamp {
        // Pin git to the checkout's own `.git` so it never walks up into
        // an enclosing repository.
        let git_rev =
            command_line(Command::new("git").args(["--git-dir", ".git", "rev-parse", "HEAD"]))
                .unwrap_or_else(|| "unknown".into());
        let rustc =
            command_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Stamp { git_rev, rustc, cpu, nproc, seed, sampler_threads }
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": {}, \"rustc\": {}, \"cpu\": {}, \"nproc\": {}, \"seed\": {}, \"sampler_threads\": {}}}",
            json_string(&self.git_rev),
            json_string(&self.rustc),
            json_string(&self.cpu),
            self.nproc,
            self.seed,
            self.sampler_threads
        )
    }
}

/// The first stdout line of a command that exits 0.
fn command_line(command: &mut Command) -> Option<String> {
    let output = command.stderr(std::process::Stdio::null()).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string()).filter(|l| !l.is_empty())
}

/// A JSON string literal.
fn json_string(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
        assert!(tail(&values[..10]).is_none());
        assert_eq!(tail(&values[..11]).unwrap().value, 1.0);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.word(1);
        a.word(2);
        let mut b = Fnv::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
