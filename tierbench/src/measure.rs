//! Measurement helpers: quantiles, process CPU and memory, the seeded
//! input generator, and the in-memory span log of the traced run.

use std::time::Instant;

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median as `statistics.median` reads it (the mean of the two
/// middle samples of an even count); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => samples[n / 2],
        _ => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// The highest tail percentile the guide allows: p99 when at least ten
/// samples lie beyond it, otherwise the largest sample.
pub fn p99(samples: &mut [f64]) -> f64 {
    if samples.len() as f64 * 0.01 >= 10.0 {
        quantile(samples, 0.99)
    } else {
        quantile(samples, 1.0)
    }
}

/// Process user+system CPU seconds so far, all threads (`/proc/self/stat`,
/// 100 Hz clock ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The process's own high-water resident set, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's only source of randomness, so every
/// input is a pure function of the `--seed` argument.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over `bytes`, for cross-process output digests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One recorded span: a layer call made by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `sim.execute`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or run) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration, seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Times `f` as span `name`, returning its result and the span's index.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, start, end, parent, request))
    }

    /// Records a span measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Closes span `index` at `end` (for spans opened before their
    /// children).
    pub fn set_end(&mut self, index: usize, end: Instant) {
        self.spans[index].end_ns = self.ns(end);
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::seconds).collect()
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(Span::seconds).sum()
    }

    /// Writes every span as one tab-separated line
    /// (`name start_ns end_ns parent request`) to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("name\tstart_ns\tend_ns\tparent\trequest\n");
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                s.name, s.start_ns, s.end_ns, parent, s.request
            ));
        }
        std::fs::write(path, text)
    }
}
