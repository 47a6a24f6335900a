//! Repo tidy lint (rust-tidy style: plain-text scanning, no external
//! dependencies, no network).
//!
//! Ten rule families, each suppressible only by an explicit, reasoned
//! marker comment — `// lint: allow(<rule>): <reason>` on the offending
//! line or within [`MARKER_WINDOW`] lines above it:
//!
//! * **`raw-f64`** — public functions in the energy/pricing modules must
//!   not expose bare `f64` quantities; dimensioned values go through the
//!   `units` newtypes (dimensionless ratios carry a marker saying so).
//! * **`lossy-cast`** — `as f64` conversions in those modules lose
//!   precision silently; each one must be documented as exact or routed
//!   through a named conversion.
//! * **`unwrap`** — `.unwrap()` / `.expect(` outside `#[cfg(test)]`
//!   modules; library code propagates errors, and the few structurally
//!   infallible sites say why.
//! * **`lock-order`** — in the sharded run-cache (`core::study`,
//!   `core::parallel`), a live shard guard must be dropped before any
//!   other `.lock(`/`.wait(` call; holding it across a blocking call is
//!   the deadlock pattern the shard design exists to prevent.
//! * **`typed-constant`** — in the Table-2 geometry modules
//!   (`core::pricing`, `leakctl::economics`), the machine-configuration
//!   numbers (cell ratio 32.0, 1024 lines, 512 line bits, 30 tag bits)
//!   have named constants; repeating the bare literal silently forks the
//!   configuration when one copy is edited.
//! * **`server-boundary`** — sockets (`std::net`) and thread spawning
//!   live in exactly two places: the `studyd` server crate and
//!   `core::parallel` (the workspace's one fanout primitive). Anywhere
//!   else, ad-hoc concurrency bypasses the job queue's backpressure and
//!   the deterministic ordered-map discipline.
//! * **`fs-boundary`** — `std::fs` lives only in `crates/runstore`, which
//!   owns the checksums, torn-tail recovery and read-back verification
//!   that ad-hoc file access would bypass.
//! * **`no-alloc-in-sweep`** — the decay timing wheel
//!   (`cachesim::wheel`) promises zero steady-state allocation: every
//!   schedule/cancel/advance runs on preallocated parallel arrays, so any
//!   allocating construct there (`vec!`, `Vec::new`, `.collect()`,
//!   `Box::new`, `format!`, …) is either one-time construction (marked as
//!   such) or a hot-path regression.
//! * **`no-sleep-while-locked`** — in the server and concurrency core
//!   (`crates/studyd`, `crates/core`), a live `MutexGuard` must not be
//!   held across a sleep or blocking I/O call; every other thread that
//!   touches the mutex stalls for the full duration. Condvar `.wait(` is
//!   exempt — it releases the lock while blocked, which is the sanctioned
//!   way to wait under a guard.
//! * **`no-wallclock`** — the timing-leakage harness (`crates/leakage`)
//!   and the simulator crates (`crates/uarch`, `crates/cachesim`,
//!   `crates/specgen`) count *simulated* cycles; every number they emit
//!   must be a pure function of the seed. Any wall-clock construct
//!   (`std::time`, `Instant::now(`, `SystemTime`) there — test modules
//!   included — injects host noise into a security measurement or puts
//!   instrumentation inside the per-instruction loop. Timing the
//!   simulator is the benchmark harness's job, from outside.
//!
//! The scanner is deliberately line-based: the codebase is rustfmt-clean,
//! so declarations and statements land on predictable lines, and a dumb
//! scanner that anyone can read beats a syntax-aware one nobody audits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// How many lines above an offending line a `// lint: allow(...)` marker
/// is honored (statements and attribute stacks span a few lines).
pub const MARKER_WINDOW: usize = 4;

/// Modules whose public signatures and casts carry physical quantities;
/// matched as path suffixes so the seeded fixture tree mirrors them.
pub const ENERGY_MODULES: &[&str] = &[
    "crates/wattch/src/energy.rs",
    "crates/wattch/src/ledger.rs",
    "crates/wattch/src/cacti.rs",
    "crates/core/src/pricing.rs",
    "crates/leakctl/src/economics.rs",
    "crates/leakctl/src/technique.rs",
];

/// Files holding the sharded-lock discipline.
pub const LOCK_ORDER_FILES: &[&str] = &["crates/core/src/study.rs", "crates/core/src/parallel.rs"];

/// Modules where the Table-2 machine configuration is spelled out; bare
/// copies of its numbers belong behind the named constants.
pub const TYPED_CONSTANT_FILES: &[&str] = &[
    "crates/core/src/pricing.rs",
    "crates/leakctl/src/economics.rs",
];

/// Where sockets and thread spawning are legitimate: the study server
/// crate and the fleet tier (path prefixes — `fleet` owns the peer TCP
/// client; it ships bytes and never touches files, so it stays outside
/// the `fs-boundary` allowance) and the workspace's one thread-fanout
/// primitive (path suffix). Everywhere else, `server-boundary` fires.
pub const SERVER_BOUNDARY_CRATES: &[&str] = &["crates/studyd/", "crates/fleet/"];

/// Suffix-matched files also allowed to spawn threads.
pub const SERVER_BOUNDARY_FILES: &[&str] = &["crates/core/src/parallel.rs"];

/// Where direct filesystem access is legitimate: the persistent run
/// store crate (path prefix). Everywhere else `fs-boundary` fires —
/// durability invariants (checksums, torn-tail recovery, read-back
/// verification) live in `runstore`, and ad-hoc `std::fs` calls bypass
/// them. Bench binaries that emit JSON artifacts carry explicit
/// markers.
pub const FS_BOUNDARY_CRATES: &[&str] = &["crates/runstore/"];

/// Files on the decay hot path that promise zero steady-state allocation.
pub const NO_ALLOC_FILES: &[&str] = &["crates/cachesim/src/wheel.rs"];

/// Crates whose emitted numbers must be pure functions of the seed
/// (prefix-matched): the timing-leakage harness and the simulator. All
/// timing there is simulated [`units::Cycles`]; a wall-clock read in the
/// harness injects host noise into a security measurement, and one in the
/// simulator is instrumentation inside the per-instruction loop.
pub const WALLCLOCK_FREE_CRATES: &[&str] = &[
    "crates/leakage/",
    "crates/uarch/",
    "crates/cachesim/",
    "crates/specgen/",
];

/// Wall-clock constructs forbidden in [`WALLCLOCK_FREE_CRATES`]. The
/// bare `std::time` token also catches `use` imports and
/// `Duration`-producing clock reads spelled through the module path.
pub const WALLCLOCK_TOKENS: &[&str] = &["std::time", "Instant::now(", "SystemTime"];

/// Crates whose lock guards must not be held across sleeps or blocking
/// I/O (prefix-matched): the study server and the concurrency core. Both
/// sit on the request path, so a guard held through a stall serializes
/// every peer behind one slow syscall.
pub const NO_SLEEP_LOCK_CRATES: &[&str] = &["crates/studyd/", "crates/core/"];

/// Calls that park the calling thread for arbitrarily long. Condvar
/// `.wait(` is deliberately absent: it releases the guard while blocked.
pub const BLOCKING_TOKENS: &[&str] = &[
    "thread::sleep(",
    ".write_all(",
    ".read_line(",
    ".read_exact(",
    ".read_until(",
    ".recv(",
    ".recv_timeout(",
    ".accept(",
];

/// Allocating constructs forbidden in [`NO_ALLOC_FILES`] without a marker.
pub const ALLOC_TOKENS: &[&str] = &[
    "vec![",
    "Vec::new(",
    "Vec::with_capacity(",
    "Box::new(",
    ".collect(",
    ".to_vec(",
    ".to_owned(",
    ".to_string(",
    "String::new(",
    "String::from(",
    "format!(",
    "HashMap::new(",
    "BTreeMap::new(",
];

/// The Table-2 numbers with named constants (`L2_TO_L1_CELL_RATIO`,
/// `TABLE2_L1D_LINES`, `TABLE2_LINE_BITS`, `TABLE2_TAG_BITS`): a bare
/// occurrence outside the defining `const` duplicates the configuration.
pub const TABLE2_LITERALS: &[&str] = &["32.0", "1024", "512", "30"];

/// The rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Bare `f64` in a public signature of an energy/pricing module.
    RawF64PublicSig,
    /// Undocumented `as f64` cast in an energy/pricing module.
    LossyCast,
    /// `.unwrap()` / `.expect(` outside test code.
    UnwrapOutsideTests,
    /// Another lock acquired while a shard guard is live.
    LockOrder,
    /// A bare Table-2 literal shadowing its named constant.
    TypedConstant,
    /// `std::net` or thread spawning outside the server crate and the
    /// parallel fanout primitive.
    ServerBoundary,
    /// `std::fs` outside the persistent run-store crate.
    FsBoundary,
    /// An allocating construct on the zero-allocation decay hot path.
    NoAllocInSweep,
    /// A sleep or blocking I/O call while a lock guard is live.
    NoSleepWhileLocked,
    /// A wall-clock construct inside the leakage harness or the simulator.
    NoWallclock,
}

impl Rule {
    /// The marker name that suppresses this rule.
    pub fn marker(self) -> &'static str {
        match self {
            Rule::RawF64PublicSig => "raw-f64",
            Rule::LossyCast => "lossy-cast",
            Rule::UnwrapOutsideTests => "unwrap",
            Rule::LockOrder => "lock-order",
            Rule::TypedConstant => "typed-constant",
            Rule::ServerBoundary => "server-boundary",
            Rule::FsBoundary => "fs-boundary",
            Rule::NoAllocInSweep => "no-alloc-in-sweep",
            Rule::NoSleepWhileLocked => "no-sleep-while-locked",
            Rule::NoWallclock => "no-wallclock",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.marker())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the scanned root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.excerpt
        )
    }
}

fn has_marker(lines: &[&str], idx: usize, rule: Rule) -> bool {
    let needle = format!("lint: allow({})", rule.marker());
    let lo = idx.saturating_sub(MARKER_WINDOW);
    lines[lo..=idx].iter().any(|l| l.contains(&needle))
}

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("#!")
}

/// Net brace depth change of one line, ignoring braces inside string
/// literals and line comments (good enough for rustfmt-formatted code).
fn brace_delta(line: &str) -> i32 {
    let code = line.split("//").next().unwrap_or(line);
    let mut depth = 0i32;
    let mut in_str = false;
    let mut prev = ' ';
    for c in code.chars() {
        match c {
            '"' if prev != '\\' => in_str = !in_str,
            '{' if !in_str => depth += 1,
            '}' if !in_str => depth -= 1,
            _ => {}
        }
        prev = c;
    }
    depth
}

/// Tracks which lines sit inside `#[cfg(test)] mod` blocks.
fn test_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth = 0i32;
    let mut pending_cfg_test = false;
    let mut test_depth: Option<i32> = None;
    for (i, line) in lines.iter().enumerate() {
        if line.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }
        let before = depth;
        depth += brace_delta(line);
        if pending_cfg_test && line.contains("mod ") && line.contains('{') {
            test_depth = Some(before + 1);
            pending_cfg_test = false;
        }
        if let Some(td) = test_depth {
            mask[i] = true;
            if depth < td {
                test_depth = None;
            }
        }
    }
    mask
}

fn path_matches(rel: &Path, suffixes: &[&str]) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    suffixes.iter().any(|s| p.ends_with(s))
}

fn check_raw_f64(rel: &Path, lines: &[&str], in_test: &[bool], out: &mut Vec<Violation>) {
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if in_test[i] || is_comment(line) || !line.trim_start().starts_with("pub fn") {
            i += 1;
            continue;
        }
        // Accumulate the signature until the body opens (or `;` for trait
        // methods).
        let mut sig = String::new();
        let mut j = i;
        while j < lines.len() {
            let l = lines[j].split("//").next().unwrap_or(lines[j]);
            sig.push_str(l);
            sig.push(' ');
            if l.contains('{') || l.trim_end().ends_with(';') {
                break;
            }
            j += 1;
        }
        let sig = sig.split('{').next().unwrap_or(&sig);
        if sig.contains("f64") && !has_marker(lines, i, Rule::RawF64PublicSig) {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule: Rule::RawF64PublicSig,
                excerpt: line.trim().to_string(),
            });
        }
        i = j + 1;
    }
}

fn check_lossy_cast(rel: &Path, lines: &[&str], in_test: &[bool], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] || is_comment(line) {
            continue;
        }
        let code = line.split("// ").next().unwrap_or(line);
        if code.contains(" as f64") && !has_marker(lines, i, Rule::LossyCast) {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule: Rule::LossyCast,
                excerpt: line.trim().to_string(),
            });
        }
    }
}

fn check_unwrap(rel: &Path, lines: &[&str], in_test: &[bool], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] || is_comment(line) {
            continue;
        }
        let code = line.split("// ").next().unwrap_or(line);
        if (code.contains(".unwrap()") || code.contains(".expect("))
            && !has_marker(lines, i, Rule::UnwrapOutsideTests)
        {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule: Rule::UnwrapOutsideTests,
                excerpt: line.trim().to_string(),
            });
        }
    }
}

/// Guard-liveness scan: from a `let ... shard = ... .lock()` binding until
/// the matching `drop(shard)` (or the end of the binding's block), any
/// further `.lock(` or `.wait(` acquisition is a lock-order violation.
fn check_lock_order(rel: &Path, lines: &[&str], in_test: &[bool], out: &mut Vec<Violation>) {
    let mut depth = 0i32;
    let mut guard: Option<(i32, usize)> = None; // (binding depth, line)
    for (i, line) in lines.iter().enumerate() {
        let before = depth;
        depth += brace_delta(line);
        if in_test[i] || is_comment(line) {
            continue;
        }
        let code = line.split("//").next().unwrap_or(line);
        if let Some((gd, _)) = guard {
            if depth < gd || code.contains("drop(shard)") {
                guard = None;
            } else if (code.contains(".lock(") || code.contains(".wait("))
                && !has_marker(lines, i, Rule::LockOrder)
            {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: i + 1,
                    rule: Rule::LockOrder,
                    excerpt: line.trim().to_string(),
                });
                guard = None; // one report per held guard
                continue;
            }
        }
        // A new shard-guard binding (possibly re-binding) starts liveness.
        let t = code.trim_start();
        if (t.starts_with("let mut shard") || t.starts_with("let shard")) && code.contains(".lock(")
        {
            guard = Some((before, i));
        }
    }
}

/// True if `text[start..start + lit.len()]` is a standalone numeric token:
/// not embedded in a longer number (`512` in `1512` or `30` in `383.15`),
/// an identifier, or a digit-grouped literal (`100_000`).
fn standalone_number(text: &str, start: usize, lit: &str) -> bool {
    let boundary = |c: Option<char>| match c {
        None => true,
        Some(c) => !c.is_ascii_alphanumeric() && c != '_' && c != '.',
    };
    boundary(text[..start].chars().next_back())
        && boundary(text[start + lit.len()..].chars().next())
}

fn check_typed_constant(rel: &Path, lines: &[&str], in_test: &[bool], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] || is_comment(line) {
            continue;
        }
        let code = line.split("//").next().unwrap_or(line);
        // The named definitions themselves are the one legitimate home.
        if code.contains("const ") {
            continue;
        }
        let fired = TABLE2_LITERALS.iter().any(|lit| {
            code.match_indices(lit)
                .any(|(pos, _)| standalone_number(code, pos, lit))
        });
        if fired && !has_marker(lines, i, Rule::TypedConstant) {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule: Rule::TypedConstant,
                excerpt: line.trim().to_string(),
            });
        }
    }
}

/// True if `rel` may touch sockets and spawn threads.
fn server_boundary_allowed(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    SERVER_BOUNDARY_CRATES
        .iter()
        .any(|c| p.starts_with(c) || p.contains(&format!("/{c}")))
        || path_matches(rel, SERVER_BOUNDARY_FILES)
}

fn check_server_boundary(rel: &Path, lines: &[&str], in_test: &[bool], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] || is_comment(line) {
            continue;
        }
        let code = line.split("// ").next().unwrap_or(line);
        // `thread::spawn(`, `std::thread::spawn(`, and `scope.spawn(`
        // all end in one of these two spellings.
        let spawns = code.contains("::spawn(") || code.contains(".spawn(");
        if (code.contains("std::net") || spawns) && !has_marker(lines, i, Rule::ServerBoundary) {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule: Rule::ServerBoundary,
                excerpt: line.trim().to_string(),
            });
        }
    }
}

/// True if `rel` may touch the filesystem directly.
fn fs_boundary_allowed(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    FS_BOUNDARY_CRATES
        .iter()
        .any(|c| p.starts_with(c) || p.contains(&format!("/{c}")))
}

fn check_fs_boundary(rel: &Path, lines: &[&str], in_test: &[bool], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] || is_comment(line) {
            continue;
        }
        let code = line.split("// ").next().unwrap_or(line);
        // `std::fs::...` call sites and `use std::fs...` imports both
        // carry this spelling.
        if code.contains("std::fs") && !has_marker(lines, i, Rule::FsBoundary) {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule: Rule::FsBoundary,
                excerpt: line.trim().to_string(),
            });
        }
    }
}

fn check_no_alloc(rel: &Path, lines: &[&str], in_test: &[bool], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] || is_comment(line) {
            continue;
        }
        let code = line.split("// ").next().unwrap_or(line);
        if ALLOC_TOKENS.iter().any(|t| code.contains(t))
            && !has_marker(lines, i, Rule::NoAllocInSweep)
        {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule: Rule::NoAllocInSweep,
                excerpt: line.trim().to_string(),
            });
        }
    }
}

/// True if `rel` sits in a crate whose guards must stay stall-free.
fn no_sleep_lock_scope(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    NO_SLEEP_LOCK_CRATES
        .iter()
        .any(|c| p.starts_with(c) || p.contains(&format!("/{c}")))
}

/// The bound name if `code` is a `let` statement taking a lock guard —
/// either a direct `.lock(` call or the workspace's poison-sanitizing
/// `lock(` helper.
fn guard_binding(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    if !(code.contains(".lock(") || code.contains("= lock(") || code.contains("::lock(")) {
        return None;
    }
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Guard-liveness scan generalizing [`check_lock_order`]: from any
/// `let [mut] g = ...lock(...)` binding until `drop(g)` (or the end of
/// the binding's block), a sleep or blocking I/O call holds the mutex
/// for unbounded time and stalls every peer behind it.
fn check_no_sleep_while_locked(
    rel: &Path,
    lines: &[&str],
    in_test: &[bool],
    out: &mut Vec<Violation>,
) {
    let mut depth = 0i32;
    let mut guards: Vec<(String, i32)> = Vec::new(); // (name, binding depth)
    for (i, line) in lines.iter().enumerate() {
        let before = depth;
        depth += brace_delta(line);
        if in_test[i] || is_comment(line) {
            continue;
        }
        let code = line.split("//").next().unwrap_or(line);
        guards.retain(|(name, gd)| depth >= *gd && !code.contains(&format!("drop({name})")));
        if !guards.is_empty()
            && BLOCKING_TOKENS.iter().any(|t| code.contains(t))
            && !has_marker(lines, i, Rule::NoSleepWhileLocked)
        {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule: Rule::NoSleepWhileLocked,
                excerpt: line.trim().to_string(),
            });
            guards.clear(); // one report per held-guard region
            continue;
        }
        if let Some(name) = guard_binding(code) {
            guards.push((name, before));
        }
    }
}

/// True if `rel` sits in a crate whose numbers must be seed-pure.
fn wallclock_free_scope(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    WALLCLOCK_FREE_CRATES
        .iter()
        .any(|c| p.starts_with(c) || p.contains(&format!("/{c}")))
}

/// Flags every wall-clock construct in [`WALLCLOCK_FREE_CRATES`]. Unlike
/// the other content rules this one fires inside `#[cfg(test)]` modules
/// too: a wall-clock read in a harness unit test is still host
/// nondeterminism feeding a security measurement.
fn check_no_wallclock(rel: &Path, lines: &[&str], out: &mut Vec<Violation>) {
    for (i, line) in lines.iter().enumerate() {
        if is_comment(line) {
            continue;
        }
        let code = line.split("// ").next().unwrap_or(line);
        if WALLCLOCK_TOKENS.iter().any(|t| code.contains(t))
            && !has_marker(lines, i, Rule::NoWallclock)
        {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule: Rule::NoWallclock,
                excerpt: line.trim().to_string(),
            });
        }
    }
}

/// Scans one file's content; `rel` decides which rules apply.
pub fn scan_content(rel: &Path, content: &str) -> Vec<Violation> {
    let lines: Vec<&str> = content.lines().collect();
    let in_test = test_mask(&lines);
    let mut out = Vec::new();
    if path_matches(rel, ENERGY_MODULES) {
        check_raw_f64(rel, &lines, &in_test, &mut out);
        check_lossy_cast(rel, &lines, &in_test, &mut out);
    }
    if path_matches(rel, LOCK_ORDER_FILES) {
        check_lock_order(rel, &lines, &in_test, &mut out);
    }
    if path_matches(rel, TYPED_CONSTANT_FILES) {
        check_typed_constant(rel, &lines, &in_test, &mut out);
    }
    if !server_boundary_allowed(rel) {
        check_server_boundary(rel, &lines, &in_test, &mut out);
    }
    if !fs_boundary_allowed(rel) {
        check_fs_boundary(rel, &lines, &in_test, &mut out);
    }
    if path_matches(rel, NO_ALLOC_FILES) {
        check_no_alloc(rel, &lines, &in_test, &mut out);
    }
    if no_sleep_lock_scope(rel) {
        check_no_sleep_while_locked(rel, &lines, &in_test, &mut out);
    }
    if wallclock_free_scope(rel) {
        check_no_wallclock(rel, &lines, &mut out);
    }
    check_unwrap(rel, &lines, &in_test, &mut out);
    out
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == ".git" {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// True if `rel` is library/binary source the tidy rules govern: `src/`
/// trees of the workspace crates and the root package. Shims are vendored
/// API stubs, and the lint crate itself names the forbidden patterns.
fn in_scope(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    if p.starts_with("shims/") || p.starts_with("crates/lint/") {
        return false;
    }
    let src_tree = p.starts_with("src/") || (p.starts_with("crates/") && p.contains("/src/"));
    src_tree && !p.contains("/tests/")
}

/// Scans a workspace (or fixture) root, applying each rule to the files in
/// its scope. Paths in the returned violations are relative to `root`.
///
/// # Errors
///
/// Returns [`std::io::Error`] if the tree cannot be read.
pub fn scan_root(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        if !in_scope(&rel) {
            continue;
        }
        let content = fs::read_to_string(&path)?;
        out.extend(scan_content(&rel, &content));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(p: &str) -> PathBuf {
        PathBuf::from(p)
    }

    #[test]
    fn raw_f64_in_public_energy_signature_fires() {
        let src = "pub fn read_energy(v: f64) -> f64 {\n    v\n}\n";
        let v = scan_content(&rel("crates/wattch/src/energy.rs"), src);
        assert!(v.iter().any(|v| v.rule == Rule::RawF64PublicSig), "{v:?}");
    }

    #[test]
    fn raw_f64_marker_suppresses() {
        let src = "/// A ratio.\n// lint: allow(raw-f64): dimensionless ratio\npub fn frac() -> f64 {\n    0.5\n}\n";
        let v = scan_content(&rel("crates/wattch/src/energy.rs"), src);
        assert!(v.iter().all(|v| v.rule != Rule::RawF64PublicSig), "{v:?}");
    }

    #[test]
    fn raw_f64_ignored_outside_energy_modules() {
        let src = "pub fn ipc(&self) -> f64 {\n    1.0\n}\n";
        let v = scan_content(&rel("crates/uarch/src/core.rs"), src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lossy_cast_fires_and_marker_suppresses() {
        let bad = "fn f(n: usize) -> f64 {\n    n as f64\n}\n";
        let v = scan_content(&rel("crates/core/src/pricing.rs"), bad);
        assert!(v.iter().any(|v| v.rule == Rule::LossyCast), "{v:?}");
        let good =
            "fn f(n: usize) -> f64 {\n    n as f64 // lint: allow(lossy-cast): counts are exact\n}\n";
        let v = scan_content(&rel("crates/core/src/pricing.rs"), good);
        assert!(v.iter().all(|v| v.rule != Rule::LossyCast), "{v:?}");
    }

    #[test]
    fn unwrap_outside_tests_fires() {
        let src = "pub fn f() {\n    let x: Option<u8> = None;\n    x.unwrap();\n}\n";
        let v = scan_content(&rel("crates/cachesim/src/cache.rs"), src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnwrapOutsideTests);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn unwrap_inside_cfg_test_module_is_fine() {
        let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        None::<u8>.unwrap();\n    }\n}\n";
        let v = scan_content(&rel("crates/cachesim/src/cache.rs"), src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn doc_comment_unwrap_is_fine() {
        let src = "/// ```\n/// thing().unwrap();\n/// ```\npub fn thing() {}\n";
        let v = scan_content(&rel("crates/cachesim/src/cache.rs"), src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lock_while_shard_guard_live_fires() {
        let src = "fn f(&self) {\n    let mut shard = self.shard(&key).lock().unwrap();\n    self.inflight.wait();\n    drop(shard);\n}\n";
        let v = scan_content(&rel("crates/core/src/study.rs"), src);
        assert!(v.iter().any(|v| v.rule == Rule::LockOrder), "{v:?}");
    }

    #[test]
    fn lock_after_drop_is_fine() {
        let src = "fn f(&self) {\n    let mut shard = self.shard(&key).lock().unwrap();\n    drop(shard);\n    self.inflight.wait();\n}\n";
        let v = scan_content(&rel("crates/core/src/study.rs"), src);
        assert!(v.iter().all(|v| v.rule != Rule::LockOrder), "{v:?}");
    }

    #[test]
    fn guard_dies_with_its_block() {
        let src = "fn f(&self) {\n    {\n        let shard = m.lock().unwrap();\n    }\n    other.lock();\n}\n";
        let v = scan_content(&rel("crates/core/src/parallel.rs"), src);
        assert!(v.iter().all(|v| v.rule != Rule::LockOrder), "{v:?}");
    }

    #[test]
    fn typed_constant_fires_on_bare_table2_literals() {
        let src = "fn arrays() -> (usize, usize) {\n    (1024, 512)\n}\n";
        let v = scan_content(&rel("crates/core/src/pricing.rs"), src);
        assert!(v.iter().any(|v| v.rule == Rule::TypedConstant), "{v:?}");
    }

    #[test]
    fn typed_constant_allows_the_defining_const_and_markers() {
        let src = "pub const TABLE2_L1D_LINES: usize = 1024;\n";
        let v = scan_content(&rel("crates/core/src/pricing.rs"), src);
        assert!(v.iter().all(|v| v.rule != Rule::TypedConstant), "{v:?}");
        let marked = "// lint: allow(typed-constant): interval menu, not geometry\nlet d = 1024;\n";
        let v = scan_content(&rel("crates/leakctl/src/economics.rs"), marked);
        assert!(v.iter().all(|v| v.rule != Rule::TypedConstant), "{v:?}");
    }

    #[test]
    fn typed_constant_ignores_embedded_digits_and_other_files() {
        // 383.15, 100_000 and 1512 all contain the literals as substrings
        // but are different numbers; other modules are out of scope.
        let src = "fn f() {\n    let t = 383.15;\n    let n = 100_000;\n    let x = 1512;\n}\n";
        let v = scan_content(&rel("crates/leakctl/src/economics.rs"), src);
        assert!(v.iter().all(|v| v.rule != Rule::TypedConstant), "{v:?}");
        let elsewhere = "fn f() -> u64 {\n    1024\n}\n";
        let v = scan_content(&rel("crates/cachesim/src/cache.rs"), elsewhere);
        assert!(v.iter().all(|v| v.rule != Rule::TypedConstant), "{v:?}");
    }

    #[test]
    fn sockets_and_spawns_fire_outside_the_server_boundary() {
        let net = "use std::net::TcpListener;\n";
        let v = scan_content(&rel("crates/cachesim/src/cache.rs"), net);
        assert!(v.iter().any(|v| v.rule == Rule::ServerBoundary), "{v:?}");

        let spawn = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
        let v = scan_content(&rel("crates/core/src/figures.rs"), spawn);
        assert!(v.iter().any(|v| v.rule == Rule::ServerBoundary), "{v:?}");

        let scoped = "fn f() {\n    scope.spawn(|| {});\n}\n";
        let v = scan_content(&rel("src/lib.rs"), scoped);
        assert!(v.iter().any(|v| v.rule == Rule::ServerBoundary), "{v:?}");
    }

    #[test]
    fn server_boundary_allows_studyd_parallel_tests_and_markers() {
        let net = "use std::net::TcpListener;\nfn f() {\n    std::thread::spawn(|| {});\n}\n";
        for allowed in [
            "crates/studyd/src/server.rs",
            "crates/studyd/src/client.rs",
            "crates/core/src/parallel.rs",
        ] {
            let v = scan_content(&rel(allowed), net);
            assert!(
                v.iter().all(|v| v.rule != Rule::ServerBoundary),
                "{allowed}: {v:?}"
            );
        }

        let in_test = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        std::thread::spawn(|| {}).join();\n    }\n}\n";
        let v = scan_content(&rel("crates/cachesim/src/cache.rs"), in_test);
        assert!(v.iter().all(|v| v.rule != Rule::ServerBoundary), "{v:?}");

        let marked =
            "// lint: allow(server-boundary): one-shot telemetry probe\nuse std::net::UdpSocket;\n";
        let v = scan_content(&rel("crates/cachesim/src/cache.rs"), marked);
        assert!(v.iter().all(|v| v.rule != Rule::ServerBoundary), "{v:?}");
    }

    #[test]
    fn fleet_owns_sockets_but_never_the_filesystem() {
        // The fleet crate is inside the server boundary (it owns the
        // peer TCP client)...
        let net = "use std::net::TcpStream;\n";
        let v = scan_content(&rel("crates/fleet/src/client.rs"), net);
        assert!(v.iter().all(|v| v.rule != Rule::ServerBoundary), "{v:?}");

        // ...but stays outside the fs boundary: it ships bytes and
        // hands them to runstore, which owns all disk access.
        let fs = "use std::fs;\nfn land(p: &str) {\n    let _ = std::fs::write(p, b\"seg\");\n}\n";
        let v = scan_content(&rel("crates/fleet/src/shipper.rs"), fs);
        assert!(v.iter().any(|v| v.rule == Rule::FsBoundary), "{v:?}");
    }

    #[test]
    fn fs_access_fires_outside_the_store_boundary() {
        let import = "use std::fs;\n";
        let v = scan_content(&rel("crates/cachesim/src/cache.rs"), import);
        assert!(v.iter().any(|v| v.rule == Rule::FsBoundary), "{v:?}");

        let write = "fn f() {\n    let _ = std::fs::write(\"out.json\", \"{}\");\n}\n";
        let v = scan_content(&rel("crates/bench/src/bin/figures.rs"), write);
        assert!(v.iter().any(|v| v.rule == Rule::FsBoundary), "{v:?}");
    }

    #[test]
    fn fs_boundary_allows_runstore_tests_and_markers() {
        let src = "use std::fs;\nfn f() {\n    let _ = std::fs::read(\"seg\");\n}\n";
        let v = scan_content(&rel("crates/runstore/src/lib.rs"), src);
        assert!(v.iter().all(|v| v.rule != Rule::FsBoundary), "{v:?}");

        let in_test = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = std::fs::read(\"x\");\n    }\n}\n";
        let v = scan_content(&rel("crates/cachesim/src/cache.rs"), in_test);
        assert!(v.iter().all(|v| v.rule != Rule::FsBoundary), "{v:?}");

        let marked = "// lint: allow(fs-boundary): bench artifact emission\nfn f() {\n    let _ = std::fs::write(\"BENCH.json\", \"{}\");\n}\n";
        let v = scan_content(&rel("crates/bench/src/bin/figures.rs"), marked);
        assert!(v.iter().all(|v| v.rule != Rule::FsBoundary), "{v:?}");
    }

    #[test]
    fn alloc_on_the_wheel_hot_path_fires() {
        let src = "fn cascade(&mut self) {\n    let moved: Vec<u32> = self.ids.to_vec();\n}\n";
        let v = scan_content(&rel("crates/cachesim/src/wheel.rs"), src);
        assert!(v.iter().any(|v| v.rule == Rule::NoAllocInSweep), "{v:?}");

        let collect = "fn drain(&mut self) {\n    let due: Vec<u32> = self.iter().collect();\n}\n";
        let v = scan_content(&rel("crates/cachesim/src/wheel.rs"), collect);
        assert!(v.iter().any(|v| v.rule == Rule::NoAllocInSweep), "{v:?}");
    }

    #[test]
    fn alloc_marker_and_test_code_suppress_on_the_hot_path() {
        let marked = "fn new(n: usize) -> Self {\n    // lint: allow(no-alloc-in-sweep): one-time construction\n    let next = vec![0u32; n];\n    Self { next }\n}\n";
        let v = scan_content(&rel("crates/cachesim/src/wheel.rs"), marked);
        assert!(v.iter().all(|v| v.rule != Rule::NoAllocInSweep), "{v:?}");

        let in_test = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let fired = vec![1, 2];\n    }\n}\n";
        let v = scan_content(&rel("crates/cachesim/src/wheel.rs"), in_test);
        assert!(v.iter().all(|v| v.rule != Rule::NoAllocInSweep), "{v:?}");
    }

    #[test]
    fn alloc_is_fine_off_the_hot_path() {
        let src = "fn f() -> Vec<u32> {\n    vec![1, 2]\n}\n";
        let v = scan_content(&rel("crates/cachesim/src/cache.rs"), src);
        assert!(v.iter().all(|v| v.rule != Rule::NoAllocInSweep), "{v:?}");
    }

    #[test]
    fn sleep_under_a_live_guard_fires() {
        let src = "fn f(&self) {\n    let mut writer = lock(&self.writer);\n    thread::sleep(POLL_INTERVAL);\n}\n";
        let v = scan_content(&rel("crates/studyd/src/server.rs"), src);
        assert!(
            v.iter().any(|v| v.rule == Rule::NoSleepWhileLocked),
            "{v:?}"
        );

        let io = "fn f(&self) {\n    let g = self.state.lock().expect(\"state\");\n    self.sock.write_all(b\"x\");\n}\n";
        let v = scan_content(&rel("crates/core/src/study.rs"), io);
        assert!(
            v.iter().any(|v| v.rule == Rule::NoSleepWhileLocked),
            "{v:?}"
        );
    }

    #[test]
    fn sleep_after_drop_or_block_end_is_fine() {
        let dropped = "fn f(&self) {\n    let g = self.state.lock().expect(\"state\");\n    drop(g);\n    thread::sleep(POLL_INTERVAL);\n}\n";
        let v = scan_content(&rel("crates/studyd/src/server.rs"), dropped);
        assert!(
            v.iter().all(|v| v.rule != Rule::NoSleepWhileLocked),
            "{v:?}"
        );

        let scoped = "fn f(&self) {\n    {\n        let g = self.state.lock().expect(\"state\");\n    }\n    thread::sleep(POLL_INTERVAL);\n}\n";
        let v = scan_content(&rel("crates/studyd/src/server.rs"), scoped);
        assert!(
            v.iter().all(|v| v.rule != Rule::NoSleepWhileLocked),
            "{v:?}"
        );
    }

    #[test]
    fn condvar_wait_markers_and_other_crates_are_exempt() {
        // `.wait(` releases the guard while blocked — the sanctioned idiom.
        let wait = "fn f(&self) {\n    let mut g = self.state.lock().expect(\"state\");\n    g = self.cv.wait(g).expect(\"wait\");\n}\n";
        let v = scan_content(&rel("crates/studyd/src/queue.rs"), wait);
        assert!(
            v.iter().all(|v| v.rule != Rule::NoSleepWhileLocked),
            "{v:?}"
        );

        let marked = "fn f(&self) {\n    let mut writer = lock(&self.writer);\n    // lint: allow(no-sleep-while-locked): writes are line-atomic by design\n    writer.write_all(b\"x\");\n}\n";
        let v = scan_content(&rel("crates/studyd/src/server.rs"), marked);
        assert!(
            v.iter().all(|v| v.rule != Rule::NoSleepWhileLocked),
            "{v:?}"
        );

        let elsewhere = "fn f(&self) {\n    let g = self.state.lock().expect(\"state\");\n    thread::sleep(POLL_INTERVAL);\n}\n";
        let v = scan_content(&rel("crates/cachesim/src/cache.rs"), elsewhere);
        assert!(
            v.iter().all(|v| v.rule != Rule::NoSleepWhileLocked),
            "{v:?}"
        );
    }

    #[test]
    fn wallclock_in_the_harness_and_the_simulator_fires() {
        let import = "use std::time::Instant;\n";
        let v = scan_content(&rel("crates/leakage/src/observer.rs"), import);
        assert!(v.iter().any(|v| v.rule == Rule::NoWallclock), "{v:?}");

        let read = "fn f() {\n    let t = Instant::now();\n}\n";
        for file in [
            "crates/leakage/src/sweep.rs",
            "crates/uarch/src/core.rs",
            "crates/cachesim/src/cache.rs",
            "crates/specgen/src/arena.rs",
        ] {
            let v = scan_content(&rel(file), read);
            assert!(
                v.iter().any(|v| v.rule == Rule::NoWallclock),
                "{file}: {v:?}"
            );
        }

        // Test modules are NOT exempt: seed-purity is a whole-crate
        // contract for the harness.
        let in_test = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _ = std::time::SystemTime::now();\n    }\n}\n";
        let v = scan_content(&rel("crates/leakage/src/metrics.rs"), in_test);
        assert!(v.iter().any(|v| v.rule == Rule::NoWallclock), "{v:?}");
    }

    #[test]
    fn wallclock_markers_comments_and_other_crates_are_exempt() {
        let marked = "// lint: allow(no-wallclock): startup banner only, never measured\nfn f() {\n    let t = Instant::now();\n}\n";
        let v = scan_content(&rel("crates/leakage/src/lib.rs"), marked);
        assert!(v.iter().all(|v| v.rule != Rule::NoWallclock), "{v:?}");

        // Prose mentioning the forbidden tokens is not a violation.
        let comment = "//! Wall-clock time (std::time, Instant::now()) never enters the harness.\npub fn f() {}\n";
        let v = scan_content(&rel("crates/leakage/src/lib.rs"), comment);
        assert!(v.iter().all(|v| v.rule != Rule::NoWallclock), "{v:?}");

        // Outside the harness, wall-clock use is governed by other rules.
        let elsewhere = "use std::time::Instant;\n";
        let v = scan_content(&rel("crates/bench/src/bin/bench_wheel.rs"), elsewhere);
        assert!(v.iter().all(|v| v.rule != Rule::NoWallclock), "{v:?}");
    }

    #[test]
    fn scope_excludes_shims_and_lint_itself() {
        assert!(!in_scope(&rel("shims/serde/src/lib.rs")));
        assert!(!in_scope(&rel("crates/lint/src/lib.rs")));
        assert!(in_scope(&rel("crates/wattch/src/energy.rs")));
        assert!(in_scope(&rel("src/lib.rs")));
        assert!(!in_scope(&rel("tests/properties.rs")));
        assert!(!in_scope(&rel("crates/core/tests/audit_properties.rs")));
    }
}
