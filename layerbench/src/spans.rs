//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into a
//! layer's public functions. Every span of one run carries the same session
//! id; all are kept in memory and written as JSON lines when the run ends.
//! A disabled tracer records nothing and costs one branch per call.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Id of a recorded span (index into the tracer); [`NO_SPAN`] is the root.
pub type SpanId = u32;

/// Parent of top-level spans.
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Clone, Debug)]
struct Span {
    name: u16,
    thread: u16,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
    /// Units of work the span covered (events or bytes, by layer).
    work: u64,
}

/// A per-thread span recorder. Threads of one run share the time origin;
/// [`Tracer::absorb`] merges their spans at the end.
pub struct Tracer {
    enabled: bool,
    thread: u16,
    origin: Instant,
    threads: Vec<String>,
    names: Vec<String>,
    name_ids: HashMap<String, u16>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for `thread`, timing relative to `origin`.
    pub fn new(enabled: bool, thread: &str, origin: Instant) -> Self {
        Tracer {
            enabled,
            thread: 0,
            origin,
            threads: vec![thread.to_string()],
            names: Vec::new(),
            name_ids: HashMap::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread of the same run.
    pub fn fork(&self, thread: &str) -> Self {
        Tracer::new(self.enabled, thread, self.origin)
    }

    fn name_id(&mut self, name: &str) -> u16 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = u16::try_from(self.names.len()).expect("fewer than 65536 span names");
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    /// Opens a span named `name` under `parent`; close it with
    /// [`end`](Tracer::end).
    pub fn begin(&mut self, name: &str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let name = self.name_id(name);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            thread: self.thread,
            parent,
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes span `id`, crediting it with `work` units.
    pub fn end(&mut self, id: SpanId, work: u64) {
        if !self.enabled || id == NO_SPAN {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.work = work;
    }

    /// Moves every span of `other` (another thread's tracer) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        for s in other.spans {
            let name = self.name_id(&other.names[s.name as usize]);
            let thread_name = &other.threads[s.thread as usize];
            let thread = match self.threads.iter().position(|t| t == thread_name) {
                Some(i) => i,
                None => {
                    self.threads.push(thread_name.clone());
                    self.threads.len() - 1
                }
            } as u16;
            let parent = if s.parent == NO_SPAN {
                NO_SPAN
            } else {
                s.parent + base
            };
            self.spans.push(Span {
                name,
                thread,
                parent,
                ..s
            });
        }
    }

    /// Total duration (ns) and work of every span named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let Some(&id) = self.name_ids.get(name) else {
            return (0.0, 0);
        };
        self.spans
            .iter()
            .filter(|s| s.name == id)
            .fold((0.0, 0), |(ns, work), s| {
                (ns + (s.end_ns - s.start_ns) as f64, work + s.work)
            })
    }

    /// Nanoseconds per unit of work over every span named `name`; 0 when
    /// no such span did any work.
    pub fn ns_per_work(&self, name: &str) -> f64 {
        let (ns, work) = self.total(name);
        if work == 0 {
            0.0
        } else {
            ns / work as f64
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line, after a header line, to
    /// `dir/spans-<session>.jsonl`; returns the path.
    pub fn write(&self, dir: &Path, session: &str, header: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("spans-{session}.jsonl"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"session\":\"{session}\",\"id\":{id},\"parent\":{parent},\
                 \"thread\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"work\":{}}}",
                self.threads[s.thread as usize],
                self.names[s.name as usize],
                s.start_ns,
                s.end_ns,
                s.work
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}
