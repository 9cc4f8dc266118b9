//! Scoped stage timers and the per-run trace tree.
//!
//! A [`span`] guard times the region between its creation and drop. Spans
//! opened while another span is alive on the same thread nest under it, so
//! draining with [`take_trace`] yields a tree mirroring the pipeline's
//! call structure. Each span's wall time is also recorded into the global
//! registry's histogram of the same name.
//!
//! A thread that never drains — a server worker — keeps only its
//! `MAX_ROOTS` most recent root spans; older ones are dropped.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::observer::EventKind;

/// One completed span: name, wall time, and the spans nested inside it.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// The span's name (also its histogram name in the registry).
    pub name: String,
    /// Wall time between guard creation and drop.
    pub duration: Duration,
    /// Spans that started and finished while this one was open.
    pub children: Vec<SpanNode>,
}

/// The completed root spans of one thread's run, in completion order.
#[derive(Clone, Debug, Default)]
pub struct TraceTree {
    /// Top-level spans (those with no enclosing span).
    pub roots: Vec<SpanNode>,
}

impl TraceTree {
    /// Renders the tree as indented `name  duration` lines.
    pub fn render_text(&self) -> String {
        fn walk(out: &mut String, node: &SpanNode, depth: usize) {
            let _ = writeln!(
                out,
                "{:indent$}{}  {:.3} ms",
                "",
                node.name,
                node.duration.as_secs_f64() * 1e3,
                indent = depth * 2
            );
            for child in &node.children {
                walk(out, child, depth + 1);
            }
        }
        let mut out = String::new();
        for root in &self.roots {
            walk(&mut out, root, 0);
        }
        out
    }

    /// Total number of spans in the tree.
    pub fn len(&self) -> usize {
        fn count(node: &SpanNode) -> usize {
            1 + node.children.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }

    /// True when no spans completed.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Depth-first search for a span by name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        fn walk<'n>(nodes: &'n [SpanNode], name: &str) -> Option<&'n SpanNode> {
            for node in nodes {
                if node.name == name {
                    return Some(node);
                }
                if let Some(found) = walk(&node.children, name) {
                    return Some(found);
                }
            }
            None
        }
        walk(&self.roots, name)
    }
}

struct PendingSpan {
    name: String,
    start: Instant,
    children: Vec<SpanNode>,
}

/// Root spans a thread retains between [`take_trace`] calls. A run that
/// wants its whole tree opens one root around it, so the bound only ever
/// cuts the history of a thread nobody drains.
const MAX_ROOTS: usize = 256;

thread_local! {
    static STACK: RefCell<Vec<PendingSpan>> = const { RefCell::new(Vec::new()) };
    static ROOTS: RefCell<VecDeque<SpanNode>> = const { RefCell::new(VecDeque::new()) };
}

/// Opens a timed span; the returned guard closes it on drop.
///
/// On close the span records its wall time into the global registry's
/// histogram named after the span, emits a [`EventKind::SpanEnd`] event,
/// and files itself into the thread's [`TraceTree`].
#[must_use = "a span measures until the guard drops; binding to _ closes it immediately"]
pub fn span(name: &str) -> SpanGuard {
    STACK.with(|stack| {
        stack.borrow_mut().push(PendingSpan {
            name: name.to_string(),
            start: Instant::now(),
            children: Vec::new(),
        });
    });
    SpanGuard { _private: () }
}

/// Guard returned by [`span`]; closes the span when dropped.
pub struct SpanGuard {
    _private: (),
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let node = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let pending = stack.pop().expect("span stack underflow");
            let node = SpanNode {
                name: pending.name,
                duration: pending.start.elapsed(),
                children: pending.children,
            };
            match stack.last_mut() {
                Some(parent) => {
                    parent.children.push(node);
                    None
                }
                None => Some(node),
            }
        });
        let (name, seconds) = match &node {
            Some(root) => (root.name.clone(), root.duration.as_secs_f64()),
            None => return record_nested(),
        };
        ROOTS.with(|roots| {
            let mut roots = roots.borrow_mut();
            if roots.len() == MAX_ROOTS {
                roots.pop_front();
            }
            roots.push_back(node.unwrap());
        });
        record(&name, seconds);
    }
}

/// Records the just-closed nested span (still sitting in its parent).
fn record_nested() {
    STACK.with(|stack| {
        let stack = stack.borrow();
        let parent = stack.last().expect("nested span must have a parent");
        let child = parent.children.last().expect("child just pushed");
        record(&child.name, child.duration.as_secs_f64());
    });
}

fn record(name: &str, seconds: f64) {
    let registry = crate::global();
    registry.histogram(name).observe(seconds);
    registry.emit_value(name, EventKind::SpanEnd { seconds });
}

/// Drains and returns the current thread's completed root spans, oldest
/// first. A thread retains at most its 256 most recent roots between drains.
pub fn take_trace() -> TraceTree {
    TraceTree { roots: ROOTS.with(|roots| roots.borrow_mut().drain(..).collect()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_a_tree() {
        let _ = take_trace(); // isolate from other tests on this thread
        {
            let _outer = span("outer");
            {
                let _inner_a = span("inner.a");
            }
            {
                let _inner_b = span("inner.b");
                let _leaf = span("leaf");
            }
        }
        {
            let _second = span("second");
        }
        let trace = take_trace();
        assert_eq!(trace.roots.len(), 2);
        assert_eq!(trace.len(), 5);
        let outer = &trace.roots[0];
        assert_eq!(outer.name, "outer");
        let names: Vec<_> = outer.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["inner.a", "inner.b"]);
        assert_eq!(outer.children[1].children[0].name, "leaf");
        assert_eq!(trace.find("leaf").unwrap().name, "leaf");
        assert!(trace.find("missing").is_none());
        assert!(outer.duration >= outer.children.iter().map(|c| c.duration).sum());
    }

    #[test]
    fn take_trace_drains() {
        let _ = take_trace();
        {
            let _s = span("once");
        }
        assert_eq!(take_trace().len(), 1);
        assert!(take_trace().is_empty());
    }

    #[test]
    fn an_undrained_thread_keeps_only_the_most_recent_roots() {
        let _ = take_trace();
        for i in 0..10_000 {
            let _root = span(if i < 9_999 { "undrained.root" } else { "undrained.last" });
        }
        let trace = take_trace();
        assert_eq!(trace.len(), MAX_ROOTS);
        assert_eq!(trace.roots.last().unwrap().name, "undrained.last");
    }

    #[test]
    fn spans_feed_the_registry_histogram() {
        let name = "obs.test.span_histogram";
        let before = crate::global().histogram(name).count();
        {
            let _s = span(name);
        }
        assert_eq!(crate::global().histogram(name).count(), before + 1);
    }

    #[test]
    fn render_text_indents_children() {
        let _ = take_trace();
        {
            let _p = span("parent");
            let _c = span("child");
        }
        let text = take_trace().render_text();
        assert!(text.contains("parent"), "{text}");
        assert!(text.contains("  child"), "{text}");
    }
}
