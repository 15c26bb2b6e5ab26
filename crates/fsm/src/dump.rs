//! Table dumps: markdown (for DESIGN.md + golden files) and Graphviz DOT.

use crate::table::{NextState, RowKind, Table};
use crate::Alphabet;

impl<S: Alphabet, E: Alphabet, A: Alphabet> Table<S, E, A> {
    /// Renders the table's legal rows as a GitHub-flavored markdown table,
    /// state-major, after the table's notes and with a trailing summary of
    /// the (explicit) violation rows. Output is deterministic, so it doubles
    /// as a golden file: any change to the protocol tables shows up as a
    /// diff here.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "### Machine `{}`\n\n{} states x {} events; {} legal rows, {} violation rows.\n\n",
            self.name(),
            S::ALL.len(),
            E::ALL.len(),
            self.legal_rows(),
            self.len() - self.legal_rows(),
        ));
        for note in &self.notes {
            out.push_str(note);
            out.push_str("\n\n");
        }
        // A tagged table gets a last column; the others print as before.
        let tagged = self.tags.iter().any(|t| !t.is_empty());
        let (head, rule) = if tagged {
            (" Guarantee |", "---|")
        } else {
            ("", "")
        };
        out.push_str(&format!(
            "| State | Event | Outcome | Actions | Next |{head}\n"
        ));
        out.push_str(&format!("|---|---|---|---|---|{rule}\n"));
        for (s, e, row) in self.rows() {
            let tag = match self.tag(s, e) {
                _ if !tagged => String::new(),
                "" => " — |".to_string(),
                t => format!(" {t} |"),
            };
            match row {
                RowKind::Transition { actions, next } => {
                    let acts = if actions.is_empty() {
                        "—".to_string()
                    } else {
                        actions
                            .iter()
                            .map(|a| a.label())
                            .collect::<Vec<_>>()
                            .join(", ")
                    };
                    let next = match next {
                        NextState::To(n) => n.label(),
                        NextState::Dynamic => "(dynamic)",
                    };
                    out.push_str(&format!(
                        "| {} | {} | transition | {} | {} |{tag}\n",
                        s.label(),
                        e.label(),
                        acts,
                        next
                    ));
                }
                RowKind::Stall => {
                    out.push_str(&format!(
                        "| {} | {} | stall | — | — |{tag}\n",
                        s.label(),
                        e.label()
                    ));
                }
                RowKind::Violation => {}
            }
        }
        out.push_str(
            "\nEvery `(state, event)` pair not listed above is an explicit \
             violation row.\n",
        );
        out
    }

    /// Renders the fixed-successor transitions as a Graphviz digraph.
    /// Events sharing the same `state -> next` edge are folded into one
    /// label; dynamic-successor rows appear as dashed self-edges suffixed
    /// `*`; stalls are omitted (they do not change state).
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{}\" {{\n", self.name()));
        out.push_str("  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n");
        for s in S::ALL {
            out.push_str(&format!("  \"{}\";\n", s.label()));
        }
        // (from, to, dashed) -> folded event labels, in first-seen order.
        type EdgeKey = (&'static str, &'static str, bool);
        let mut edges: Vec<(EdgeKey, Vec<String>)> = Vec::new();
        for (s, e, row) in self.rows() {
            if let RowKind::Transition { next, .. } = row {
                let (to, dashed, label) = match next {
                    NextState::To(n) => (n.label(), false, e.label().to_string()),
                    NextState::Dynamic => (s.label(), true, format!("{}*", e.label())),
                };
                let key = (s.label(), to, dashed);
                match edges.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, labels)) => labels.push(label),
                    None => edges.push((key, vec![label])),
                }
            }
        }
        for ((from, to, dashed), labels) in edges {
            let style = if dashed { ", style=dashed" } else { "" };
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{}\"{}];\n",
                from,
                to,
                labels.join("\\n"),
                style
            ));
        }
        out.push_str("}\n");
        out
    }
}
