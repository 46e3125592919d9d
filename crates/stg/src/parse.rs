//! Reader and writer for the `.g` (astg) STG interchange format used by
//! `petrify`, SIS and Workcraft.
//!
//! Supported sections: `.model`, `.inputs`, `.outputs`, `.internal`,
//! `.dummy`, `.graph`, `.marking`, `.end`, plus `#` comments. Within
//! `.graph`, each line is `source target target...` where nodes are signal
//! transitions (`a+`, `b-/2`), dummy names, or explicit place names.
//! Implicit places between two transitions are written `<t1,t2>` in
//! `.marking`.
//!
//! # Examples
//!
//! ```
//! use rt_stg::parse::{parse_g, write_g};
//!
//! let text = "\
//! .model tiny
//! .inputs a
//! .outputs b
//! .graph
//! a+ b+
//! b+ a-
//! a- b-
//! b- a+
//! .marking { <b-,a+> }
//! .end
//! ";
//! let stg = parse_g(text)?;
//! let round = write_g(&stg);
//! let again = parse_g(&round)?;
//! assert_eq!(again.signal_count(), 2);
//! # Ok::<(), rt_stg::StgError>(())
//! ```

use std::collections::HashMap;

use crate::error::StgError;
use crate::petri::TransitionId;
use crate::signal::SignalKind;
use crate::stg::{split_event_name, Stg, TransitionLabel};

/// Parses the `.g` textual format into an [`Stg`].
///
/// Signals are declared in the order the directives name them (a
/// repeated directive appends). Each transition keeps the name it was
/// read under, so `a+/1` stays `a+/1` whichever instance appears first.
///
/// # Errors
///
/// Returns [`StgError::Parse`] with a line number for syntax problems, and
/// [`StgError::DuplicateSignal`] / [`StgError::UnknownSignal`] for semantic
/// ones.
pub fn parse_g(text: &str) -> Result<Stg, StgError> {
    Parser::new(text).run()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef {
    Transition(TransitionId),
    Place(crate::petri::PlaceId),
}

struct Parser<'a> {
    text: &'a str,
    stg: Stg,
    /// Node name -> reference; transitions registered by full name
    /// (`a+`, `a+/1`, dummy names), places by name.
    nodes: HashMap<String, NodeRef>,
    dummy_names: Vec<String>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            stg: Stg::new("model"),
            nodes: HashMap::new(),
            dummy_names: Vec::new(),
        }
    }

    fn run(mut self) -> Result<Stg, StgError> {
        enum Section {
            Header,
            Graph,
            Done,
        }
        let mut section = Section::Header;
        let lines: Vec<(usize, String)> = self
            .text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                let no_comment = match l.find('#') {
                    Some(pos) => &l[..pos],
                    None => l,
                };
                (i + 1, no_comment.trim().to_string())
            })
            .filter(|(_, l)| !l.is_empty())
            .collect();

        let mut marking_lines: Vec<(usize, String)> = Vec::new();
        for (line_no, line) in &lines {
            let line_no = *line_no;
            if let Some(rest) = line.strip_prefix('.') {
                let mut parts = rest.split_whitespace();
                let directive = parts.next().unwrap_or("");
                let args: Vec<&str> = parts.collect();
                match directive {
                    "model" | "name" => {
                        if let Some(name) = args.first() {
                            self.stg.set_name(*name);
                        }
                    }
                    "inputs" => self.declare(&args, SignalKind::Input, line_no)?,
                    "outputs" => self.declare(&args, SignalKind::Output, line_no)?,
                    "internal" => self.declare(&args, SignalKind::Internal, line_no)?,
                    "dummy" => {
                        for name in args {
                            self.dummy_names.push(name.to_string());
                        }
                    }
                    "graph" => section = Section::Graph,
                    "marking" => {
                        let joined = args.join(" ");
                        marking_lines.push((line_no, joined));
                    }
                    "end" => section = Section::Done,
                    "capacity" | "slowenv" => { /* tolerated, ignored */ }
                    other => {
                        return Err(StgError::Parse {
                            line: line_no,
                            message: format!("unknown directive `.{other}`"),
                        })
                    }
                }
                continue;
            }
            match section {
                Section::Graph => self.graph_line(line, line_no)?,
                Section::Header => {
                    return Err(StgError::Parse {
                        line: line_no,
                        message: "arc line before .graph".to_string(),
                    })
                }
                Section::Done => {
                    return Err(StgError::Parse {
                        line: line_no,
                        message: "content after .end".to_string(),
                    })
                }
            }
        }
        for (line_no, text) in marking_lines {
            self.marking_line(&text, line_no)?;
        }
        Ok(self.stg)
    }

    fn declare(&mut self, names: &[&str], kind: SignalKind, _line: usize) -> Result<(), StgError> {
        for name in names {
            self.stg.add_signal(*name, kind)?;
        }
        Ok(())
    }

    /// Resolves a node name, creating transitions/places on first sight.
    fn node(&mut self, token: &str, line: usize) -> Result<NodeRef, StgError> {
        if let Some(&existing) = self.nodes.get(token) {
            return Ok(existing);
        }
        // Signal transition?
        if let Some((base, _)) = split_event_name(token) {
            if self.stg.signal_by_name(base).is_some() {
                let event = self.stg.parse_event(token)?;
                let id = self.stg.named_transition(token.to_string(), event);
                self.nodes
                    .insert(token.to_string(), NodeRef::Transition(id));
                return Ok(NodeRef::Transition(id));
            }
            return Err(StgError::Parse {
                line,
                message: format!("transition `{token}` references undeclared signal `{base}`"),
            });
        }
        // Dummy transition?
        if self.dummy_names.iter().any(|d| d == token) {
            let id = self.stg.silent(token);
            self.nodes
                .insert(token.to_string(), NodeRef::Transition(id));
            return Ok(NodeRef::Transition(id));
        }
        // Otherwise: an explicit place.
        let id = self.stg.add_place(token);
        self.nodes.insert(token.to_string(), NodeRef::Place(id));
        Ok(NodeRef::Place(id))
    }

    fn graph_line(&mut self, line: &str, line_no: usize) -> Result<(), StgError> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() < 2 {
            return Err(StgError::Parse {
                line: line_no,
                message: "arc line needs a source and at least one target".to_string(),
            });
        }
        let source = self.node(tokens[0], line_no)?;
        for target_token in &tokens[1..] {
            let target = self.node(target_token, line_no)?;
            match (source, target) {
                (NodeRef::Transition(from), NodeRef::Transition(to)) => {
                    let place = self.stg.arc(from, to);
                    // Register the implicit place for `.marking` lookup.
                    let from_name = self.stg.net().transition_name(from).to_string();
                    let to_name = self.stg.net().transition_name(to).to_string();
                    self.nodes
                        .insert(format!("<{from_name},{to_name}>"), NodeRef::Place(place));
                }
                (NodeRef::Transition(from), NodeRef::Place(place)) => {
                    self.stg.arc_to_place(from, place);
                }
                (NodeRef::Place(place), NodeRef::Transition(to)) => {
                    self.stg.arc_from_place(place, to);
                }
                (NodeRef::Place(_), NodeRef::Place(_)) => {
                    return Err(StgError::Parse {
                        line: line_no,
                        message: "place-to-place arcs are not allowed".to_string(),
                    })
                }
            }
        }
        Ok(())
    }

    fn marking_line(&mut self, text: &str, line_no: usize) -> Result<(), StgError> {
        let inner = text
            .trim()
            .trim_start_matches('{')
            .trim_end_matches('}')
            .trim();
        if inner.is_empty() {
            return Ok(());
        }
        // Tokens are place names or `<t1,t2>` pairs; split on whitespace
        // outside angle brackets.
        let mut tokens = Vec::new();
        let mut depth = 0usize;
        let mut current = String::new();
        for ch in inner.chars() {
            match ch {
                '<' => {
                    depth += 1;
                    current.push(ch);
                }
                '>' => {
                    depth = depth.saturating_sub(1);
                    current.push(ch);
                }
                c if c.is_whitespace() && depth == 0 => {
                    if !current.is_empty() {
                        tokens.push(std::mem::take(&mut current));
                    }
                }
                c => current.push(c),
            }
        }
        if !current.is_empty() {
            tokens.push(current);
        }
        for token in tokens {
            // Optional token count suffix `=k`.
            let (name, count) = match token.split_once('=') {
                Some((n, k)) => (
                    n.to_string(),
                    k.parse::<u16>().map_err(|_| StgError::Parse {
                        line: line_no,
                        message: format!("bad token count in `{token}`"),
                    })?,
                ),
                None => (token.clone(), 1),
            };
            match self.nodes.get(&name) {
                Some(NodeRef::Place(place)) => self.stg.set_tokens(*place, count),
                Some(NodeRef::Transition(_)) => {
                    return Err(StgError::Parse {
                        line: line_no,
                        message: format!("`{name}` is a transition, not a place"),
                    })
                }
                None => {
                    return Err(StgError::Parse {
                        line: line_no,
                        message: format!("unknown place `{name}` in marking"),
                    })
                }
            }
        }
        Ok(())
    }
}

/// Serializes an [`Stg`] to the `.g` format.
///
/// Signals are written in declaration order, one `.inputs`, `.outputs`
/// or `.internal` line per run of same-kind signals, so [`parse_g`]
/// declares them in the same order. Implicit places (exactly one
/// producer and one consumer, auto-generated `<a,b>` name) are written
/// as direct transition-to-transition arcs; everything else uses
/// explicit place names.
pub fn write_g(stg: &Stg) -> String {
    let net = stg.net();
    let mut out = String::new();
    out.push_str(&format!(".model {}\n", sanitize(stg.name())));
    // One directive per run of same-kind signals keeps the declaration
    // order, and with it the bit order of every state code.
    let signals: Vec<_> = stg.signals().collect();
    for run in signals.chunk_by(|&a, &b| stg.signal_kind(a) == stg.signal_kind(b)) {
        let directive = match stg.signal_kind(run[0]) {
            SignalKind::Input => ".inputs",
            SignalKind::Output => ".outputs",
            SignalKind::Internal => ".internal",
        };
        let names: Vec<&str> = run.iter().map(|&s| stg.signal_name(s)).collect();
        out.push_str(&format!("{directive} {}\n", names.join(" ")));
    }
    let dummies: Vec<String> = net
        .transitions()
        .filter(|&t| stg.label(t) == TransitionLabel::Silent)
        .map(|t| net.transition_name(t).to_string())
        .collect();
    if !dummies.is_empty() {
        out.push_str(&format!(".dummy {}\n", dummies.join(" ")));
    }
    out.push_str(".graph\n");

    let is_implicit = |p: crate::petri::PlaceId| {
        net.producers(p).len() == 1
            && net.consumers(p).len() == 1
            && net.place_name(p).starts_with('<')
    };

    for place in net.places() {
        if is_implicit(place) {
            let from = net.producers(place)[0];
            let to = net.consumers(place)[0];
            out.push_str(&format!(
                "{} {}\n",
                net.transition_name(from),
                net.transition_name(to)
            ));
        } else {
            for &from in net.producers(place) {
                out.push_str(&format!(
                    "{} {}\n",
                    net.transition_name(from),
                    net.place_name(place)
                ));
            }
            for &to in net.consumers(place) {
                out.push_str(&format!(
                    "{} {}\n",
                    net.place_name(place),
                    net.transition_name(to)
                ));
            }
        }
    }

    let marking = stg.initial_marking();
    let mut entries = Vec::new();
    for (place, tokens) in marking.marked_places() {
        let name = if is_implicit(place) {
            let from = net.producers(place)[0];
            let to = net.consumers(place)[0];
            format!(
                "<{},{}>",
                net.transition_name(from),
                net.transition_name(to)
            )
        } else {
            net.place_name(place).to_string()
        };
        if tokens == 1 {
            entries.push(name);
        } else {
            entries.push(format!("{name}={tokens}"));
        }
    }
    out.push_str(&format!(".marking {{ {} }}\n", entries.join(" ")));
    out.push_str(".end\n");
    out
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "model".to_string()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::reach::explore;

    #[test]
    fn parse_minimal_handshake() {
        let text = "\
.model hs
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";
        let stg = parse_g(text).unwrap();
        assert_eq!(stg.signal_count(), 2);
        let sg = explore(&stg).unwrap();
        assert_eq!(sg.state_count(), 4);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\
# top comment
.model hs

.inputs a  # trailing comment
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";
        assert!(parse_g(text).is_ok());
    }

    #[test]
    fn explicit_places_and_choice() {
        let text = "\
.model choice
.inputs a b
.outputs c
.graph
p0 a+
p0 b+
a+ c+
b+ c+/1
c+ p1
c+/1 p1
p1 a-
a- c-
c- p0
.marking { p0 }
.end
";
        let stg = parse_g(text).unwrap();
        assert!(!stg.net().is_marked_graph());
        assert!(stg.net().place_count() > 0);
    }

    #[test]
    fn undeclared_signal_is_an_error() {
        let text = "\
.model bad
.inputs a
.graph
a+ z+
.marking { }
.end
";
        let err = parse_g(text).unwrap_err();
        assert!(matches!(err, StgError::Parse { .. }), "got {err:?}");
    }

    #[test]
    fn marking_with_unknown_place_is_an_error() {
        let text = "\
.model bad
.inputs a
.outputs b
.graph
a+ b+
b+ a+
.marking { nowhere }
.end
";
        let err = parse_g(text).unwrap_err();
        assert!(matches!(err, StgError::Parse { .. }));
    }

    #[test]
    fn dummy_transitions_parse() {
        let text = "\
.model dum
.inputs a
.dummy eps
.graph
a+ eps
eps a-
a- a+
.marking { <a-,a+> }
.end
";
        let stg = parse_g(text).unwrap();
        let sg = explore(&stg).unwrap();
        assert_eq!(sg.state_count(), 3);
    }

    #[test]
    fn roundtrip_fifo() {
        let original = models::fifo_stg();
        let text = write_g(&original);
        let parsed = parse_g(&text).unwrap();
        let sg_a = explore(&original).unwrap();
        let sg_b = explore(&parsed).unwrap();
        assert_eq!(sg_a.state_count(), sg_b.state_count());
        assert_eq!(sg_a.arc_count(), sg_b.arc_count());
        assert_eq!(parsed.signal_count(), original.signal_count());
    }

    #[test]
    fn roundtrip_celement_and_chain() {
        for stg in [models::celement_stg(), models::chain_stg(2)] {
            let text = write_g(&stg);
            let parsed = parse_g(&text).unwrap();
            let sg_a = explore(&stg).unwrap();
            let sg_b = explore(&parsed).unwrap();
            assert_eq!(sg_a.state_count(), sg_b.state_count(), "{text}");
        }
    }

    #[test]
    fn marking_token_counts() {
        let text = "\
.model counted
.inputs a
.graph
p0 a+
a+ p0
.marking { p0=2 }
.end
";
        let stg = parse_g(text).unwrap();
        assert_eq!(stg.initial_marking().total_tokens(), 2);
    }

    #[test]
    fn suffixed_transitions_keep_the_names_they_were_read_under() {
        // `a+/1` is read before `a+`, and the marking names the place
        // before `a+/1` by its suffixed token.
        let text = "\
.model swap
.inputs a
.outputs b
.graph
a+/1 b+
b+ a-/1
a-/1 b-
b- a+
a+ b+/1
b+/1 a-
a- b-/1
b-/1 a+/1
.marking { <b-/1,a+/1> }
.end
";
        let names = |stg: &Stg| -> Vec<String> {
            stg.net()
                .transitions()
                .map(|t| stg.net().transition_name(t).to_string())
                .collect()
        };
        let marked = |stg: &Stg| -> Vec<String> {
            stg.initial_marking()
                .marked_places()
                .map(|(p, _)| stg.net().place_name(p).to_string())
                .collect()
        };
        let stg = parse_g(text).expect("the marked place is known");
        let read = ["a+/1", "b+", "a-/1", "b-", "a+", "b+/1", "a-", "b-/1"];
        assert_eq!(names(&stg), read);
        for t in stg.net().transitions() {
            let event = stg.label(t).event().expect("signal transition");
            let name = stg.net().transition_name(t);
            assert_eq!(stg.event_name(event), name.split('/').next().unwrap());
        }
        assert_eq!(marked(&stg), ["<b-/1,a+/1>"]);
        assert_eq!(explore(&stg).expect("explores").state_count(), 8);

        let again = parse_g(&write_g(&stg)).expect("the writer's text parses");
        assert_eq!(names(&again), read);
        assert_eq!(marked(&again), ["<b-/1,a+/1>"]);
    }

    #[test]
    fn writer_emits_all_sections() {
        let text = write_g(&models::fifo_stg_csc());
        assert!(text.contains(".inputs li\n.outputs lo ro\n.inputs ri\n.internal x\n"));
        assert!(text.contains(".dummy eps"));
        assert!(text.contains(".marking"));
        assert!(text.ends_with(".end\n"));
    }
}
