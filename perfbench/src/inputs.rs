//! Seeded input generation. The program under test only ever sees what
//! these generators build: flow specifications for `flow_corpus`, and
//! daemon requests for `daemon_small` / `daemon_wide`.
//!
//! Every draw is stratified into rounds (a shuffled permutation of a
//! fixed slot list), so two seeds give the same mix of work and differ
//! only in order and in the seeded details of each input.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rt_core::{RtAssumption, RtSynthesisFlow};
use rt_netlist::Netlist;
use rt_service::{Request, RequestPayload};
use rt_stg::engine::ReachEngine;
use rt_stg::stg::TransitionLabel;
use rt_stg::{corpus, models, Edge, PlaceId, Stg};
use rt_synth::csc::{resolve_csc_with, CscOptions, DEFAULT_SYMBOLIC_THRESHOLD};
use rt_synth::synthesize;
use rt_verify::NetOrdering;

use crate::rng::Rng;

/// One flow configuration of `flow_corpus`: a spec and a variant.
pub struct FlowItem {
    pub name: String,
    pub variant: &'static str,
    pub stg: Stg,
    pub user: Vec<RtAssumption>,
    pub flow: RtSynthesisFlow,
}

/// The specs `flow_corpus` draws from: the paper models, the `.g`
/// corpus and `chain_stg(3..=10)`. Rings and the wide nets are left
/// out: every ring ends in a typed CSC-unresolvable error after
/// 0.03–75 s, and the wide nets take as long.
pub fn flow_specs() -> Vec<(String, Stg)> {
    let mut specs: Vec<(String, Stg)> = vec![
        ("handshake".into(), models::handshake_stg()),
        ("fifo".into(), models::fifo_stg()),
        ("fifo_csc".into(), models::fifo_stg_csc()),
        ("celement".into(), models::celement_stg()),
    ];
    for (name, text) in corpus::all() {
        let stg = corpus::parse(text).expect("corpus entry parses");
        specs.push((format!("corpus:{name}"), stg));
    }
    for n in 3..=10 {
        specs.push((format!("chain{n}"), models::chain_stg(n)));
    }
    specs
}

/// Every (spec, variant) pair of `flow_corpus`: RT with automatic
/// assumptions and the SI baseline for each spec, plus both FIFO models
/// under the Figure-6 user ring assumptions. `corpus:vme_read` under
/// automatic assumptions is excluded: its netlist fails verification
/// even under its own back-annotated orderings.
pub fn flow_catalog() -> Vec<FlowItem> {
    let mut items = Vec::new();
    for (name, stg) in flow_specs() {
        if name != "corpus:vme_read" {
            items.push(FlowItem {
                name: name.clone(),
                variant: "rt",
                stg: stg.clone(),
                user: Vec::new(),
                flow: RtSynthesisFlow::new(),
            });
        }
        if name == "fifo" || name == "fifo_csc" {
            let s = |n: &str| stg.signal_by_name(n).expect("fifo signal");
            items.push(FlowItem {
                name: name.clone(),
                variant: "fig6",
                user: vec![
                    RtAssumption::user(s("ri"), Edge::Fall, s("li"), Edge::Rise),
                    RtAssumption::user(s("li"), Edge::Fall, s("ri"), Edge::Fall),
                ],
                stg: stg.clone(),
                flow: RtSynthesisFlow::new(),
            });
        }
        items.push(FlowItem {
            name,
            variant: "si",
            stg,
            user: Vec::new(),
            flow: RtSynthesisFlow::speed_independent(),
        });
    }
    items
}

/// How often an item is drawn per round of `flow_corpus`. The two
/// heaviest specs (`chain9`, `chain10`: 6–19 ms, logic synthesis
/// dominated) come at half the rate of the rest. They still take about
/// half the loop's time, and the p90 rank then falls in the dense 2–3 ms
/// band (`fifo`, `vme_read`, `pipeline_stage`, `chain8`) instead of on
/// the edge between one item's latencies on the machine's faster and
/// slower CPU, where it jumped by half between runs.
pub fn draws_per_round(item: &FlowItem) -> usize {
    if item.name == "chain9" || item.name == "chain10" {
        1
    } else {
        2
    }
}

/// Rounds of shuffled copies of a fixed multiset of indices.
pub struct RoundRobin {
    rng: Rng,
    entries: Vec<usize>,
    round: Vec<usize>,
}

impl RoundRobin {
    pub fn new(seed: u64, entries: Vec<usize>) -> RoundRobin {
        RoundRobin {
            rng: Rng::new(seed),
            entries,
            round: Vec::new(),
        }
    }
}

impl Iterator for RoundRobin {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.round.is_empty() {
            self.round = self.entries.clone();
            self.rng.shuffle(&mut self.round);
        }
        self.round.pop()
    }
}

/// A verification subject carried by Verify requests: a CSC-resolved
/// spec and the netlist synthesized from it.
pub struct PoolEntry {
    pub name: String,
    pub spec: Stg,
    pub netlist: Netlist,
    pub flow: FlowItem,
}

/// The Verify pool: the SI flow (CSC resolution, then logic synthesis)
/// on the small specs. Built during set-up.
pub fn verify_pool() -> Vec<PoolEntry> {
    let keep = [
        "handshake",
        "celement",
        "fifo",
        "fifo_csc",
        "corpus:vme_read",
        "corpus:xyz",
        "corpus:arbiter2",
        "corpus:pipeline_stage",
        "chain3",
        "chain4",
        "chain5",
        "chain6",
    ];
    let options = CscOptions {
        threads: 1,
        ..CscOptions::default()
    };
    flow_specs()
        .into_iter()
        .filter(|(name, _)| keep.contains(&name.as_str()))
        .map(|(name, stg)| {
            let resolution = resolve_csc_with(&stg, &options).expect("pool spec resolves");
            let sg = resolution.sg.expect("explicit resolution keeps its graph");
            let netlist = synthesize(&sg, &name)
                .expect("pool spec synthesizes")
                .netlist;
            PoolEntry {
                name: name.clone(),
                spec: resolution.stg,
                netlist,
                flow: FlowItem {
                    name,
                    variant: "si",
                    stg,
                    user: Vec::new(),
                    flow: RtSynthesisFlow::speed_independent(),
                },
            }
        })
        .collect()
}

/// Rebuilds a marked-graph STG with one silent buffer spliced into each
/// place of `split` (its token, if any, moves behind the buffer). The
/// result is a structurally distinct net of the same family: live and
/// safe whenever the input is, with a somewhat larger state space.
pub fn buffered(stg: &Stg, split: &[usize]) -> Stg {
    let net = stg.net();
    let mut out = Stg::new(stg.name());
    for signal in stg.signals() {
        let id = out
            .add_signal(stg.signal_name(signal), stg.signal_kind(signal))
            .expect("copied signal names are unique");
        if let Some(value) = stg.initial_value(signal) {
            out.set_initial_value(id, value);
        }
    }
    let transitions: Vec<_> = net
        .transitions()
        .map(|t| match stg.label(t) {
            TransitionLabel::Event(event) => out.transition(event),
            TransitionLabel::Silent => out.silent(net.transition_name(t)),
        })
        .collect();
    let mut producer = vec![None; net.place_count()];
    let mut consumer = vec![None; net.place_count()];
    for t in net.transitions() {
        for arc in net.postset(t) {
            producer[arc.place.index()] = Some(transitions[t.index()]);
        }
        for arc in net.preset(t) {
            consumer[arc.place.index()] = Some(transitions[t.index()]);
        }
    }
    let marking = stg.initial_marking();
    let mut buffers = 0;
    for p in 0..net.place_count() {
        let (Some(from), Some(to)) = (producer[p], consumer[p]) else {
            panic!("buffered() needs a marked graph: place {p} lacks a producer or consumer");
        };
        let marked = marking.tokens(PlaceId(p as u32)) > 0;
        let from = if split.contains(&p) {
            let buffer = out.silent(format!("buf{buffers}"));
            buffers += 1;
            out.arc(from, buffer);
            buffer
        } else {
            from
        };
        if marked {
            out.marked_arc(from, to);
        } else {
            out.arc(from, to);
        }
    }
    out
}

/// The identity the service's memo cache keys a request on: kind,
/// structural content hashes and options. Names are not part of it, so
/// two inputs with equal keys would share one cache entry; the
/// generators keep every first occurrence's key unique.
pub fn cache_key(request: &Request) -> u64 {
    let mut h = DefaultHasher::new();
    request.payload.discriminant().hash(&mut h);
    match &request.payload {
        RequestPayload::Summary { stg } | RequestPayload::CscCheck { stg } => {
            stg.content_hash().hash(&mut h);
        }
        RequestPayload::ResolveCsc { stg, options } => {
            stg.content_hash().hash(&mut h);
            options.hash(&mut h);
        }
        RequestPayload::Verify {
            netlist,
            spec,
            orderings,
        } => {
            netlist.content_hash().hash(&mut h);
            spec.content_hash().hash(&mut h);
            orderings.hash(&mut h);
        }
    }
    h.finish()
}

/// One distinct daemon input.
pub struct Input {
    /// Index among the distinct inputs of the run.
    pub id: usize,
    pub name: String,
    pub kind: &'static str,
    /// Places of the request's specification.
    pub places: usize,
    pub request: Request,
}

/// One operation of a daemon stream.
pub struct Op {
    pub seq: usize,
    pub input: Arc<Input>,
    /// Whether the op repeats an earlier input exactly.
    pub repeat: bool,
}

struct Base {
    name: String,
    stg: Stg,
    /// Marked graphs can take seeded buffer splices.
    bufferable: bool,
    /// One place per signal: the first input place of its first rising
    /// transition. Splicing any one of these in a ring, fabric or adder
    /// gives nets of nearly equal cost.
    anchors: Vec<usize>,
}

fn base(name: String, stg: Stg, bufferable: bool) -> Base {
    let net = stg.net();
    let anchors = stg
        .signals()
        .filter_map(|signal| {
            let rise = net.transitions().find(|&t| {
                matches!(stg.label(t), TransitionLabel::Event(e) if e.signal == signal && e.edge == Edge::Rise)
            })?;
            net.preset(rise).first().map(|arc| arc.place.index())
        })
        .collect();
    Base {
        name,
        stg,
        bufferable,
        anchors,
    }
}

/// `daemon_small` nets: at most 64 places and 16 signals.
fn small_bases() -> Vec<Base> {
    let mut bases = Vec::new();
    for n in 3..=10 {
        bases.push(base(format!("chain{n}"), models::chain_stg(n), true));
    }
    for n in 4..=8 {
        for k in 1..=2 {
            bases.push(base(format!("ring{n}_{k}"), models::ring_stg(n, k), true));
        }
    }
    for n in 2..=8 {
        bases.push(base(format!("adder{n}"), corpus::adder_rt_stg(n), true));
    }
    bases.push(base("fabric2x2".into(), corpus::fabric_stg(2, 2, 0), true));
    for (name, stg) in flow_specs() {
        if !name.starts_with("chain") {
            bases.push(base(name, stg, false));
        }
    }
    bases
}

/// `daemon_wide` nets: rings, RT adders and fabrics whose symbolic
/// analyses take 1–100 ms each cold. Three-token rings stop at ten
/// stages and fabrics at 3×2: with the heavier nets the two warm
/// managers serving the mix grew past 1 GB within a 10 s run.
fn wide_bases() -> Vec<Base> {
    let mut bases = Vec::new();
    for n in 8..=14 {
        for k in 1..=if n <= 10 { 3 } else { 2 } {
            bases.push(base(format!("ring{n}_{k}"), models::ring_stg(n, k), true));
        }
    }
    for n in 4..=16 {
        bases.push(base(format!("adder{n}"), corpus::adder_rt_stg(n), true));
    }
    for (r, c) in [(2, 2), (2, 3), (3, 2)] {
        bases.push(base(
            format!("fabric{r}x{c}"),
            corpus::fabric_stg(r, c, 0),
            true,
        ));
    }
    bases
}

#[derive(Clone, Copy)]
enum Slot {
    New(&'static str),
    Repeat,
    Base(usize, &'static str),
}

/// Which request mix a stream draws.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Half exact repeats, half first occurrences, of all four kinds.
    Small,
    /// Every request a unique, heavy Summary or CscCheck.
    Wide,
}

/// An unbounded seeded request stream, generated lazily.
pub struct RequestStream {
    rng: Rng,
    mix: Mix,
    bases: Vec<Base>,
    /// Base indices in ascending cost.
    by_cost: Vec<usize>,
    resolve_bases: Vec<(String, Stg)>,
    pool: Arc<Vec<PoolEntry>>,
    seen: HashSet<u64>,
    distinct: Vec<Arc<Input>>,
    slots: Vec<Slot>,
    seq: usize,
    /// `daemon_small`: bases still to deal per net kind (Summary,
    /// CscCheck), and whether the kind has had a whole deck.
    small_decks: [Vec<usize>; 2],
    small_dealt: [bool; 2],
    /// Verify pool entries and ResolveCsc specs still to deal.
    pool_deck: Vec<usize>,
    resolve_deck: Vec<usize>,
}

/// Cost strata per request kind in a `daemon_wide` round.
const STRATA: usize = 4;
/// Bases per cost stratum of a `daemon_small` deck. A deck deals one
/// base of every stratum in turn, so each episode's first occurrences
/// (about ten per kind) span the whole cost range. Drawn uniformly, an
/// episode's few heavy nets decided how far the warm managers grew: its
/// peak resident set ranged over 14-34 MB between seeds.
const SMALL_STRATUM: usize = 4;
/// Repeats draw from this many most recent distinct inputs...
const REPEAT_WINDOW: usize = 64;
/// ...skipping the newest few, which may still be in flight.
const REPEAT_LAG: usize = 2;

impl RequestStream {
    pub fn new(seed: u64, mix: Mix, pool: Arc<Vec<PoolEntry>>) -> RequestStream {
        let bases = match mix {
            Mix::Small => small_bases(),
            Mix::Wide => wide_bases(),
        };
        let resolve_bases = flow_specs()
            .into_iter()
            .filter(|(name, _)| {
                ["fifo", "corpus:vme_read", "corpus:pipeline_stage"].contains(&name.as_str())
            })
            .collect();
        // Cost proxy: reachable markings times signals.
        let cost = |b: &Base| {
            let markings = ReachEngine::explicit()
                .summary(&b.stg)
                .expect("base nets explore")
                .markings;
            markings * b.stg.signal_count() as u64
        };
        let mut by_cost: Vec<usize> = (0..bases.len()).collect();
        by_cost.sort_by_key(|&b| cost(&bases[b]));
        RequestStream {
            rng: Rng::new(seed),
            mix,
            by_cost,
            bases,
            resolve_bases,
            pool,
            seen: HashSet::new(),
            distinct: Vec::new(),
            slots: Vec::new(),
            seq: 0,
            small_decks: [Vec::new(), Vec::new()],
            small_dealt: [false; 2],
            pool_deck: Vec::new(),
            resolve_deck: Vec::new(),
        }
    }

    fn refill(&mut self) {
        self.slots = match self.mix {
            Mix::Small => {
                let mut slots = vec![Slot::Repeat; 4];
                for kind in ["summary", "csc_check", "resolve_csc", "verify"] {
                    slots.push(Slot::New(kind));
                }
                self.rng.shuffle(&mut slots);
                slots
            }
            Mix::Wide => {
                // Stratified: per kind, the bases split into cost
                // quartiles; the round takes one slot from each
                // (shuffled) stratum in turn, so every prefix of the
                // stream carries nearly the same share of heavy work.
                let mut strata: Vec<Vec<Slot>> = Vec::new();
                for kind in ["summary", "csc_check"] {
                    let per = self.by_cost.len().div_ceil(STRATA);
                    for chunk in self.by_cost.chunks(per) {
                        let mut stratum: Vec<Slot> =
                            chunk.iter().map(|&b| Slot::Base(b, kind)).collect();
                        self.rng.shuffle(&mut stratum);
                        strata.push(stratum);
                    }
                }
                let mut slots = Vec::new();
                while strata.iter().any(|s| !s.is_empty()) {
                    slots.extend(strata.iter_mut().filter_map(Vec::pop));
                }
                slots.reverse();
                slots
            }
        };
    }

    pub fn next_op(&mut self) -> Op {
        if self.slots.is_empty() {
            self.refill();
        }
        let slot = self.slots.pop().expect("refilled");
        let seq = self.seq;
        self.seq += 1;
        match slot {
            Slot::Repeat if self.distinct.len() > REPEAT_LAG => {
                let hi = self.distinct.len() - REPEAT_LAG;
                let lo = hi.saturating_sub(REPEAT_WINDOW);
                let input = Arc::clone(&self.distinct[lo + self.rng.below(hi - lo)]);
                Op {
                    seq,
                    input,
                    repeat: true,
                }
            }
            Slot::Repeat => {
                let b = self.small_base("summary");
                self.fresh(seq, |s, attempt| s.small_net(b, "summary", attempt))
            }
            Slot::New("resolve_csc") => self.fresh(seq, |s, _| s.resolve()),
            Slot::New("verify") => self.fresh(seq, |s, _| s.verify()),
            Slot::New(kind) => {
                let b = self.small_base(kind);
                self.fresh(seq, |s, attempt| s.small_net(b, kind, attempt))
            }
            Slot::Base(b, kind) => self.fresh(seq, |s, attempt| s.wide_net(b, kind, attempt)),
        }
    }

    /// Draws candidates until one is a first occurrence under the
    /// service's cache identity (falling back to a CSC resolution with
    /// fresh options, which always exists).
    fn fresh(
        &mut self,
        seq: usize,
        mut draw: impl FnMut(&mut Self, usize) -> (String, &'static str, Request),
    ) -> Op {
        for attempt in 0.. {
            let (name, kind, request) = if attempt < 256 {
                draw(self, attempt)
            } else {
                self.resolve()
            };
            if self.seen.insert(cache_key(&request)) {
                let places = match &request.payload {
                    RequestPayload::Summary { stg }
                    | RequestPayload::CscCheck { stg }
                    | RequestPayload::ResolveCsc { stg, .. } => stg.net().place_count(),
                    RequestPayload::Verify { spec, .. } => spec.net().place_count(),
                };
                let input = Arc::new(Input {
                    id: self.distinct.len(),
                    name,
                    kind,
                    places,
                    request,
                });
                self.distinct.push(Arc::clone(&input));
                return Op {
                    seq,
                    input,
                    repeat: false,
                };
            }
        }
        unreachable!("the attempt loop only exits by returning")
    }

    /// `base` with `count` seeded buffer splices (none if not
    /// bufferable): anywhere in `daemon_small`, at signal anchors in
    /// `daemon_wide`, whose cost per base should not depend on the seed.
    fn variant(&mut self, b: usize, count: usize) -> (String, Stg) {
        let base = &self.bases[b];
        if !base.bufferable || count == 0 {
            return (base.name.clone(), base.stg.clone());
        }
        let candidates: Vec<usize> = match self.mix {
            Mix::Small => (0..base.stg.net().place_count()).collect(),
            Mix::Wide => base.anchors.clone(),
        };
        let mut split = Vec::new();
        while split.len() < count.min(candidates.len()) {
            let p = candidates[self.rng.below(candidates.len())];
            if !split.contains(&p) {
                split.push(p);
            }
        }
        split.sort_unstable();
        let base = &self.bases[b];
        let name = format!("{}+buf{split:?}", base.name);
        (name, buffered(&base.stg, &split))
    }

    fn net_request(kind: &'static str, name: String, stg: Stg) -> (String, &'static str, Request) {
        let request = match kind {
            "summary" => Request::summary(stg),
            _ => Request::csc_check(stg),
        };
        (name, kind, request)
    }

    /// The next base of `kind`'s stratified deck. Bases that take no
    /// splices have one request per kind, so only the first deck of a
    /// kind holds them.
    fn small_base(&mut self, kind: &'static str) -> usize {
        let k = usize::from(kind != "summary");
        if self.small_decks[k].is_empty() {
            let first = !self.small_dealt[k];
            self.small_dealt[k] = true;
            let order: Vec<usize> = self
                .by_cost
                .iter()
                .copied()
                .filter(|&b| first || self.bases[b].bufferable)
                .collect();
            self.small_decks[k] = stratified_deck(&order, SMALL_STRATUM, &mut self.rng);
        }
        self.small_decks[k].pop().expect("refilled")
    }

    /// A `kind` request on base `b`; a retry after a repeated key
    /// splices in one or more buffers.
    fn small_net(
        &mut self,
        b: usize,
        kind: &'static str,
        attempt: usize,
    ) -> (String, &'static str, Request) {
        let count = if attempt == 0 {
            self.rng.below(3)
        } else {
            1 + self.rng.below(2) + attempt / 32
        };
        let (name, stg) = self.variant(b, count);
        Self::net_request(kind, name, stg)
    }

    fn wide_net(
        &mut self,
        b: usize,
        kind: &'static str,
        attempt: usize,
    ) -> (String, &'static str, Request) {
        let count = (1 + attempt / 8).min(4);
        let (name, stg) = self.variant(b, count);
        Self::net_request(kind, name, stg)
    }

    fn resolve(&mut self) -> (String, &'static str, Request) {
        let i = deal(
            &mut self.resolve_deck,
            self.resolve_bases.len(),
            &mut self.rng,
        );
        let (name, stg) = &self.resolve_bases[i];
        let options = CscOptions {
            max_signals: 1 + self.rng.below(3),
            critical_path_penalty: self.rng.below(10_000),
            threads: 1,
            symbolic_threshold: DEFAULT_SYMBOLIC_THRESHOLD,
        };
        let name = format!(
            "{name}/max{}/pen{}",
            options.max_signals, options.critical_path_penalty
        );
        (
            name,
            "resolve_csc",
            Request::resolve_csc(stg.clone(), options),
        )
    }

    fn verify(&mut self) -> (String, &'static str, Request) {
        let i = deal(&mut self.pool_deck, self.pool.len(), &mut self.rng);
        let entry = &self.pool[i];
        let nets: Vec<_> = entry
            .spec
            .signals()
            .filter_map(|s| entry.netlist.net_by_name(entry.spec.signal_name(s)))
            .collect();
        let mut orderings = Vec::new();
        for _ in 0..self.rng.below(3) {
            let before = nets[self.rng.below(nets.len())];
            let after = nets[self.rng.below(nets.len())];
            if before != after {
                orderings.push(NetOrdering::new(
                    (before, self.rng.below(2) == 1),
                    (after, self.rng.below(2) == 1),
                ));
            }
        }
        let name = format!("{}/ord{}", entry.name, orderings.len());
        let request = Request::verify(entry.netlist.clone(), entry.spec.clone(), orderings);
        (name, "verify", request)
    }
}

/// `order` (ascending cost) cut into strata of `per`, each shuffled,
/// dealt one per stratum in turn; returned in pop order.
fn stratified_deck(order: &[usize], per: usize, rng: &mut Rng) -> Vec<usize> {
    let mut strata: Vec<Vec<usize>> = order
        .chunks(per)
        .map(|chunk| {
            let mut stratum = chunk.to_vec();
            rng.shuffle(&mut stratum);
            stratum
        })
        .collect();
    let mut deck = Vec::new();
    while strata.iter().any(|s| !s.is_empty()) {
        deck.extend(strata.iter_mut().filter_map(Vec::pop));
    }
    deck.reverse();
    deck
}

/// The next index of a shuffled round of `0..len`.
fn deal(deck: &mut Vec<usize>, len: usize, rng: &mut Rng) -> usize {
    if deck.is_empty() {
        *deck = (0..len).collect();
        rng.shuffle(deck);
    }
    deck.pop().expect("refilled")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffered_without_splits_is_structurally_identical() {
        for stg in [models::ring_stg(6, 2), corpus::adder_rt_stg(4)] {
            assert_eq!(buffered(&stg, &[]).content_hash(), stg.content_hash());
        }
    }

    #[test]
    fn buffered_nets_stay_live_and_distinct() {
        let stg = models::ring_stg(6, 2);
        let split = buffered(&stg, &[0, 4]);
        assert_ne!(split.content_hash(), stg.content_hash());
        let mut engine = ReachEngine::symbolic();
        let analysis = engine.csc_conflicts_symbolic(&split).expect("analyses");
        assert!(analysis.deadlock_free && analysis.strongly_connected);
        assert!(analysis.markings > engine.summary(&stg).expect("base").markings);
    }

    #[test]
    fn same_seed_same_stream_and_first_occurrences_are_unique() {
        let pool = Arc::new(verify_pool());
        let names = |seed| {
            let mut stream = RequestStream::new(seed, Mix::Small, Arc::clone(&pool));
            (0..200)
                .map(|_| {
                    let op = stream.next_op();
                    (op.input.name.clone(), op.repeat)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(names(7), names(7));
        assert_ne!(names(7), names(8));
        let mut stream = RequestStream::new(3, Mix::Small, pool);
        let ops: Vec<_> = (0..200).map(|_| stream.next_op()).collect();
        let repeats = ops.iter().filter(|op| op.repeat).count();
        assert!(
            (80..=120).contains(&repeats),
            "about half repeat: {repeats}"
        );
        let keys: HashSet<u64> = stream
            .distinct
            .iter()
            .map(|i| cache_key(&i.request))
            .collect();
        assert_eq!(keys.len(), stream.distinct.len());
    }
}
