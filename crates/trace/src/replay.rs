//! Replay pass: joins encoder provenance, channel loss events, and
//! decoder concealment events into a causal DAG, then derives
//! per-event blast radii and `C^k` calibration ground truth.
//!
//! ## Join semantics
//!
//! * **Nodes** are `(frame, mb)` pairs. **Edges** point strictly from
//!   a macroblock to the previous-frame macroblocks its decoded pixels
//!   derive from, so the graph is acyclic by construction (and
//!   [`ProvenanceDag::is_acyclic`] re-checks this generically for the
//!   property suite).
//! * An **inter** MB references the previous-frame MBs overlapped by
//!   its motion-compensated 16×16 source region (edge-clamped like the
//!   codec's `get_clamped`); a **skip** MB references its colocated
//!   MB; an **intra** MB references nothing — it heals propagation.
//! * A **concealed** MB (decoder event) copies its colocated
//!   previous-frame MB regardless of what the encoder coded, and a
//!   wholly concealed frame copies everything — decoder events
//!   override encoder provenance because they describe what the
//!   decoder actually displayed.
//! * A **loss/corruption event** maps to bytes `[frag·MTU,
//!   frag·MTU+len)` of the frame's bitstream. Entropy decoding
//!   desynchronises at the first damaged bit, so the event's direct
//!   damage is every MB from the one being parsed at that bit through
//!   the end of the frame (matching the resilient decoder's
//!   conceal-to-end behaviour). Damage before the first MB's payload
//!   (picture header bytes) dirties the whole frame. Loss events for
//!   FEC-recovered frames and lost parity packets damage nothing.
//!
//! Ground-truth dirtiness for calibration unions direct damage from
//! all events (decoder concealments included) and propagates it
//! through the DAG; per-event blast radius propagates a single event's
//! direct damage in isolation.

use std::collections::{BTreeMap, BTreeSet};

use crate::calib::Calibration;
use crate::event::{Event, MODE_INTER, MODE_INTRA, MODE_SKIP};
use pbpair_telemetry::json;

/// Structured event log of one traced pipeline (typically one serve
/// session), plus the side-channel snapshots the replay pass scores
/// against: the encoder's post-frame `sigma` (`C^k`) values and the
/// decoder-vs-encoder per-MB SAD measured by the pipeline owner.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// Events in emission order.
    pub events: Vec<Event>,
    /// Per frame: `sigma` per MB scaled by [`crate::SIGMA_SCALE`], snapshot
    /// after the frame was encoded.
    pub sigma_e9: BTreeMap<u32, Vec<u32>>,
    /// Per frame: SAD between the decoder's displayed luma and the
    /// encoder's local reconstruction, per MB.
    pub mb_sad: BTreeMap<u32, Vec<u64>>,
}

impl TraceLog {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Geometry and scope for [`analyze`].
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeParams {
    /// Macroblock columns of the coded picture.
    pub cols: usize,
    /// Macroblock rows of the coded picture.
    pub rows: usize,
    /// Packetizer MTU: payload bytes per fragment.
    pub mtu: usize,
    /// Number of encoder frames to replay (`0..frames`).
    pub frames: u32,
}

impl AnalyzeParams {
    /// Macroblocks per frame.
    pub fn mb_count(&self) -> usize {
        self.cols * self.rows
    }
}

/// Per-MB provenance recorded by the encoder.
#[derive(Clone, Copy, Debug)]
struct MbProv {
    mode: u8,
    mv_x: i16,
    mv_y: i16,
    bit_start: u32,
    bit_len: u32,
}

/// The joined causal graph: encoder provenance plus the decoder's
/// concealment overrides, queryable per (frame, MB) node.
#[derive(Clone, Debug)]
pub struct ProvenanceDag {
    params: AnalyzeParams,
    /// Encoder provenance per frame (absent for dropped frames).
    prov: BTreeMap<u32, Vec<MbProv>>,
    /// MBs the decoder concealed, one mask per frame that had any; a
    /// whole-frame concealment is all `true`.
    concealed: BTreeMap<u32, Vec<bool>>,
}

impl ProvenanceDag {
    /// Builds the DAG from a trace log.
    pub fn build(log: &TraceLog, params: AnalyzeParams) -> ProvenanceDag {
        let mb_count = params.mb_count();
        let mut prov: BTreeMap<u32, Vec<MbProv>> = BTreeMap::new();
        let mut concealed: BTreeMap<u32, Vec<bool>> = BTreeMap::new();
        for event in &log.events {
            match *event {
                Event::MbCoded {
                    frame,
                    mb,
                    mode,
                    mv_x,
                    mv_y,
                    bit_start,
                    bit_len,
                } => {
                    if frame >= params.frames || usize::from(mb) >= mb_count {
                        continue;
                    }
                    let frame_prov = prov.entry(frame).or_insert_with(|| {
                        vec![
                            MbProv {
                                mode: MODE_SKIP,
                                mv_x: 0,
                                mv_y: 0,
                                bit_start: 0,
                                bit_len: 0
                            };
                            mb_count
                        ]
                    });
                    frame_prov[usize::from(mb)] = MbProv {
                        mode,
                        mv_x,
                        mv_y,
                        bit_start,
                        bit_len,
                    };
                }
                Event::MbConcealed {
                    frame,
                    mb_start,
                    count,
                } => {
                    if frame >= params.frames {
                        continue;
                    }
                    let mask = concealed
                        .entry(frame)
                        .or_insert_with(|| vec![false; mb_count]);
                    let start = usize::from(mb_start).min(mb_count);
                    let end = start.saturating_add(usize::from(count)).min(mb_count);
                    for slot in &mut mask[start..end] {
                        *slot = true;
                    }
                }
                Event::FrameConcealed { frame, .. } if frame < params.frames => {
                    concealed.insert(frame, vec![true; mb_count]);
                }
                _ => {}
            }
        }
        ProvenanceDag {
            params,
            prov,
            concealed,
        }
    }

    /// Geometry this DAG was built with.
    pub fn params(&self) -> AnalyzeParams {
        self.params
    }

    /// Reference MBs (in frame `frame - 1`) of node `(frame, mb)`:
    /// the previous-frame MBs whose pixels the decoder's output for
    /// this MB derives from. Empty for intra MBs and for frame 0.
    pub fn refs(&self, frame: u32, mb: u16) -> Vec<u16> {
        if frame == 0 || frame >= self.params.frames {
            return Vec::new();
        }
        let mb = usize::from(mb);
        if mb >= self.params.mb_count() {
            return Vec::new();
        }
        // Decoder concealment overrides the coded mode: the displayed
        // pixels are a colocated copy. A dropped frame (no provenance)
        // behaves the same way.
        if self.is_concealed(frame, mb) {
            return vec![mb as u16];
        }
        let Some(prov) = self.prov.get(&frame) else {
            return vec![mb as u16];
        };
        let p = prov[mb];
        match p.mode {
            MODE_INTRA => Vec::new(),
            MODE_SKIP => vec![mb as u16],
            MODE_INTER => self.overlapped(mb, i32::from(p.mv_x), i32::from(p.mv_y)),
            _ => vec![mb as u16],
        }
    }

    /// MBs of a frame covered by the 16×16 region displaced by
    /// `(mv_x, mv_y)` from MB `mb`'s origin, with edge clamping.
    fn overlapped(&self, mb: usize, mv_x: i32, mv_y: i32) -> Vec<u16> {
        let cols = self.params.cols as i32;
        let rows = self.params.rows as i32;
        let px = (mb as i32 % cols) * 16 + mv_x;
        let py = (mb as i32 / cols) * 16 + mv_y;
        let max_x = cols * 16 - 1;
        let max_y = rows * 16 - 1;
        let x0 = px.clamp(0, max_x) / 16;
        let x1 = (px + 15).clamp(0, max_x) / 16;
        let y0 = py.clamp(0, max_y) / 16;
        let y1 = (py + 15).clamp(0, max_y) / 16;
        let mut out = Vec::with_capacity(4);
        for row in y0..=y1 {
            for col in x0..=x1 {
                out.push((row * cols + col) as u16);
            }
        }
        out
    }

    /// All edges `(from, to)` of the DAG, where `from = (frame, mb)`
    /// and `to` is a node of the previous frame. Exposed so tests can
    /// verify acyclicity without trusting the constructor.
    pub fn edges(&self) -> Vec<((u32, u16), (u32, u16))> {
        let mut out = Vec::new();
        for frame in 0..self.params.frames {
            for mb in 0..self.params.mb_count() as u16 {
                for r in self.refs(frame, mb) {
                    out.push(((frame, mb), (frame - 1, r)));
                }
            }
        }
        out
    }

    /// Generic cycle check over [`ProvenanceDag::edges`]: it does not
    /// assume edges only cross frames.
    pub fn is_acyclic(&self) -> bool {
        let mut adj: BTreeMap<(u32, u16), Vec<(u32, u16)>> = BTreeMap::new();
        for (from, to) in self.edges() {
            adj.entry(from).or_default().push(to);
        }
        !has_cycle(&adj)
    }

    /// Direct damage of a byte range starting at `byte_start` in
    /// `frame`'s bitstream: the contiguous MB range `[start, end)`
    /// dirtied by entropy desynchronisation. `None` when the damage
    /// lies entirely past the coded payload.
    pub fn desync_range(&self, frame: u32, byte_start: u64) -> Option<(u16, u16)> {
        let mb_count = self.params.mb_count() as u16;
        let Some(prov) = self.prov.get(&frame) else {
            // No provenance (dropped or untraced frame): be
            // conservative and dirty everything.
            return Some((0, mb_count));
        };
        let bit = byte_start.saturating_mul(8);
        for (m, p) in prov.iter().enumerate() {
            if u64::from(p.bit_start) + u64::from(p.bit_len) > bit {
                return Some((m as u16, mb_count));
            }
        }
        None
    }

    fn is_concealed(&self, frame: u32, mb: usize) -> bool {
        self.concealed.get(&frame).is_some_and(|m| m[mb])
    }

    /// Propagates the previous frame's dirty mask through this
    /// frame's references (no new direct damage added).
    fn propagate(&self, frame: u32, prev_dirty: &[bool]) -> Vec<bool> {
        let mb_count = self.params.mb_count();
        let mut out = vec![false; mb_count];
        if frame == 0 {
            return out;
        }
        for (mb, slot) in out.iter_mut().enumerate() {
            if self.is_concealed(frame, mb) {
                *slot = prev_dirty[mb];
                continue;
            }
            *slot = self
                .refs(frame, mb as u16)
                .iter()
                .any(|&r| prev_dirty[usize::from(r)]);
        }
        out
    }
}

/// Classification of a transport damage event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossKind {
    /// Packet dropped by the loss model.
    Loss,
    /// Packet delivered with a damaged payload.
    Corrupt,
}

impl LossKind {
    /// Stable name for JSON.
    pub fn name(self) -> &'static str {
        match self {
            LossKind::Loss => "loss",
            LossKind::Corrupt => "corrupt",
        }
    }
}

/// Blast radius of one loss/corruption event: the downstream damage
/// attributed to it by propagating its direct hits through the DAG in
/// isolation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventBlast {
    /// Index of the event within the analyzed log's damage events.
    pub event_index: u32,
    /// Frame the damaged packet belonged to.
    pub frame: u32,
    /// Loss or corruption.
    pub kind: LossKind,
    /// RTP sequence number of the packet.
    pub seq: u32,
    /// First damaged payload byte within the frame.
    pub byte_start: u64,
    /// Damaged payload length in bytes.
    pub byte_len: u32,
    /// Total (frame, MB) nodes dirtied by this event.
    pub mbs_touched: u64,
    /// Frames from the event until the damage fully healed (0 when
    /// the event caused no damage, e.g. a lost parity packet).
    pub frames_to_heal: u32,
    /// Sum of decoder-vs-encoder per-MB SAD over the dirtied nodes —
    /// the pixel cost of the event.
    pub sad_cost: u64,
}

impl EventBlast {
    /// Appends this blast to `blasts` as a deterministic JSON object
    /// tagged with its owning session.
    pub fn push_json(&self, blasts: &mut json::Array<'_>, session: u64) {
        blasts.object(|o| {
            o.field("session", session)
                .field("event", self.event_index)
                .field("frame", self.frame)
                .string("kind", self.kind.name())
                .field("seq", self.seq)
                .field("byte_start", self.byte_start)
                .field("byte_len", self.byte_len)
                .field("mbs", self.mbs_touched)
                .field("frames_to_heal", self.frames_to_heal)
                .field("sad_cost", self.sad_cost);
        });
    }
}

/// Result of [`analyze`]: the DAG, per-event blast radii, the
/// ground-truth dirty masks, and the `C^k` calibration score.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The joined provenance DAG.
    pub dag: ProvenanceDag,
    /// One blast record per damage event, in event order.
    pub blasts: Vec<EventBlast>,
    /// Ground-truth dirty mask per frame (all damage sources joined
    /// and propagated).
    pub dirty: BTreeMap<u32, Vec<bool>>,
    /// Union of all loss events' isolated reach — which MBs are
    /// *attributable* to at least one recorded transport event.
    pub loss_reach: BTreeMap<u32, Vec<bool>>,
    /// MBs the decoder reported bad (concealed), per frame.
    pub decoder_bad: BTreeMap<u32, Vec<bool>>,
    /// Calibration of predicted `sigma` against `!dirty`.
    pub calibration: Calibration,
}

struct DamageEvent {
    frame: u32,
    kind: LossKind,
    seq: u32,
    byte_start: u64,
    byte_len: u32,
    damaging: bool,
}

/// Replays a trace log against the DAG built from it.
pub fn analyze(log: &TraceLog, params: AnalyzeParams) -> Analysis {
    let dag = ProvenanceDag::build(log, params);
    let mb_count = params.mb_count();

    let fec_recovered: BTreeSet<u32> = log
        .events
        .iter()
        .filter_map(|e| match *e {
            Event::FecRecovered { frame } => Some(frame),
            _ => None,
        })
        .collect();

    let mut damage_events = Vec::new();
    for event in &log.events {
        match *event {
            Event::PacketLost {
                frame,
                seq,
                frag,
                len,
                parity,
                ..
            } => {
                if frame >= params.frames {
                    continue;
                }
                damage_events.push(DamageEvent {
                    frame,
                    kind: LossKind::Loss,
                    seq,
                    byte_start: u64::from(frag).saturating_mul(params.mtu as u64),
                    byte_len: len,
                    damaging: !parity && !fec_recovered.contains(&frame),
                });
            }
            Event::PacketCorrupted {
                frame,
                seq,
                frag,
                len,
                ..
            } => {
                if frame >= params.frames {
                    continue;
                }
                damage_events.push(DamageEvent {
                    frame,
                    kind: LossKind::Corrupt,
                    seq,
                    byte_start: u64::from(frag).saturating_mul(params.mtu as u64),
                    byte_len: len,
                    damaging: !fec_recovered.contains(&frame),
                });
            }
            _ => {}
        }
    }

    // Decoder-reported bad MBs: the DAG's concealment masks.
    let decoder_bad = dag.concealed.clone();

    // Ground-truth dirty masks: union direct damage (transport events
    // and decoder concealments) per frame, propagate forward.
    let mut dirty: BTreeMap<u32, Vec<bool>> = BTreeMap::new();
    let mut prev = vec![false; mb_count];
    for frame in 0..params.frames {
        let mut mask = dag.propagate(frame, &prev);
        for e in damage_events
            .iter()
            .filter(|e| e.damaging && e.frame == frame)
        {
            if let Some((start, end)) = dag.desync_range(frame, e.byte_start) {
                for slot in &mut mask[usize::from(start)..usize::from(end)] {
                    *slot = true;
                }
            }
        }
        if let Some(bad) = decoder_bad.get(&frame) {
            for (slot, &b) in mask.iter_mut().zip(bad) {
                *slot |= b;
            }
        }
        prev.clone_from(&mask);
        dirty.insert(frame, mask);
    }

    // Per-event isolated reach: blast radius and attribution union.
    let mut loss_reach: BTreeMap<u32, Vec<bool>> = BTreeMap::new();
    let mut blasts = Vec::with_capacity(damage_events.len());
    for (idx, e) in damage_events.iter().enumerate() {
        let mut mbs_touched = 0u64;
        let mut sad_cost = 0u64;
        let mut last_frame = None;
        let mut reach = vec![false; mb_count];
        if e.damaging {
            if let Some((start, end)) = dag.desync_range(e.frame, e.byte_start) {
                for slot in &mut reach[usize::from(start)..usize::from(end)] {
                    *slot = true;
                }
            }
        }
        let mut frame = e.frame;
        while frame < params.frames && reach.iter().any(|&d| d) {
            let touched = reach.iter().filter(|&&d| d).count() as u64;
            mbs_touched += touched;
            if let Some(sad) = log.mb_sad.get(&frame) {
                sad_cost += reach
                    .iter()
                    .zip(sad)
                    .filter_map(|(&d, &s)| d.then_some(s))
                    .sum::<u64>();
            }
            let union = loss_reach
                .entry(frame)
                .or_insert_with(|| vec![false; mb_count]);
            for (slot, &d) in union.iter_mut().zip(&reach) {
                *slot |= d;
            }
            last_frame = Some(frame);
            frame += 1;
            if frame < params.frames {
                reach = dag.propagate(frame, &reach);
            }
        }
        blasts.push(EventBlast {
            event_index: idx as u32,
            frame: e.frame,
            kind: e.kind,
            seq: e.seq,
            byte_start: e.byte_start,
            byte_len: e.byte_len,
            mbs_touched,
            frames_to_heal: last_frame.map_or(0, |l| l - e.frame + 1),
            sad_cost,
        });
    }

    // Calibration: encoder-predicted sigma vs ground-truth !dirty.
    let mut calibration = Calibration::default();
    for (&frame, sigma) in &log.sigma_e9 {
        if frame >= params.frames {
            continue;
        }
        let Some(mask) = dirty.get(&frame) else {
            continue;
        };
        for (mb, &s) in sigma.iter().enumerate().take(mb_count) {
            calibration.observe(u64::from(s), !mask[mb]);
        }
    }

    Analysis {
        dag,
        blasts,
        dirty,
        loss_reach,
        decoder_bad,
        calibration,
    }
}

/// Whether the directed graph `adj` (node → children) has a cycle: an
/// iterative three-colour DFS (0 unvisited, 1 on the stack, 2 done).
fn has_cycle<N: Ord + Copy>(adj: &BTreeMap<N, Vec<N>>) -> bool {
    let mut state: BTreeMap<N, u8> = BTreeMap::new();
    for &start in adj.keys() {
        if state.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        // (node, next child index) stack.
        let mut stack = vec![(start, 0usize)];
        state.insert(start, 1);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let children = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if *idx < children.len() {
                let child = children[*idx];
                *idx += 1;
                match state.get(&child).copied().unwrap_or(0) {
                    0 => {
                        state.insert(child, 1);
                        stack.push((child, 0));
                    }
                    1 => return true,
                    _ => {}
                }
            } else {
                state.insert(node, 2);
                stack.pop();
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> AnalyzeParams {
        AnalyzeParams {
            cols: 4,
            rows: 3,
            mtu: 100,
            frames: 5,
        }
    }

    /// A log where every MB of every frame is coded with the given
    /// mode, 100 bits per MB after a 40-bit header.
    fn uniform_log(p: AnalyzeParams, mode: u8) -> TraceLog {
        let mut log = TraceLog::default();
        for frame in 0..p.frames {
            for mb in 0..p.mb_count() as u16 {
                log.events.push(Event::MbCoded {
                    frame,
                    mb,
                    mode,
                    mv_x: 0,
                    mv_y: 0,
                    bit_start: 40 + u32::from(mb) * 100,
                    bit_len: 100,
                });
            }
        }
        log
    }

    #[test]
    fn dag_edges_point_to_previous_frame_and_graph_is_acyclic() {
        let p = params();
        let log = uniform_log(p, MODE_INTER);
        let dag = ProvenanceDag::build(&log, p);
        for (from, to) in dag.edges() {
            assert_eq!(to.0 + 1, from.0);
        }
        assert!(dag.is_acyclic());
    }

    #[test]
    fn cycle_checker_actually_detects_cycles() {
        let p = AnalyzeParams {
            cols: 1,
            rows: 1,
            mtu: 10,
            frames: 2,
        };
        let log = uniform_log(p, MODE_SKIP);
        assert!(ProvenanceDag::build(&log, p).is_acyclic());
        // The checker `is_acyclic` runs, on hand-made graphs.
        let graph = |edges: &[(u32, u32)]| {
            let mut adj: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for &(from, to) in edges {
                adj.entry(from).or_default().push(to);
            }
            adj
        };
        assert!(has_cycle(&graph(&[(0, 1), (1, 0)])), "2-cycle");
        assert!(has_cycle(&graph(&[(0, 0)])), "self-loop");
        assert!(!has_cycle(&graph(&[(0, 1), (1, 2), (2, 3)])), "chain");
    }

    #[test]
    fn intra_heals_propagation_in_one_frame() {
        let p = params();
        let mut log = uniform_log(p, MODE_INTRA);
        // Lose the second fragment of frame 1: bytes [100, 200) = bits
        // [800, 1600) → MBs from index 7 (bit_start 740..840 spans 800).
        log.events.push(Event::PacketLost {
            frame: 1,
            seq: 9,
            frag: 1,
            frag_count: 2,
            len: 100,
            parity: false,
        });
        let analysis = analyze(&log, p);
        let blast = analysis.blasts[0];
        // Damage confined to frame 1 because every frame-2 MB is intra.
        assert_eq!(blast.frames_to_heal, 1);
        assert!(blast.mbs_touched > 0);
        assert!(analysis.dirty[&1].iter().any(|&d| d));
        assert!(analysis.dirty[&2].iter().all(|&d| !d));
    }

    #[test]
    fn skip_mode_propagates_until_horizon() {
        let p = params();
        let mut log = uniform_log(p, MODE_SKIP);
        log.events.push(Event::PacketLost {
            frame: 1,
            seq: 9,
            frag: 0,
            frag_count: 2,
            len: 100,
            parity: false,
        });
        let analysis = analyze(&log, p);
        let blast = analysis.blasts[0];
        // Dirty from frame 1 through the last frame (no intra heal).
        assert_eq!(blast.frames_to_heal, p.frames - 1);
        assert_eq!(
            blast.mbs_touched,
            u64::from(p.frames - 1) * p.mb_count() as u64
        );
    }

    #[test]
    fn parity_loss_and_fec_recovered_frames_cause_no_damage() {
        let p = params();
        let mut log = uniform_log(p, MODE_SKIP);
        log.events.push(Event::PacketLost {
            frame: 1,
            seq: 1,
            frag: 2,
            frag_count: 3,
            len: 100,
            parity: true,
        });
        log.events.push(Event::PacketLost {
            frame: 2,
            seq: 2,
            frag: 0,
            frag_count: 3,
            len: 100,
            parity: false,
        });
        log.events.push(Event::FecRecovered { frame: 2 });
        let analysis = analyze(&log, p);
        assert_eq!(analysis.blasts.len(), 2);
        for blast in &analysis.blasts {
            assert_eq!(blast.mbs_touched, 0, "{blast:?}");
            assert_eq!(blast.frames_to_heal, 0);
        }
        assert!(analysis.dirty.values().all(|m| m.iter().all(|&d| !d)));
    }

    #[test]
    fn inter_mv_spreads_damage_to_neighbours() {
        // MTU 145 puts fragment 1 at byte 145 = bit 1160, inside the
        // last MB's range [1140, 1240).
        let p = AnalyzeParams {
            cols: 4,
            rows: 3,
            mtu: 145,
            frames: 5,
        };
        let mut log = TraceLog::default();
        for frame in 0..p.frames {
            for mb in 0..p.mb_count() as u16 {
                // Diagonal motion: each MB references up to four
                // previous-frame MBs shifted by (-8, -8).
                log.events.push(Event::MbCoded {
                    frame,
                    mb,
                    mode: MODE_INTER,
                    mv_x: -8,
                    mv_y: -8,
                    bit_start: 40 + u32::from(mb) * 100,
                    bit_len: 100,
                });
            }
        }
        // Damage only the last MB's bytes in frame 1.
        log.events.push(Event::PacketCorrupted {
            frame: 1,
            seq: 0,
            frag: 1,
            frag_count: 2,
            len: 10,
        });
        let analysis = analyze(&log, p);
        let d1: Vec<usize> = analysis.dirty[&1]
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(d1, vec![11], "desync from byte 145 should start at MB 11");
        // Frame 2: MBs referencing MB 11's pixels via (-8,-8) are its
        // down-right neighbours — here only MB 11 itself references a
        // region overlapping MB 11 (clamped).
        assert!(analysis.dirty[&2][11]);
    }

    #[test]
    fn decoder_concealment_marks_ground_truth_dirty() {
        let p = params();
        let mut log = uniform_log(p, MODE_INTRA);
        log.events.push(Event::MbConcealed {
            frame: 3,
            mb_start: 2,
            count: 3,
        });
        let analysis = analyze(&log, p);
        let mask = &analysis.dirty[&3];
        assert!(mask[2] && mask[3] && mask[4]);
        assert_eq!(mask.iter().filter(|&&d| d).count(), 3);
        assert!(analysis.decoder_bad[&3][2]);
    }

    #[test]
    fn calibration_scores_sigma_against_dirty_truth() {
        let p = params();
        let mut log = uniform_log(p, MODE_INTRA);
        // Frame 2 loses everything.
        log.events.push(Event::FrameConcealed {
            frame: 2,
            mbs: p.mb_count() as u16,
        });
        for frame in 0..p.frames {
            // Encoder predicts 0.9 everywhere.
            log.sigma_e9.insert(frame, vec![900_000_000; p.mb_count()]);
        }
        let analysis = analyze(&log, p);
        let c = &analysis.calibration;
        assert_eq!(c.count, u64::from(p.frames) * p.mb_count() as u64);
        // One frame of 12 MBs was wrong at sigma 0.9 → those terms are
        // 0.81 each; the rest are 0.01.
        let expected = (12.0 * 0.81 + 48.0 * 0.01) / 60.0;
        assert!((c.brier() - expected).abs() < 1e-6, "brier {}", c.brier());
    }

    #[test]
    fn loss_reach_covers_decoder_reported_bad_mbs() {
        let p = params();
        let mut log = uniform_log(p, MODE_SKIP);
        // A loss at frag 0 of frame 1 desyncs the whole frame; the
        // decoder reports a concealment range within it.
        log.events.push(Event::PacketLost {
            frame: 1,
            seq: 4,
            frag: 0,
            frag_count: 2,
            len: 100,
            parity: false,
        });
        log.events.push(Event::MbConcealed {
            frame: 1,
            mb_start: 5,
            count: 7,
        });
        let analysis = analyze(&log, p);
        for (frame, bad) in &analysis.decoder_bad {
            let reach = &analysis.loss_reach[frame];
            for (mb, &b) in bad.iter().enumerate() {
                if b {
                    assert!(reach[mb], "bad MB {mb} of frame {frame} unattributed");
                }
            }
        }
    }
}
