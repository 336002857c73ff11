//! The channel's one packet record against an independent oracle.
//!
//! `LossyChannel::transmit` decides each packet's fate once, keeps it
//! (`lost()`), and emits `packet_lost` at the decision. The oracle here
//! is the older reconstruction: survivors are an in-order subset of the
//! offered packets, so a two-pointer walk over RTP sequence numbers
//! recovers exactly the dropped ones. The survivors it walks come from
//! an untraced twin channel built from the same loss seed, so the walk
//! never reads the record or the trace it checks.

use pbpair_netsim::scenario::ScheduleBuilder;
use pbpair_netsim::{
    ChannelSpec, CorruptingChannel, CorruptionProfile, FecOps, FecProtector, FecSpec, LossyChannel,
    NoLoss, Packet, Packetizer,
};
use pbpair_trace::{Event, Tracer};

/// The offered packets missing from `survivors`, an in-order subset of
/// `offered`: a two-pointer walk over the sequence numbers.
fn dropped_by_walk<'a>(offered: &'a [Packet], survivors: &[Packet]) -> Vec<&'a Packet> {
    let mut rest = survivors.iter();
    let mut next = rest.next();
    let mut dropped = Vec::new();
    for p in offered {
        if next.map(|q| q.seq) == Some(p.seq) {
            next = rest.next();
        } else {
            dropped.push(p);
        }
    }
    dropped
}

/// The `packet_lost` event a dropped packet must produce.
fn lost_event(p: &Packet) -> Event {
    Event::PacketLost {
        frame: p.frame_index as u32,
        seq: p.seq,
        frag: p.fragment_index,
        frag_count: p.fragment_count,
        len: p.payload.len() as u32,
        parity: p.parity,
    }
}

/// Seeded loss models of every kind the channel zoo builds.
fn channels() -> Vec<ChannelSpec> {
    vec![
        ChannelSpec::Uniform { plr: 0.2 },
        ChannelSpec::GilbertElliott {
            p_gb: 0.05,
            p_bg: 0.3,
            loss_good: 0.02,
            loss_bad: 0.6,
        },
        ChannelSpec::BurstErasure {
            burst_len: 3.0,
            guard_len: 12.0,
        },
        ScheduleBuilder::new()
            .steady(0.05, 10, 2)
            .ramp(0.05, 0.4, 10, 3)
            .outage(3, 6)
            .burst(4.0, 16.0, 20, 2)
            .build()
            .unwrap(),
    ]
}

#[test]
fn traced_losses_and_the_fate_record_match_the_walk() {
    let mut total_dropped = 0usize;
    for (c, spec) in channels().into_iter().enumerate() {
        for intensity in [0.0, 0.5, 1.0] {
            for fec in [None, Some(FecSpec::Rs { k: 4, r: 2 })] {
                let seed = 0x5EED + c as u64;
                let mut chan = CorruptingChannel::new(
                    spec.build_loss(seed).unwrap(),
                    CorruptionProfile::with_intensity(intensity),
                    77,
                );
                let tracer = Tracer::new();
                chan.set_tracer(&tracer);
                let mut twin = LossyChannel::new(spec.build_loss(seed).unwrap());
                let protector = fec.map(|spec| FecProtector::new(spec).unwrap());
                let mut pkt = Packetizer::new(120);
                let mut expected = Vec::new();
                let mut offered = Vec::new();
                for frame in 0..48u64 {
                    let data: Vec<u8> = (0..200 + 37 * (frame as usize % 11))
                        .map(|i| (i as u64 * 31 + frame) as u8)
                        .collect();
                    let packets = pkt.packetize(frame, &data);
                    let sent = match &protector {
                        Some(p) => p.protect(&packets, &mut FecOps::default()),
                        None => packets,
                    };
                    chan.on_frame(frame);
                    twin.on_frame(frame);
                    let _ = chan.transmit_packets(&sent);
                    let dropped = dropped_by_walk(&sent, &twin.transmit(&sent));

                    let flagged: Vec<&Packet> = sent
                        .iter()
                        .zip(chan.lost())
                        .filter_map(|(p, &lost)| lost.then_some(p))
                        .collect();
                    assert_eq!(chan.lost().len(), sent.len(), "one fate per packet");
                    assert_eq!(
                        flagged, dropped,
                        "{spec:?} intensity {intensity} fec {fec:?} frame {frame}: record"
                    );
                    total_dropped += dropped.len();
                    expected.extend(dropped.into_iter().map(lost_event));
                    offered.extend(sent);
                }

                let events = tracer.log_snapshot().events;
                let lost: Vec<Event> = events
                    .iter()
                    .filter(|e| matches!(e, Event::PacketLost { .. }))
                    .copied()
                    .collect();
                assert_eq!(
                    lost, expected,
                    "{spec:?} intensity {intensity} fec {fec:?}: packet_lost events"
                );
                // Corruption events report the length the packet was
                // offered with, whatever the damage did to it.
                for e in &events {
                    if let Event::PacketCorrupted {
                        frame, seq, len, ..
                    } = *e
                    {
                        let p = offered
                            .iter()
                            .find(|p| p.frame_index == u64::from(frame) && p.seq == seq)
                            .expect("a corrupted packet was offered");
                        assert_eq!(len as usize, p.len());
                    }
                }
            }
        }
    }
    assert!(
        total_dropped > 500,
        "the walk must see losses: {total_dropped}"
    );
}

#[test]
fn a_truncated_packet_reports_its_length_before_the_damage() {
    let mut chan = CorruptingChannel::new(
        Box::new(NoLoss),
        CorruptionProfile {
            truncate_prob: 1.0,
            ..CorruptionProfile::clean()
        },
        5,
    );
    let tracer = Tracer::new();
    chan.set_tracer(&tracer);
    let sent = Packetizer::new(100).packetize(0, &[7u8; 350]);
    let delivered = chan.transmit_packets(&sent);
    assert_eq!(chan.lost(), &[false; 4]);
    let events = tracer.log_snapshot().events;
    assert_eq!(events.len(), sent.len(), "every packet is truncated once");
    for ((event, offered), got) in events.iter().zip(&sent).zip(&delivered) {
        assert!(got.len() < offered.len(), "truncation shortens");
        assert_eq!(
            *event,
            Event::PacketCorrupted {
                frame: 0,
                seq: offered.seq,
                frag: offered.fragment_index,
                frag_count: offered.fragment_count,
                len: offered.len() as u32,
            }
        );
    }
}
