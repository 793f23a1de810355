//! Cross-crate integration: the paper's headline comparison — on a skewed,
//! constrained bandwidth distribution HEAP beats standard gossip on stream
//! quality, while matching each node's contribution to its capability.

use heap::simnet::loss::LossModel;
use heap::simnet::time::SimDuration;
use heap::workloads::experiments::fig4_bandwidth_usage::usage_by_class;
use heap::workloads::{
    run_scenario, BandwidthDistribution, ExperimentResult, ProtocolChoice, Scale, Scenario,
};

fn scale() -> Scale {
    // Slightly larger than Scale::test() so class effects are visible, still
    // fast enough for CI.
    Scale::test().with_nodes(60).with_windows(5)
}

#[test]
fn heap_improves_stream_quality_on_skewed_distribution() {
    let standard = run_scenario(&Scenario::new(
        "it/standard",
        scale(),
        BandwidthDistribution::ms_691(),
        ProtocolChoice::Standard { fanout: 7.0 },
    ));
    let heap = run_scenario(&Scenario::new(
        "it/heap",
        scale(),
        BandwidthDistribution::ms_691(),
        ProtocolChoice::Heap { fanout: 7.0 },
    ));

    let lag = SimDuration::from_secs(10);
    let mean_jitter_free = |r: &ExperimentResult| {
        let v: Vec<f64> = r
            .survivors()
            .map(|n| n.metrics.jitter_free_fraction(lag))
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let std_q = mean_jitter_free(&standard);
    let heap_q = mean_jitter_free(&heap);
    assert!(
        heap_q >= std_q,
        "HEAP jitter-free fraction {heap_q:.3} must be at least standard's {std_q:.3}"
    );

    // Contribution proportional to capability: under HEAP the ratio of
    // served packets between the 3 Mbps class and the 512 kbps class should
    // be clearly larger than under standard gossip.
    let served_ratio = |r: &ExperimentResult| {
        let class_mean = |class: &str| {
            let v: Vec<f64> = r
                .class_survivors(class)
                .map(|n| n.protocol_stats.packets_served as f64)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        class_mean("3Mbps") / class_mean("512kbps").max(1.0)
    };
    let heap_ratio = served_ratio(&heap);
    let std_ratio = served_ratio(&standard);
    assert!(
        heap_ratio > std_ratio,
        "HEAP rich/poor serve ratio {heap_ratio:.2} should exceed standard's {std_ratio:.2}"
    );
}

/// Mean over the surviving, emitting nodes of each node's average fanout.
fn mean_fanout(result: &ExperimentResult) -> f64 {
    let (sum, count) = result
        .survivors()
        .map(|n| n.protocol_stats)
        .filter(|s| s.gossip_emissions > 0)
        .fold((0.0, 0usize), |(sum, count), s| {
            (sum + s.average_fanout(), count + 1)
        });
    sum / count as f64
}

/// Mean over the survivors of the fraction of the stream each received.
fn mean_delivery(result: &ExperimentResult) -> f64 {
    let ratios: Vec<f64> = result
        .survivors()
        .map(|n| n.metrics.delivery_ratio())
        .collect();
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

#[test]
fn heap_keeps_average_fanout_at_the_reference_value() {
    // HEAP redistributes fanout but must preserve the system-wide average
    // (the reliability invariant the paper builds on).
    let heap = run_scenario(&Scenario::new(
        "it/heap-avg-fanout",
        scale(),
        BandwidthDistribution::ms_691(),
        ProtocolChoice::Heap { fanout: 7.0 },
    ));
    let mean = mean_fanout(&heap);
    assert!(
        (mean - 7.0).abs() < 1.5,
        "population mean fanout {mean:.2} strayed from the reference 7"
    );

    // The oracle variant scales by the distribution's exact average
    // capability instead of the gossip estimate: no estimation error, so the
    // population mean sits on the configured fanout up to the class mix the
    // small population happened to draw — and the stream still arrives.
    let oracle = run_scenario(&Scenario::new(
        "it/heap-oracle",
        Scale::test(),
        BandwidthDistribution::ms_691(),
        ProtocolChoice::HeapOracle { fanout: 7.0 },
    ));
    let mean = mean_fanout(&oracle);
    assert!(
        (mean - 7.0).abs() < 0.5,
        "oracle mean fanout {mean:.2} is not the configured 7"
    );
    let delivered = mean_delivery(&oracle);
    assert!(
        delivered > 0.99,
        "HEAP-oracle delivered {delivered:.3} of the stream"
    );
}

#[test]
fn retransmission_recovers_what_loss_takes() {
    let lossy = Scenario::new(
        "it/retransmission-on",
        Scale::test(),
        BandwidthDistribution::ms_691(),
        ProtocolChoice::Heap { fanout: 7.0 },
    )
    .with_loss(LossModel::bernoulli(0.05));
    let without = lossy
        .clone()
        .with_gossip(lossy.gossip.clone().without_retransmission());
    let on = run_scenario(&lossy);
    let off = run_scenario(&without);

    let retransmits = |r: &ExperimentResult| -> u64 {
        r.nodes
            .iter()
            .map(|n| n.protocol_stats.retransmit_requests)
            .sum()
    };
    assert!(
        retransmits(&on) > 0,
        "5 % loss must trigger retransmissions"
    );
    assert_eq!(retransmits(&off), 0, "retransmission is switched off");
    // Dissemination completes either way; the re-requests are what closes
    // the gap to the full stream.
    let (on, off) = (mean_delivery(&on), mean_delivery(&off));
    assert!(off > 0.8, "without retransmission {off:.3} was delivered");
    assert!(
        on > 0.98 && on > off,
        "retransmission must recover losses: {on:.3} on vs {off:.3} off"
    );
}

#[test]
fn heap_lifts_rich_node_utilization() {
    let standard = run_scenario(&Scenario::new(
        "it/standard-usage",
        scale(),
        BandwidthDistribution::ms_691(),
        ProtocolChoice::Standard { fanout: 7.0 },
    ));
    let heap = run_scenario(&Scenario::new(
        "it/heap-usage",
        scale(),
        BandwidthDistribution::ms_691(),
        ProtocolChoice::Heap { fanout: 7.0 },
    ));
    let rich = |r: &ExperimentResult| {
        usage_by_class(r)
            .into_iter()
            .find(|(c, _)| *c == "3Mbps")
            .and_then(|(_, u)| u)
            .unwrap_or(0.0)
    };
    assert!(
        rich(&heap) > rich(&standard),
        "HEAP must raise the 3 Mbps class utilization ({:.2} vs {:.2})",
        rich(&heap),
        rich(&standard)
    );
}
